package dataset

import (
	"math"
	"testing"

	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// classCounts returns the number of examples per class.
func classCounts(ds *Dataset) []int {
	counts := make([]int, ds.NumClasses)
	for _, y := range ds.Y {
		counts[y]++
	}
	return counts
}

func TestBlobsBasicProperties(t *testing.T) {
	rng := tensor.NewRNG(1)
	ds := Blobs(rng, 300, 5, 3, 4)
	if ds.Len() != 300 || ds.NumClasses != 3 {
		t.Fatalf("Len=%d classes=%d", ds.Len(), ds.NumClasses)
	}
	counts := classCounts(ds)
	for c, n := range counts {
		if n != 100 {
			t.Fatalf("class %d has %d examples", c, n)
		}
	}
	if got := ds.ExampleShape(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("ExampleShape = %v", got)
	}
}

func TestBlobsAreLearnable(t *testing.T) {
	rng := tensor.NewRNG(2)
	ds := Blobs(rng, 600, 4, 3, 5)
	train, test := ds.Split(0.8, rng)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 16, rng), nn.NewReLU(), nn.NewDense(16, 3, rng))
	if _, err := nn.Train(net, train.X, train.Y, nn.TrainConfig{
		Epochs: 10, BatchSize: 32, Optimizer: nn.NewSGD(0.1).WithMomentum(0.9), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	if acc := nn.Evaluate(net, test.X, test.Y); acc < 0.9 {
		t.Fatalf("blobs test accuracy %v < 0.9", acc)
	}
}

func TestRingsNotLinearlySeparableButLearnable(t *testing.T) {
	rng := tensor.NewRNG(3)
	ds := Rings(rng, 900, 3, 0.1)
	train, test := ds.Split(0.8, rng)
	// A linear model should struggle...
	linear := nn.NewNetwork([]int{2}, nn.NewDense(2, 3, rng))
	if _, err := nn.Train(linear, train.X, train.Y, nn.TrainConfig{
		Epochs: 15, BatchSize: 32, Optimizer: nn.NewSGD(0.05), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	linAcc := nn.Evaluate(linear, test.X, test.Y)
	// ...while an MLP succeeds.
	mlp := nn.NewNetwork([]int{2}, nn.NewDense(2, 32, rng), nn.NewReLU(), nn.NewDense(32, 3, rng))
	if _, err := nn.Train(mlp, train.X, train.Y, nn.TrainConfig{
		Epochs: 40, BatchSize: 32, Optimizer: nn.NewSGD(0.1).WithMomentum(0.9), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	mlpAcc := nn.Evaluate(mlp, test.X, test.Y)
	if mlpAcc < 0.85 {
		t.Fatalf("MLP rings accuracy %v < 0.85", mlpAcc)
	}
	if mlpAcc < linAcc+0.15 {
		t.Fatalf("rings should separate MLP (%v) from linear (%v)", mlpAcc, linAcc)
	}
}

func TestKeywordSeqClassesDiffer(t *testing.T) {
	rng := tensor.NewRNG(5)
	ds := KeywordSeq(rng, 200, 32, 4, 0.05, 0)
	// Mean energy per class should differ across at least one pair due to
	// distinct frequencies; verify per-class means are not all identical.
	sums := make([]float64, 4)
	counts := make([]int, 4)
	for i := 0; i < ds.Len(); i++ {
		var e float64
		for f := 0; f < 32; f++ {
			v := float64(ds.X.At2(i, f))
			e += v * v
		}
		sums[ds.Y[i]] += e
		counts[ds.Y[i]]++
	}
	distinct := false
	for c := 1; c < 4; c++ {
		if math.Abs(sums[c]/float64(counts[c])-sums[0]/float64(counts[0])) > 1e-3 {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("keyword classes look identical")
	}
}

func TestVibrationAnomalyFraction(t *testing.T) {
	rng := tensor.NewRNG(6)
	ds := VibrationAnomaly(rng, 2000, 32, 0.3, 1)
	counts := classCounts(ds)
	frac := float64(counts[1]) / float64(ds.Len())
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("anomaly fraction = %v, want ≈0.3", frac)
	}
}

func TestVibrationMachinesDiffer(t *testing.T) {
	rng := tensor.NewRNG(7)
	a := VibrationAnomaly(rng, 100, 32, 0, 0)
	b := VibrationAnomaly(rng, 100, 32, 0, 3)
	// Different machine IDs use different base frequencies; the mean
	// per-position signal must differ.
	var diff float64
	for f := 0; f < 32; f++ {
		var ma, mb float64
		for i := 0; i < 100; i++ {
			ma += float64(a.X.At2(i, f))
			mb += float64(b.X.At2(i, f))
		}
		diff += math.Abs(ma - mb)
	}
	if diff < 1 {
		t.Fatalf("machines 0 and 3 produce identical signals (diff=%v)", diff)
	}
}

func TestSplitAndSubset(t *testing.T) {
	rng := tensor.NewRNG(8)
	ds := Blobs(rng, 100, 3, 2, 3)
	train, test := ds.Split(0.7, rng)
	if train.Len() != 70 || test.Len() != 30 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	sub := ds.Subset([]int{0, 1, 2})
	if sub.Len() != 3 {
		t.Fatalf("Subset len = %d", sub.Len())
	}
	sub.X.Set2(0, 0, 999)
	if ds.X.At2(0, 0) == 999 {
		t.Fatal("Subset must copy data")
	}
}

func TestStandardize(t *testing.T) {
	rng := tensor.NewRNG(9)
	ds := Blobs(rng, 500, 4, 2, 6)
	means, stds := ds.Standardize()
	if len(means) != 4 || len(stds) != 4 {
		t.Fatalf("stats lengths %d/%d", len(means), len(stds))
	}
	for f := 0; f < 4; f++ {
		var sum, sumSq float64
		for i := 0; i < ds.Len(); i++ {
			v := float64(ds.X.At2(i, f))
			sum += v
			sumSq += v * v
		}
		m := sum / float64(ds.Len())
		sd := math.Sqrt(sumSq/float64(ds.Len()) - m*m)
		if math.Abs(m) > 1e-4 || math.Abs(sd-1) > 1e-3 {
			t.Fatalf("feature %d after standardize: mean=%v std=%v", f, m, sd)
		}
	}
}

func TestDriftStreamOnset(t *testing.T) {
	rng := tensor.NewRNG(13)
	base := Blobs(rng, 200, 3, 2, 3)
	s := NewDriftStream(rng, base, 100, DriftMeanShift, 10)
	var preMean, postMean float64
	for i := 0; i < 100; i++ {
		x, _ := s.Next()
		for _, v := range x {
			preMean += float64(v)
		}
	}
	for i := 0; i < 100; i++ {
		x, _ := s.Next()
		for _, v := range x {
			postMean += float64(v)
		}
	}
	preMean /= 300
	postMean /= 300
	if postMean-preMean < 5 {
		t.Fatalf("drift not visible: pre %v post %v", preMean, postMean)
	}
	if s.t != 200 {
		t.Fatalf("%d examples emitted, want 200", s.t)
	}
}

func TestPartitionIIDBalanced(t *testing.T) {
	rng := tensor.NewRNG(14)
	ds := Blobs(rng, 100, 2, 2, 3)
	shards := PartitionIID(rng, ds, 7)
	total := 0
	for _, s := range shards {
		if len(s) < 14 || len(s) > 15 {
			t.Fatalf("shard size %d", len(s))
		}
		total += len(s)
	}
	if total != 100 {
		t.Fatalf("total %d", total)
	}
	if skew := LabelSkew(ds, shards); skew > 0.25 {
		t.Fatalf("IID skew too high: %v", skew)
	}
}

func TestPartitionDirichletSkewIncreasesAsAlphaShrinks(t *testing.T) {
	rng := tensor.NewRNG(15)
	ds := Blobs(rng, 3000, 2, 5, 3)
	lowAlpha := PartitionDirichlet(rng, ds, 10, 0.1)
	highAlpha := PartitionDirichlet(rng, ds, 10, 100)
	totalLow, totalHigh := 0, 0
	for i := range lowAlpha {
		totalLow += len(lowAlpha[i])
		totalHigh += len(highAlpha[i])
	}
	if totalLow != ds.Len() || totalHigh != ds.Len() {
		t.Fatalf("partitions lost examples: %d, %d of %d", totalLow, totalHigh, ds.Len())
	}
	sLow := LabelSkew(ds, lowAlpha)
	sHigh := LabelSkew(ds, highAlpha)
	if sLow <= sHigh {
		t.Fatalf("alpha=0.1 skew %v should exceed alpha=100 skew %v", sLow, sHigh)
	}
	if sHigh > 0.15 {
		t.Fatalf("alpha=100 should be near-IID, skew=%v", sHigh)
	}
}

func TestNoDriftKindLeavesStreamUnchanged(t *testing.T) {
	rng := tensor.NewRNG(17)
	base := Blobs(rng, 100, 2, 2, 3)
	s := NewDriftStream(rng, base, 0, DriftNone, 10)
	x, y := s.Next()
	if len(x) != 2 || y < 0 || y > 1 {
		t.Fatalf("Next() = %v, %d", x, y)
	}
}

func TestDriftKindStrings(t *testing.T) {
	for k, want := range map[DriftKind]string{
		DriftNone: "none", DriftMeanShift: "mean-shift", DriftRotate: "rotate", DriftScale: "scale",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
}
