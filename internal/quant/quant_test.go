package quant

import (
	"math"
	"testing"
	"testing/quick"

	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

func TestSchemeStringsAndBits(t *testing.T) {
	cases := []struct {
		s    Scheme
		name string
		bits int
	}{
		{Float32, "float32", 32}, {Int8, "int8", 8}, {Int4, "int4", 4},
		{Ternary, "ternary", 2}, {Binary, "binary", 1},
	}
	for _, c := range cases {
		if c.s.String() != c.name || c.s.Bits() != c.bits {
			t.Fatalf("scheme %v: %q/%d", c.s, c.s.String(), c.s.Bits())
		}
	}
}

func TestQuantizeInt8RoundTripErrorBounded(t *testing.T) {
	rng := tensor.NewRNG(1)
	w := tensor.Randn(rng, 0.5, 32, 16)
	q, err := QuantizeMatrix(w, Int8)
	if err != nil {
		t.Fatal(err)
	}
	d := q.Dequantize()
	// Max error per column is scale/2; verify element-wise.
	for j := 0; j < 16; j++ {
		for i := 0; i < 32; i++ {
			diff := math.Abs(float64(w.At2(i, j) - d.At2(i, j)))
			if diff > float64(q.Scales[j])/2+1e-6 {
				t.Fatalf("int8 error %g exceeds scale/2=%g at (%d,%d)", diff, q.Scales[j]/2, i, j)
			}
		}
	}
}

func TestQuantizeCodesWithinRange(t *testing.T) {
	rng := tensor.NewRNG(2)
	w := tensor.Randn(rng, 2, 20, 10)
	for _, c := range []struct {
		s   Scheme
		max int8
	}{{Int8, 127}, {Int4, 7}, {Ternary, 1}, {Binary, 1}} {
		q, err := QuantizeMatrix(w, c.s)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range q.Data {
			if v > c.max || v < -c.max {
				t.Fatalf("%v code %d out of range ±%d", c.s, v, c.max)
			}
			if c.s == Binary && v == 0 {
				t.Fatal("binary scheme produced a zero code")
			}
		}
	}
}

func TestQTensorSizeBytes(t *testing.T) {
	rng := tensor.NewRNG(4)
	w := tensor.Randn(rng, 1, 100, 10)
	q8, _ := QuantizeMatrix(w, Int8)
	q1, _ := QuantizeMatrix(w, Binary)
	if q8.SizeBytes() != 1000+40 {
		t.Fatalf("int8 size = %d, want 1040", q8.SizeBytes())
	}
	if q1.SizeBytes() != 125+40 {
		t.Fatalf("binary size = %d, want 165", q1.SizeBytes())
	}
}

func trainBlobModel(t *testing.T, rng *tensor.RNG) (*nn.Network, *tensor.Tensor, []int) {
	t.Helper()
	n := 600
	x := tensor.New(n, 4)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 3
		for d := 0; d < 4; d++ {
			center := float32(cls*2) * float32(1+d%2)
			x.Set2(i, d, center+rng.NormFloat32()*0.6)
		}
		labels[i] = cls
	}
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 24, rng), nn.NewReLU(), nn.NewDense(24, 3, rng))
	if _, err := nn.Train(net, x, labels, nn.TrainConfig{
		Epochs: 12, BatchSize: 32, Optimizer: nn.NewSGD(0.1).WithMomentum(0.9), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	return net, x, labels
}

func TestFakeQuantAccuracyOrdering(t *testing.T) {
	rng := tensor.NewRNG(5)
	net, x, labels := trainBlobModel(t, rng)
	base := nn.Evaluate(net, x, labels)
	if base < 0.9 {
		t.Fatalf("base accuracy too low: %v", base)
	}
	acc8net, err := FakeQuantizeNetwork(net, Int8)
	if err != nil {
		t.Fatal(err)
	}
	acc8 := nn.Evaluate(acc8net, x, labels)
	if base-acc8 > 0.05 {
		t.Fatalf("int8 accuracy dropped too much: %v -> %v", base, acc8)
	}
	accBinNet, err := FakeQuantizeNetwork(net, Binary)
	if err != nil {
		t.Fatal(err)
	}
	accBin := nn.Evaluate(accBinNet, x, labels)
	if accBin > acc8+0.02 {
		t.Fatalf("binary (%v) should not beat int8 (%v)", accBin, acc8)
	}
}

func TestQModelMatchesFakeQuantPredictions(t *testing.T) {
	rng := tensor.NewRNG(6)
	net, x, labels := trainBlobModel(t, rng)
	qm, err := NewQModel(net, Int8)
	if err != nil {
		t.Fatal(err)
	}
	logits := qm.Predict(x.RowSlice(0, 64))
	// Compare classification agreement with the float model (activation
	// quantization adds noise so exact equality is not expected).
	want := net.Predict(x.RowSlice(0, 64)).ArgMaxRows()
	got := logits.ArgMaxRows()
	agree := 0
	for i := range got {
		if got[i] == want[i] {
			agree++
		}
	}
	if agree < 58 {
		t.Fatalf("int8 QModel agrees on only %d/64 predictions", agree)
	}
	qacc := 0
	pred := qm.Predict(x).ArgMaxRows()
	for i := range pred {
		if pred[i] == labels[i] {
			qacc++
		}
	}
	if float64(qacc)/float64(len(labels)) < 0.85 {
		t.Fatalf("QModel accuracy %v too low", float64(qacc)/float64(len(labels)))
	}
}

func TestQModelSizeShrinksWithBits(t *testing.T) {
	rng := tensor.NewRNG(7)
	net := nn.NewNetwork([]int{32}, nn.NewDense(32, 64, rng), nn.NewReLU(), nn.NewDense(64, 10, rng))
	m8, _ := NewQModel(net, Int8)
	m4, _ := NewQModel(net, Int4)
	m1, _ := NewQModel(net, Binary)
	if !(m8.SizeBytes() > m4.SizeBytes() && m4.SizeBytes() > m1.SizeBytes()) {
		t.Fatalf("sizes not monotone: %d, %d, %d", m8.SizeBytes(), m4.SizeBytes(), m1.SizeBytes())
	}
	if NetworkSizeBytes(net, Float32) <= NetworkSizeBytes(net, Int8) {
		t.Fatal("float32 network should be larger than int8")
	}
}

func TestNewQModelRejectsFloatScheme(t *testing.T) {
	rng := tensor.NewRNG(8)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 2, rng))
	if _, err := NewQModel(net, Float32); err == nil {
		t.Fatal("NewQModel accepted Float32")
	}
}

func TestQuantizeActivationsSymmetric(t *testing.T) {
	x := tensor.FromSlice([]float32{-1, 0, 0.5, 1}, 1, 4)
	q, scale := QuantizeActivations(x)
	if q[0] != -127 || q[3] != 127 {
		t.Fatalf("activation codes = %v", q)
	}
	if math.Abs(float64(scale-1.0/127)) > 1e-7 {
		t.Fatalf("scale = %v", scale)
	}
	// All-zero input must not divide by zero.
	z := tensor.New(1, 4)
	qz, s := QuantizeActivations(z)
	if s == 0 {
		t.Fatal("zero scale for zero input")
	}
	for _, v := range qz {
		if v != 0 {
			t.Fatal("zero input must quantize to zero codes")
		}
	}
}

func TestMagnitudePrune(t *testing.T) {
	rng := tensor.NewRNG(10)
	net := nn.NewNetwork([]int{16}, nn.NewDense(16, 32, rng), nn.NewReLU(), nn.NewDense(32, 4, rng))
	s, err := MagnitudePrune(net, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.49 || s > 0.6 {
		t.Fatalf("sparsity = %v, want ≈0.5", s)
	}
	// Biases untouched by sparsity accounting: prune with 0 keeps state.
	s2, err := MagnitudePrune(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2 < s {
		t.Fatalf("fraction=0 lost sparsity: %v -> %v", s, s2)
	}
	if _, err := MagnitudePrune(net, 1.5); err == nil {
		t.Fatal("accepted fraction > 1")
	}
}

func TestPruneKeepsLargestWeights(t *testing.T) {
	rng := tensor.NewRNG(11)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 4, rng))
	w := net.Layers()[0].(*nn.Dense).W.Value
	for i := range w.Data {
		w.Data[i] = float32(i + 1) // magnitudes 1..16
	}
	if _, err := MagnitudePrune(net, 0.25); err != nil {
		t.Fatal(err)
	}
	// Smallest four (1..4) must be zero, largest must survive.
	for i := 0; i < 4; i++ {
		if w.Data[i] != 0 {
			t.Fatalf("small weight %d survived: %v", i, w.Data[i])
		}
	}
	if w.Data[15] != 16 {
		t.Fatalf("largest weight was pruned: %v", w.Data[15])
	}
}

// Property: dequantize(quantize(w)) has column-wise max error ≤ scale/2 for
// int schemes on arbitrary matrices.
func TestInt8ErrorBoundProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rr := tensor.NewRNG(seed)
		rows, cols := 1+rr.Intn(20), 1+rr.Intn(10)
		w := tensor.Randn(rr, 1+rr.Float32()*3, rows, cols)
		q, err := QuantizeMatrix(w, Int8)
		if err != nil {
			return false
		}
		d := q.Dequantize()
		for j := 0; j < cols; j++ {
			for i := 0; i < rows; i++ {
				if math.Abs(float64(w.At2(i, j)-d.At2(i, j))) > float64(q.Scales[j])/2+1e-5 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// columnMajorQuantize is the integer branch of QuantizeMatrix as it stood
// before the row-major sweep: one column at a time through At2, rounding
// with math.Round. It is the reference the property below compares against.
func columnMajorQuantize(w *tensor.Tensor, scheme Scheme) (codes []int8, scales []float32) {
	rows, cols := w.Dim(0), w.Dim(1)
	codes, scales = make([]int8, rows*cols), make([]float32, cols)
	mc := maxCode(scheme)
	for j := 0; j < cols; j++ {
		var absMax float32
		for i := 0; i < rows; i++ {
			v := w.At2(i, j)
			if v < 0 {
				v = -v
			}
			if v > absMax {
				absMax = v
			}
		}
		scale := absMax / mc
		if !(scale > 0) || math.IsInf(float64(scale), 0) {
			scale = 1
		}
		scales[j] = scale
		for i := 0; i < rows; i++ {
			c := math.Round(float64(w.At2(i, j) / scale))
			switch {
			case c != c:
				c = 0
			case c > float64(mc):
				c = float64(mc)
			case c < -float64(mc):
				c = -float64(mc)
			}
			codes[i*cols+j] = int8(c)
		}
	}
	return codes, scales
}

// Property: the row-major QuantizeMatrix produces the codes and scales of
// the column-major reference bit for bit, on matrices salted with the
// values its special cases exist for.
func TestQuantizeMatrixMatchesColumnMajorReference(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	salt := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), negZero, 0,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32,
	}
	f := func(seed uint64) bool {
		rr := tensor.NewRNG(seed)
		rows, cols := 1+rr.Intn(24), 1+rr.Intn(12)
		w := tensor.Randn(rr, 1+rr.Float32()*3, rows, cols)
		switch rr.Intn(4) {
		case 0: // a few special values anywhere
			for k := 0; k < 1+rr.Intn(6); k++ {
				w.Data[rr.Intn(len(w.Data))] = salt[rr.Intn(len(salt))]
			}
		case 1: // one all-zero column, one all-NaN column
			for i := 0; i < rows; i++ {
				w.Set2(i, 0, []float32{0, negZero}[i%2])
				w.Set2(i, cols-1, float32(math.NaN()))
			}
		case 2: // exact rounding ties: codes land on k + 0.5
			mc := float32(7 + 120*rr.Intn(2))
			for j := 0; j < cols; j++ {
				w.Set2(0, j, mc)
				for i := 1; i < rows; i++ {
					w.Set2(i, j, float32(rr.Intn(int(2*mc)))-mc+0.5)
				}
			}
		}
		for _, scheme := range []Scheme{Int8, Int4} {
			q, err := QuantizeMatrix(w, scheme)
			if err != nil {
				return false
			}
			codes, scales := columnMajorQuantize(w, scheme)
			for j := range scales {
				if math.Float32bits(q.Scales[j]) != math.Float32bits(scales[j]) {
					return false
				}
			}
			for i := range codes {
				if q.Data[i] != codes[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundCodeIsSaturatedRound sweeps every float32 in a band around each
// rounding tie, plus the saturation edges, against math.Round.
func TestRoundCodeIsSaturatedRound(t *testing.T) {
	want := func(x, mc float32) int8 {
		c := math.Round(float64(x))
		switch {
		case c != c:
			c = 0
		case c > float64(mc):
			c = float64(mc)
		case c < -float64(mc):
			c = -float64(mc)
		}
		return int8(c)
	}
	for _, mc := range []float32{127, 7} {
		for k := -mc - 2; k <= mc+2; k++ {
			for _, centre := range []float32{k, k + 0.5} {
				x := centre
				for s := 0; s < 64; s++ {
					x = math.Nextafter32(x, float32(math.Inf(-1)))
				}
				for s := 0; s < 128; s++ {
					if got := roundCode(x, mc); got != want(x, mc) {
						t.Fatalf("roundCode(%v, %v) = %d, want %d", x, mc, got, want(x, mc))
					}
					x = math.Nextafter32(x, float32(math.Inf(1)))
				}
			}
		}
		for _, x := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, -math.MaxFloat32,
			math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, float32(math.Copysign(0, -1))} {
			if got := roundCode(x, mc); got != want(x, mc) {
				t.Fatalf("roundCode(%v, %v) = %d, want %d", x, mc, got, want(x, mc))
			}
		}
	}
}
