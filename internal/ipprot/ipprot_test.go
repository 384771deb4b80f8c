package ipprot

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"tinymlops/internal/dataset"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

var vendorKey = []byte("vendor-master-key-0123456789abcdef")

func TestEncryptDecryptRoundTrip(t *testing.T) {
	artifact := bytes.Repeat([]byte("model-bytes"), 100)
	em, err := EncryptModel(vendorKey, "m-1", artifact)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(em.Ciphertext, []byte("model-bytes")) {
		t.Fatal("ciphertext leaks plaintext")
	}
	got, err := DecryptModel(vendorKey, em)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, artifact) {
		t.Fatal("decryption mismatch")
	}
}

func TestDecryptRejectsTamperingAndWrongKey(t *testing.T) {
	em, _ := EncryptModel(vendorKey, "m-1", []byte("artifact"))
	bad := *em
	bad.Ciphertext = append([]byte(nil), em.Ciphertext...)
	bad.Ciphertext[0] ^= 1
	if _, err := DecryptModel(vendorKey, &bad); err == nil {
		t.Fatal("tampered ciphertext decrypted")
	}
	if _, err := DecryptModel([]byte("wrong-key-0123456789abcdef"), em); err == nil {
		t.Fatal("wrong vendor key decrypted")
	}
	rebound := *em
	rebound.ModelID = "m-2"
	if _, err := DecryptModel(vendorKey, &rebound); err == nil {
		t.Fatal("model-ID rebinding accepted")
	}
	if _, err := EncryptModel([]byte("short"), "m", []byte("x")); err == nil {
		t.Fatal("short vendor key accepted")
	}
}

// victimFixture trains a small classifier for watermark/extraction tests.
func victimFixture(t *testing.T, seed uint64) (*nn.Network, *dataset.Dataset) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	ds := dataset.Blobs(rng, 900, 6, 3, 4)
	net := nn.NewNetwork([]int{6},
		nn.NewDense(6, 32, rng), nn.NewReLU(),
		nn.NewDense(32, 3, rng))
	if _, err := nn.Train(net, ds.X, ds.Y, nn.TrainConfig{
		Epochs: 10, BatchSize: 32, Optimizer: nn.NewSGD(0.1).WithMomentum(0.9), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	return net, ds
}

func TestStaticWatermarkEmbedExtract(t *testing.T) {
	net, ds := victimFixture(t, 1)
	accBefore := nn.Evaluate(net, ds.X, ds.Y)
	bits := KeyedBits("owner-alice", 64)
	cfg := DefaultStaticWMConfig()
	if err := EmbedStatic(net, "owner-alice", bits, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := ExtractStatic(net, "owner-alice", 64, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ber := BitErrorRate(bits, got); ber != 0 {
		t.Fatalf("BER after embedding = %v, want 0", ber)
	}
	// Fidelity: task accuracy barely moves.
	accAfter := nn.Evaluate(net, ds.X, ds.Y)
	if accBefore-accAfter > 0.03 {
		t.Fatalf("watermark cost %.3f accuracy", accBefore-accAfter)
	}
	// Wrong key extracts noise (≈50% BER).
	wrong, _ := ExtractStatic(net, "owner-eve", 64, cfg)
	if ber := BitErrorRate(bits, wrong); ber < 0.25 {
		t.Fatalf("wrong-key BER = %v, should be near 0.5", ber)
	}
}

func TestStaticWatermarkRobustToModeratePruning(t *testing.T) {
	net, _ := victimFixture(t, 2)
	bits := KeyedBits("owner", 32)
	cfg := DefaultStaticWMConfig()
	if err := EmbedStatic(net, "owner", bits, cfg); err != nil {
		t.Fatal(err)
	}
	// Add small noise (fine-tuning-like distortion).
	w := net.Layers()[0].(*nn.Dense).W.Value
	rng := tensor.NewRNG(3)
	for i := range w.Data {
		w.Data[i] += rng.NormFloat32() * 0.01
	}
	got, _ := ExtractStatic(net, "owner", 32, cfg)
	if ber := BitErrorRate(bits, got); ber > 0.1 {
		t.Fatalf("BER after small noise = %v", ber)
	}
}

func TestStaticWatermarkValidation(t *testing.T) {
	net, _ := victimFixture(t, 4)
	if err := EmbedStatic(net, "k", nil, DefaultStaticWMConfig()); err == nil {
		t.Fatal("empty watermark accepted")
	}
	if err := EmbedStatic(nn.NewNetwork([]int{4}, nn.NewReLU()), "k", KeyedBits("k", 8), DefaultStaticWMConfig()); err == nil {
		t.Fatal("a network with no dense layer accepted a mark")
	}
	huge := KeyedBits("k", 10000)
	if err := EmbedStatic(net, "k", huge, DefaultStaticWMConfig()); err == nil {
		t.Fatal("over-capacity watermark accepted")
	}
}

func TestBitErrorRateEdgeCases(t *testing.T) {
	if BitErrorRate(nil, nil) != 1 {
		t.Fatal("empty comparison should be 1 (no evidence)")
	}
	if BitErrorRate([]bool{true}, []bool{true, false}) != 1 {
		t.Fatal("length mismatch should be 1")
	}
	if BitErrorRate([]bool{true, false}, []bool{true, true}) != 0.5 {
		t.Fatal("half-wrong should be 0.5")
	}
}

func TestDynamicWatermark(t *testing.T) {
	net, ds := victimFixture(t, 5)
	accBefore := nn.Evaluate(net, ds.X, ds.Y)
	triggers := NewTriggerSet("owner-alice", 30, []int{6}, 3)
	rng := tensor.NewRNG(6)
	if err := EmbedDynamic(net, triggers, ds.X, ds.Y, 6, rng); err != nil {
		t.Fatal(err)
	}
	if rec := VerifyDynamic(net, triggers); rec < 0.9 {
		t.Fatalf("trigger recall = %v, want ≥0.9", rec)
	}
	if acc := nn.Evaluate(net, ds.X, ds.Y); accBefore-acc > 0.05 {
		t.Fatalf("dynamic watermark cost %.3f accuracy", accBefore-acc)
	}
	// An innocent model shows only chance-level trigger recall.
	innocent, _ := victimFixture(t, 7)
	if rec := VerifyDynamic(innocent, triggers); rec > 0.7 {
		t.Fatalf("innocent model trigger recall %v — false ownership claim", rec)
	}
	// Different owners get different trigger sets.
	other := NewTriggerSet("owner-bob", 30, []int{6}, 3)
	if within(triggers.X, other.X, 1e-6) {
		t.Fatal("trigger sets should differ across keys")
	}
}

func TestExtractionAttackImprovesWithBudget(t *testing.T) {
	victim, ds := victimFixture(t, 8)
	bb := ModelBlackBox(victim)
	rng := tensor.NewRNG(9)
	eval := ds.X.RowSlice(0, 300)

	cloneAt := func(budget int) float64 {
		student := nn.NewNetwork([]int{6},
			nn.NewDense(6, 32, rng), nn.NewReLU(), nn.NewDense(32, 3, rng))
		q := ds.X.RowSlice(300, 300+budget)
		if _, err := Extract(bb, student, q, rng); err != nil {
			t.Fatal(err)
		}
		return Agreement(bb, ModelBlackBox(student), eval)
	}
	small := cloneAt(40)
	large := cloneAt(500)
	if large < 0.85 {
		t.Fatalf("500-query clone agreement %v, extraction should succeed", large)
	}
	if large <= small-0.02 {
		t.Fatalf("agreement did not improve with budget: %v -> %v", small, large)
	}
}

func TestDefensesPreserveUserAnswer(t *testing.T) {
	victim, ds := victimFixture(t, 10)
	bb := ModelBlackBox(victim)
	x := ds.X.RowSlice(0, 100)
	truth := bb(x).ArgMaxRows()
	rng := tensor.NewRNG(11)
	for _, d := range []Defense{RoundDefense{1}, Top1Defense{}, NoiseDefense{Std: 0.05, RNG: rng}, DeceptiveDefense{}} {
		probs := Defend(bb, d)(x)
		rows, cols := probs.Dim(0), probs.Dim(1)
		for i := 0; i < rows; i++ {
			var s float32
			for j := 0; j < cols; j++ {
				v := probs.At2(i, j)
				if v < 0 {
					t.Fatalf("%s produced negative probability", d.Name())
				}
				s += v
			}
			if math.Abs(float64(s)-1) > 1e-3 {
				t.Fatalf("%s row sums to %v", d.Name(), s)
			}
		}
		got := probs.ArgMaxRows()
		same := 0
		for i := range got {
			if got[i] == truth[i] {
				same++
			}
		}
		// Rounding can tie-break differently on near-uniform rows; demand
		// ≥95% argmax preservation.
		if float64(same)/float64(len(got)) < 0.95 {
			t.Fatalf("%s changed the user-visible answer on %d/100 inputs", d.Name(), 100-same)
		}
	}
}

func TestDeceptiveDefensePoisonsCloneProbabilities(t *testing.T) {
	victim, ds := victimFixture(t, 12)
	bb := ModelBlackBox(victim)
	eval := ds.X.RowSlice(0, 200)
	queries := ds.X.RowSlice(200, 700)

	trainClone := func(b BlackBox, seed uint64) *nn.Network {
		rng := tensor.NewRNG(seed)
		student := nn.NewNetwork([]int{6},
			nn.NewDense(6, 32, rng), nn.NewReLU(), nn.NewDense(32, 3, rng))
		if _, err := Extract(b, student, queries, rng); err != nil {
			t.Fatal(err)
		}
		return student
	}
	honest := trainClone(bb, 13)
	poisoned := trainClone(Defend(bb, DeceptiveDefense{}), 13)

	l1 := func(net *nn.Network) float64 {
		vp := bb(eval)
		sp := nn.SoftmaxRows(net.Predict(eval))
		var s float64
		for i := range vp.Data {
			s += math.Abs(float64(vp.Data[i] - sp.Data[i]))
		}
		return s / float64(vp.Dim(0))
	}
	if l1(poisoned) <= l1(honest) {
		t.Fatalf("deceptive defense did not increase clone divergence: %v vs %v", l1(poisoned), l1(honest))
	}
}

func TestQueryDetectorBenignVsAttack(t *testing.T) {
	rng := tensor.NewRNG(14)
	ds := dataset.Blobs(rng, 2000, 6, 3, 4)
	det := NewQueryDetector()
	// Benign stream: i.i.d. natural queries.
	for i := 0; i < 600; i++ {
		row := make([]float32, 6)
		for f := 0; f < 6; f++ {
			row[f] = ds.X.At2(rng.Intn(ds.Len()), f)
		}
		det.Observe(row)
	}
	if det.Flagged() {
		t.Fatalf("benign stream flagged (K²=%v)", det.Score())
	}
	// Attack stream: perturbation-based synthetic queries (fixed-radius
	// steps off previous queries, PRADA's adversary model).
	det.Reset()
	seed := make([]float32, 6)
	for i := 0; i < 600 && !det.Flagged(); i++ {
		q := make([]float32, 6)
		if i%10 == 0 {
			for f := range q {
				q[f] = ds.X.At2(rng.Intn(ds.Len()), f)
			}
			copy(seed, q)
		} else {
			copy(q, seed)
			f := rng.Intn(6)
			q[f] += 0.01 // tiny deterministic-radius step
		}
		det.Observe(q)
	}
	if !det.Flagged() {
		t.Fatalf("perturbation attack not flagged (K²=%v)", det.Score())
	}
}

func TestQueryDetectorReset(t *testing.T) {
	det := NewQueryDetector()
	det.Observe([]float32{1, 2})
	det.Observe([]float32{1, 2})
	det.Reset()
	if det.Flagged() || det.Score() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestScrambleBreaksAndUnscrambleRestores(t *testing.T) {
	net, ds := victimFixture(t, 15)
	accOrig := nn.Evaluate(net, ds.X, ds.Y)
	original := net.Clone()

	if err := ScrambleNetwork(net, "the-right-key"); err != nil {
		t.Fatal(err)
	}
	accScrambled := nn.Evaluate(net, ds.X, ds.Y)
	if accScrambled > accOrig-0.2 {
		t.Fatalf("scrambling barely hurt: %v -> %v", accOrig, accScrambled)
	}
	// Wrong key does not restore.
	wrong := net.Clone()
	if err := UnscrambleNetwork(wrong, "the-wrong-key"); err != nil {
		t.Fatal(err)
	}
	if acc := nn.Evaluate(wrong, ds.X, ds.Y); acc > accOrig-0.15 {
		t.Fatalf("wrong key restored accuracy: %v", acc)
	}
	// Right key restores bit-exactly.
	if err := UnscrambleNetwork(net, "the-right-key"); err != nil {
		t.Fatal(err)
	}
	for i, p := range net.Params() {
		if !slices.Equal(p.Value.Data, original.Params()[i].Value.Data) {
			t.Fatalf("param %d not exactly restored", i)
		}
	}
	if acc := nn.Evaluate(net, ds.X, ds.Y); acc != accOrig {
		t.Fatalf("accuracy after unscramble %v != %v", acc, accOrig)
	}
}

func TestScrambleRequiresDenseLayers(t *testing.T) {
	net := nn.NewNetwork([]int{4}, nn.NewReLU())
	if err := ScrambleNetwork(net, "k"); err == nil {
		t.Fatal("scrambled a network without dense layers")
	}
}

func TestKeyedBitsDeterministicAndKeyed(t *testing.T) {
	a := KeyedBits("alice", 64)
	b := KeyedBits("alice", 64)
	c := KeyedBits("bob", 64)
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("KeyedBits not deterministic")
		}
		if a[i] == c[i] {
			same++
		}
	}
	if same > 52 || same < 12 {
		t.Fatalf("different keys agree on %d/64 bits", same)
	}
}

func TestExtractValidation(t *testing.T) {
	victim, ds := victimFixture(t, 16)
	student := victim.Clone()
	if _, err := Extract(ModelBlackBox(victim), student, ds.X, nil); err == nil {
		t.Fatal("missing RNG accepted")
	}
}

// within reports whether a and b have one shape and every element within tol.
func within(a, b *tensor.Tensor, tol float32) bool {
	if !tensor.SameShape(a, b) {
		return false
	}
	for i, v := range a.Data {
		if d := v - b.Data[i]; d > tol || d < -tol {
			return false
		}
	}
	return true
}
