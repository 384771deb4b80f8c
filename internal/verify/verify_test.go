package verify

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"tinymlops/internal/nn"
	"tinymlops/internal/quant"
	"tinymlops/internal/tensor"
)

func TestFieldAxiomsProperty(t *testing.T) {
	f := func(x, y, z uint64) bool {
		a, b, c := reduce(x), reduce(y), reduce(z)
		// Commutativity and associativity.
		if Add(a, b) != Add(b, a) || Mul(a, b) != Mul(b, a) {
			return false
		}
		if Add(Add(a, b), c) != Add(a, Add(b, c)) {
			return false
		}
		if Mul(Mul(a, b), c) != Mul(a, Mul(b, c)) {
			return false
		}
		// Distributivity.
		if Mul(a, Add(b, c)) != Add(Mul(a, b), Mul(a, c)) {
			return false
		}
		// Additive inverse.
		if Add(a, Neg(a)) != 0 {
			return false
		}
		// Sub is Add of Neg.
		if Sub(a, b) != Add(a, Neg(b)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFieldInverse(t *testing.T) {
	rng := tensor.NewRNG(1)
	for i := 0; i < 100; i++ {
		a := reduce(rng.Uint64())
		if a == 0 {
			continue
		}
		if Mul(a, Inv(a)) != 1 {
			t.Fatalf("a·a⁻¹ ≠ 1 for %v", a)
		}
	}
	if Inv(0) != 0 {
		t.Fatal("Inv(0) should be 0 by convention")
	}
	if Mul(2, inv2) != 1 {
		t.Fatal("inv2 is wrong")
	}
}

func TestSignedEncoding(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 127, -127, 1 << 40, -(1 << 40)} {
		if FromInt64(v).Int64() != v {
			t.Fatalf("round trip failed for %d", v)
		}
	}
	// Arithmetic on encoded negatives.
	a, b := FromInt64(-5), FromInt64(3)
	if Add(a, b).Int64() != -2 {
		t.Fatalf("-5+3 = %d", Add(a, b).Int64())
	}
	if Mul(a, b).Int64() != -15 {
		t.Fatalf("-5·3 = %d", Mul(a, b).Int64())
	}
}

func TestMulMatchesBigReduction(t *testing.T) {
	// Cross-check Mul against a slow double-and-add implementation.
	slowMul := func(a, b Elem) Elem {
		var acc Elem
		x := a
		for e := uint64(b); e > 0; e >>= 1 {
			if e&1 == 1 {
				acc = Add(acc, x)
			}
			x = Add(x, x)
		}
		return acc
	}
	rng := tensor.NewRNG(2)
	for i := 0; i < 50; i++ {
		a, b := reduce(rng.Uint64()), reduce(rng.Uint64()%100000)
		if Mul(a, b) != slowMul(a, b) {
			t.Fatalf("Mul mismatch for %v·%v", a, b)
		}
	}
}

func TestMLEAgreesOnHypercube(t *testing.T) {
	// The MLE evaluated at boolean points must reproduce the table.
	rng := tensor.NewRNG(3)
	m, k := 4, 8
	a := make([]int32, m*k)
	for i := range a {
		a[i] = int32(rng.Intn(255)) - 127
	}
	af, mp, kp := padMatrix(a, m, k)
	for i := 0; i < m; i++ {
		for j := 0; j < k; j++ {
			r := boolPoint(i, log2(mp))
			c := boolPoint(j, log2(kp))
			got := fold(slices.Clone(af), append(r, c...)...)[0]
			if got.Int64() != int64(a[i*k+j]) {
				t.Fatalf("MLE(%d,%d) = %d, want %d", i, j, got.Int64(), a[i*k+j])
			}
		}
	}
}

// boolPoint encodes index i as a boolean point with the MSB-first variable
// order fold consumes challenges in.
func boolPoint(i, vars int) []Elem {
	out := make([]Elem, vars)
	for b := 0; b < vars; b++ {
		if i&(1<<(vars-1-b)) != 0 {
			out[b] = 1
		}
	}
	return out
}

func randMat(rng *tensor.RNG, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(rng.Intn(255)) - 127
	}
	return out
}

func naiveMatMul(a []int32, m, k int, b []int32, n int) []int64 {
	out := make([]int64, m*n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := int64(a[i*k+p])
			for j := 0; j < n; j++ {
				out[i*n+j] += av * int64(b[p*n+j])
			}
		}
	}
	return out
}

func TestProveMatMulCorrectResult(t *testing.T) {
	rng := tensor.NewRNG(4)
	m, k, n := 5, 12, 7 // deliberately non-powers of two
	a, b := randMat(rng, m*k), randMat(rng, k*n)
	c, proof, stats, err := ProveMatMul(a, m, k, b, n)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveMatMul(a, m, k, b, n)
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("product wrong at %d: %d vs %d", i, c[i], want[i])
		}
	}
	if stats.ProofBytes != proof.SizeBytes() || proof.SizeBytes() == 0 {
		t.Fatalf("proof size accounting: %d vs %d", stats.ProofBytes, proof.SizeBytes())
	}
}

func TestVerifyMatMulAcceptsHonestProof(t *testing.T) {
	rng := tensor.NewRNG(5)
	for _, dims := range [][3]int{{1, 8, 4}, {16, 16, 16}, {3, 33, 9}, {64, 64, 32}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randMat(rng, m*k), randMat(rng, k*n)
		c, proof, _, err := ProveMatMul(a, m, k, b, n)
		if err != nil {
			t.Fatal(err)
		}
		ok, _, err := VerifyMatMul(a, m, k, b, n, c, proof)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("honest proof rejected for %v", dims)
		}
	}
}

func TestVerifyMatMulRejectsForgedResult(t *testing.T) {
	rng := tensor.NewRNG(6)
	m, k, n := 8, 16, 8
	a, b := randMat(rng, m*k), randMat(rng, k*n)
	c, proof, _, err := ProveMatMul(a, m, k, b, n)
	if err != nil {
		t.Fatal(err)
	}
	// A malicious device changes one output (e.g. to flip a decision).
	c[3]++
	ok, _, err := VerifyMatMul(a, m, k, b, n, c, proof)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("forged result accepted")
	}
}

func TestVerifyMatMulRejectsForgedProof(t *testing.T) {
	rng := tensor.NewRNG(7)
	m, k, n := 8, 16, 8
	a, b := randMat(rng, m*k), randMat(rng, k*n)
	c, proof, _, err := ProveMatMul(a, m, k, b, n)
	if err != nil {
		t.Fatal(err)
	}
	proof.Rounds[1][0] = Add(proof.Rounds[1][0], 1)
	ok, _, err := VerifyMatMul(a, m, k, b, n, c, proof)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("tampered proof accepted")
	}
}

func TestVerifierIsCheaperThanReexecutionOnBatches(t *testing.T) {
	rng := tensor.NewRNG(8)
	m, k, n := 64, 64, 32
	a, b := randMat(rng, m*k), randMat(rng, k*n)
	c, proof, _, err := ProveMatMul(a, m, k, b, n)
	if err != nil {
		t.Fatal(err)
	}
	ok, stats, err := VerifyMatMul(a, m, k, b, n, c, proof)
	if err != nil || !ok {
		t.Fatalf("verify: %v %v", ok, err)
	}
	if stats.VerifierMuls*4 > stats.DirectMuls {
		t.Fatalf("verifier (%d muls) not ≪ direct (%d muls)", stats.VerifierMuls, stats.DirectMuls)
	}
	if proof.SizeBytes() > 1024 {
		t.Fatalf("proof is %d bytes; should be well under a KB", proof.SizeBytes())
	}
}

func TestFreivalds(t *testing.T) {
	rng := tensor.NewRNG(9)
	m, k, n := 10, 20, 15
	a, b := randMat(rng, m*k), randMat(rng, k*n)
	c := naiveMatMul(a, m, k, b, n)
	ok, err := freivaldsCheck(a, m, k, b, n, c, 2, 42)
	if err != nil || !ok {
		t.Fatalf("Freivalds rejected a correct product: %v %v", ok, err)
	}
	c[7] += 3
	ok, err = freivaldsCheck(a, m, k, b, n, c, 2, 42)
	if err != nil || ok {
		t.Fatalf("Freivalds accepted a corrupted product: %v %v", ok, err)
	}
}

// Property: sum-check accepts honest proofs and rejects single-entry
// corruptions across random shapes.
func TestSumCheckSoundnessProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(16), 1+rng.Intn(8)
		a, b := randMat(rng, m*k), randMat(rng, k*n)
		c, proof, _, err := ProveMatMul(a, m, k, b, n)
		if err != nil {
			return false
		}
		ok, _, err := VerifyMatMul(a, m, k, b, n, c, proof)
		if err != nil || !ok {
			return false
		}
		// Corrupt one entry.
		c[rng.Intn(len(c))] += int64(1 + rng.Intn(100))
		ok, _, err = VerifyMatMul(a, m, k, b, n, c, proof)
		if err != nil {
			return false
		}
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func verifiableNet(t *testing.T, seed uint64) (*nn.Network, *tensor.Tensor) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	net := nn.NewNetwork([]int{16},
		nn.NewDense(16, 24, rng), nn.NewReLU(),
		nn.NewDense(24, 4, rng))
	x := tensor.Randn(rng, 1, 8, 16)
	return net, x
}

func TestInferenceProofRoundTrip(t *testing.T) {
	net, x := verifiableNet(t, 10)
	ip, err := ProveInference(net, x)
	if err != nil {
		t.Fatal(err)
	}
	if len(ip.Layers) != 2 {
		t.Fatalf("proof covers %d layers", len(ip.Layers))
	}
	ok, stats, err := VerifyInference(net, x, ip)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("honest inference proof rejected")
	}
	if stats.VerifierMuls == 0 {
		t.Fatal("verifier cost not accounted")
	}
	// The verified logits agree with the float model's argmax mostly
	// (int8 quantization noise only).
	want := net.Predict(x).ArgMaxRows()
	got := ip.Output.ArgMaxRows()
	agree := 0
	for i := range got {
		if got[i] == want[i] {
			agree++
		}
	}
	if agree < 6 {
		t.Fatalf("quantized verifiable inference agrees on %d/8", agree)
	}
}

func TestInferenceProofDetectsTamperedOutput(t *testing.T) {
	net, x := verifiableNet(t, 11)
	ip, err := ProveInference(net, x)
	if err != nil {
		t.Fatal(err)
	}
	// Malicious device reports a different classification (§VI's payment
	// scenario: pretend the face matched).
	ip.Output.Data[0] += 5
	ok, _, err := VerifyInference(net, x, ip)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("tampered logits accepted")
	}
}

func TestInferenceProofDetectsTamperedAccumulator(t *testing.T) {
	net, x := verifiableNet(t, 12)
	ip, err := ProveInference(net, x)
	if err != nil {
		t.Fatal(err)
	}
	ip.Layers[0].Claimed[0] += 1000
	ok, _, err := VerifyInference(net, x, ip)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("tampered accumulator accepted")
	}
}

func TestInferenceProofWrongModelRejected(t *testing.T) {
	net, x := verifiableNet(t, 13)
	ip, err := ProveInference(net, x)
	if err != nil {
		t.Fatal(err)
	}
	other, _ := verifiableNet(t, 14)
	ok, _, err := VerifyInference(other, x, ip)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("proof from a different model accepted")
	}
}

func TestInferenceProofLayerCountMismatch(t *testing.T) {
	net, x := verifiableNet(t, 15)
	ip, err := ProveInference(net, x)
	if err != nil {
		t.Fatal(err)
	}
	ip.Layers = ip.Layers[:1]
	if _, _, err := VerifyInference(net, x, ip); err == nil {
		t.Fatal("layer-count mismatch accepted")
	}
}

func TestInferenceProofSizeModest(t *testing.T) {
	net, x := verifiableNet(t, 16)
	ip, err := ProveInference(net, x)
	if err != nil {
		t.Fatal(err)
	}
	// Claimed accumulators dominate; everything must stay a few KB for
	// this model scale.
	if ip.SizeBytes() > 4096 {
		t.Fatalf("inference evidence is %d bytes", ip.SizeBytes())
	}
}

// TestQuantizeWeightsNonFinite: the proved layer's weights quantize by
// quant.QuantizeBlock's rule, non-finite weights included, so no weight
// reaches int32(NaN), whose value Go leaves to the architecture (−2³¹ on
// amd64). A NaN weight would, and so would ±Inf under the infinite scale
// its magnitude gives, which also sends every finite weight beside it to 0.
func TestQuantizeWeightsNonFinite(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, data := range [][]float32{
		{0.5, nan, -1.25, 3, 0, -0.75},
		{inf, 2, -inf, 0.5, -3, 1},
		{nan, -inf, 0, 7, inf, -7},
		{0.25, -1, 2.5, 0, 1e-3, -2.5}, // finite: the codes every proof already used
	} {
		want := make([]int8, len(data))
		wantScale := quant.QuantizeBlock(data, want)
		got, scale := QuantizeWeights(tensor.FromSlice(append([]float32(nil), data...), 2, 3))
		if math.Float32bits(scale) != math.Float32bits(wantScale) {
			t.Errorf("%v: scale %v, QuantizeBlock's %v", data, scale, wantScale)
		}
		for i, c := range want {
			if got[i] != int32(c) {
				t.Errorf("%v: weight %d quantizes to %d, QuantizeBlock's code is %d", data, i, got[i], c)
			}
		}
	}
}
