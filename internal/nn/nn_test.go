package nn

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"tinymlops/internal/tensor"
)

// softmaxCE is the loss and gradient Train takes, into a new tensor.
func softmaxCE(logits *tensor.Tensor, labels []int) (float32, *tensor.Tensor) {
	grad := tensor.New(logits.Dim(0), logits.Dim(1))
	return softmaxCrossEntropy(grad, logits, labels), grad
}

// numericalGrad estimates d(loss)/d(param) for one scalar parameter by
// central differences, using a full forward pass each time.
func numericalGrad(net *Network, x *tensor.Tensor, labels []int, p *tensor.Tensor, i int) float64 {
	const eps = 1e-3
	orig := p.Data[i]
	p.Data[i] = orig + eps
	lp, _ := softmaxCE(net.Predict(x), labels)
	p.Data[i] = orig - eps
	lm, _ := softmaxCE(net.Predict(x), labels)
	p.Data[i] = orig
	return (float64(lp) - float64(lm)) / (2 * eps)
}

// checkGradients compares analytic and numeric gradients for a sample of
// parameter entries of each layer.
func checkGradients(t *testing.T, net *Network, x *tensor.Tensor, labels []int, tol float64) {
	t.Helper()
	net.ZeroGrad()
	logits := net.Forward(x)
	_, grad := softmaxCE(logits, labels)
	net.Backward(grad)
	rng := tensor.NewRNG(99)
	for _, p := range net.Params() {
		n := p.Value.Size()
		samples := 6
		if n < samples {
			samples = n
		}
		for s := 0; s < samples; s++ {
			i := rng.Intn(n)
			analytic := float64(p.Grad.Data[i])
			numeric := numericalGrad(net, x, labels, p.Value, i)
			diff := math.Abs(analytic - numeric)
			scale := math.Max(1, math.Max(math.Abs(analytic), math.Abs(numeric)))
			if diff/scale > tol {
				t.Fatalf("gradient mismatch %s[%d]: analytic %g numeric %g", p.Name, i, analytic, numeric)
			}
		}
	}
}

func TestDenseGradient(t *testing.T) {
	rng := tensor.NewRNG(1)
	net := NewNetwork([]int{5}, NewDense(5, 4, rng))
	x := tensor.Randn(rng, 1, 8, 5)
	labels := []int{0, 1, 2, 3, 0, 1, 2, 3}
	checkGradients(t, net, x, labels, 2e-2)
}

func TestMLPGradient(t *testing.T) {
	rng := tensor.NewRNG(2)
	net := NewNetwork([]int{6},
		NewDense(6, 10, rng), NewTanh(),
		NewDense(10, 8, rng), NewSigmoid(),
		NewDense(8, 3, rng))
	x := tensor.Randn(rng, 1, 6, 6)
	labels := []int{0, 1, 2, 0, 1, 2}
	checkGradients(t, net, x, labels, 3e-2)
}

func TestReLUGradient(t *testing.T) {
	rng := tensor.NewRNG(3)
	net := NewNetwork([]int{6}, NewDense(6, 12, rng), NewReLU(), NewDense(12, 3, rng))
	// Offset inputs away from the ReLU kink so central differences are valid.
	x := tensor.Randn(rng, 1, 5, 6).Map(func(v float32) float32 { return v + 0.3 })
	labels := []int{0, 1, 2, 0, 1}
	checkGradients(t, net, x, labels, 3e-2)
}

func TestConvGradient(t *testing.T) {
	rng := tensor.NewRNG(4)
	net := NewNetwork([]int{1, 6, 6},
		NewConv2D(1, 3, 3, 3, 1, 1, rng), NewReLU(),
		NewMaxPool2D(2, 2),
		NewFlatten(),
		NewDense(3*3*3, 2, rng))
	x := tensor.Randn(rng, 1, 4, 1, 6, 6).Map(func(v float32) float32 { return v + 0.2 })
	labels := []int{0, 1, 0, 1}
	checkGradients(t, net, x, labels, 4e-2)
}

func TestBatchNormGradient(t *testing.T) {
	rng := tensor.NewRNG(5)
	bn := NewBatchNorm1D(4)
	net := NewNetwork([]int{4}, NewDense(4, 4, rng), bn, NewDense(4, 2, rng))
	x := tensor.Randn(rng, 1, 6, 4)
	labels := []int{0, 1, 0, 1, 0, 1}
	// Batch norm trains on batch statistics and infers on running ones, so
	// the numeric gradient takes training forward passes too.
	net.ZeroGrad()
	logits := net.Forward(x)
	_, grad := softmaxCE(logits, labels)
	net.Backward(grad)
	// Validate gamma gradient numerically.
	const eps = 1e-3
	for i := 0; i < 4; i++ {
		orig := bn.Gamma.Value.Data[i]
		bn.Gamma.Value.Data[i] = orig + eps
		lp, _ := softmaxCE(net.Forward(x), labels)
		bn.Gamma.Value.Data[i] = orig - eps
		lm, _ := softmaxCE(net.Forward(x), labels)
		bn.Gamma.Value.Data[i] = orig
		numeric := (float64(lp) - float64(lm)) / (2 * eps)
		analytic := float64(bn.Gamma.Grad.Data[i])
		if math.Abs(analytic-numeric) > 3e-2*math.Max(1, math.Abs(numeric)) {
			t.Fatalf("batchnorm gamma[%d] gradient: analytic %g numeric %g", i, analytic, numeric)
		}
	}
}

func TestSoftmaxLayerMatchesSoftmaxRows(t *testing.T) {
	rng := tensor.NewRNG(6)
	x := tensor.Randn(rng, 2, 4, 5)
	sm := NewSoftmax()
	y := NewNetwork([]int{5}, sm).Predict(x)
	want := SoftmaxRows(x)
	if !within(y, want, 1e-6) {
		t.Fatal("Softmax layer disagrees with SoftmaxRows")
	}
	for i := 0; i < 4; i++ {
		var s float32
		for j := 0; j < 5; j++ {
			s += y.At2(i, j)
		}
		if math.Abs(float64(s)-1) > 1e-5 {
			t.Fatalf("softmax row %d sums to %v", i, s)
		}
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	rng := tensor.NewRNG(7)
	d := NewDropout(0.5, rng)
	x := tensor.Ones(1, 1000)
	ytrain := d.Forward(x)
	zeros := 0
	for _, v := range ytrain.Data {
		if v == 0 {
			zeros++
		}
	}
	if zeros < 350 || zeros > 650 {
		t.Fatalf("dropout p=0.5 zeroed %d of 1000", zeros)
	}
	// Survivors are scaled by 2.
	for _, v := range ytrain.Data {
		if v != 0 && v != 2 {
			t.Fatalf("dropout survivor has value %v, want 2", v)
		}
	}
	yeval := NewNetwork([]int{1000}, d).Predict(x)
	if !slices.Equal(yeval.Data, x.Data) {
		t.Fatal("dropout must be the identity at inference")
	}
}

func TestSoftmaxCrossEntropyKnownValue(t *testing.T) {
	logits := tensor.FromSlice([]float32{0, 0}, 1, 2)
	loss, grad := softmaxCE(logits, []int{0})
	want := float32(math.Log(2))
	if math.Abs(float64(loss-want)) > 1e-6 {
		t.Fatalf("loss = %v, want ln2", loss)
	}
	if math.Abs(float64(grad.At2(0, 0)+0.5)) > 1e-6 || math.Abs(float64(grad.At2(0, 1)-0.5)) > 1e-6 {
		t.Fatalf("grad = %v", grad.Data)
	}
}

func TestTrainLearnsLinearlySeparable(t *testing.T) {
	rng := tensor.NewRNG(8)
	// Two Gaussian blobs separated along the first coordinate.
	n := 400
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		cx := float32(-2 + 4*cls)
		x.Set2(i, 0, cx+rng.NormFloat32()*0.5)
		x.Set2(i, 1, rng.NormFloat32()*0.5)
		labels[i] = cls
	}
	net := NewNetwork([]int{2}, NewDense(2, 8, rng), NewReLU(), NewDense(8, 2, rng))
	_, err := Train(net, x, labels, TrainConfig{
		Epochs: 10, BatchSize: 32, Optimizer: NewSGD(0.1).WithMomentum(0.9), RNG: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Evaluate(net, x, labels); acc < 0.98 {
		t.Fatalf("train accuracy %v < 0.98", acc)
	}
}

// TestTrainRejectsOutOfRangeLabel: a label past the logit width is input
// from outside, so Train returns an error naming the example — before any
// step, not as a panic once its batch comes up.
func TestTrainRejectsOutOfRangeLabel(t *testing.T) {
	rng := tensor.NewRNG(10)
	net := NewNetwork([]int{4}, NewDense(4, 3, rng))
	x := tensor.Randn(rng, 1, 64, 4)
	labels := make([]int, 64)
	for i := range labels {
		labels[i] = i % 3
	}
	labels[63] = 3
	before := net.FlatParams()
	_, err := Train(net, x, labels, TrainConfig{BatchSize: 2, Optimizer: NewSGD(0.1), RNG: rng})
	if err == nil || !strings.Contains(err.Error(), "example 63") {
		t.Fatalf("err = %v, want an out-of-range label at example 63", err)
	}
	for i, v := range net.FlatParams() {
		if math.Float32bits(v) != math.Float32bits(before[i]) {
			t.Fatalf("parameter %d moved before the label was refused", i)
		}
	}
}

// TestTrainRejectsWrongExampleWidth: examples the network cannot take are
// input from outside too, so Train returns an error before any step — it
// used to panic in the first layer, and inside an engine task name no
// client.
func TestTrainRejectsWrongExampleWidth(t *testing.T) {
	rng := tensor.NewRNG(10)
	net := NewNetwork([]int{4}, NewDense(4, 2, rng))
	before := net.FlatParams()
	_, err := Train(net, tensor.Randn(rng, 1, 10, 5), make([]int, 10), TrainConfig{Optimizer: NewSGD(0.1), RNG: rng})
	if err == nil || !strings.Contains(err.Error(), "examples shaped [5], the network takes [4]") {
		t.Fatalf("err = %v, want a refusal of 5-wide examples", err)
	}
	for i, v := range net.FlatParams() {
		if math.Float32bits(v) != math.Float32bits(before[i]) {
			t.Fatalf("parameter %d moved before the examples were refused", i)
		}
	}
}

// TestTrainRejectsNoExamples: an empty training set is an error, not the
// integer divide by zero it used to panic with.
func TestTrainRejectsNoExamples(t *testing.T) {
	rng := tensor.NewRNG(10)
	net := NewNetwork([]int{4}, NewDense(4, 2, rng))
	_, err := Train(net, tensor.New(0, 4), nil, TrainConfig{Optimizer: NewSGD(0.1), RNG: rng})
	if err == nil || !strings.Contains(err.Error(), "no examples") {
		t.Fatalf("err = %v, want a refusal of an empty training set", err)
	}
}

func TestSerializationRoundTripPreservesPredictions(t *testing.T) {
	rng := tensor.NewRNG(10)
	net := NewNetwork([]int{1, 8, 8},
		NewConv2D(1, 4, 3, 3, 1, 1, rng), NewReLU(),
		NewMaxPool2D(2, 2), NewFlatten(),
		NewDense(4*4*4, 16, rng), NewBatchNorm1D(16), NewTanh(),
		NewDropout(0.3, rng),
		NewDense(16, 3, rng), NewSoftmax())
	x := tensor.Randn(rng, 1, 5, 1, 8, 8)
	want := net.Predict(x)

	data, err := net.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	net2, err := UnmarshalNetwork(data)
	if err != nil {
		t.Fatal(err)
	}
	got := net2.Predict(x)
	if !within(want, got, 1e-6) {
		t.Fatal("round-tripped network changed predictions")
	}
	if net2.ParamCount() != net.ParamCount() {
		t.Fatalf("param count changed: %d vs %d", net2.ParamCount(), net.ParamCount())
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalNetwork([]byte("garbage stream")); err == nil {
		t.Fatal("UnmarshalNetwork accepted garbage")
	}
}

// TestCloneIsIndependent: for every layer kind, a clone — rebuilt through
// the kind table, not the codec — serializes to the source's bytes, and
// writing every state tensor of the clone leaves the source's bytes as they
// were.
func TestCloneIsIndependent(t *testing.T) {
	for kind, fx := range kindFixtures(tensor.NewRNG(11)) {
		src := marshalOrDie(t, fx.net)
		clone := fx.net.Clone()
		if !bytes.Equal(marshalOrDie(t, clone), src) {
			t.Fatalf("%s: the clone does not serialize to the source's bytes", kind)
		}
		for _, l := range clone.Layers() {
			spec, err := SpecOf(l)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range spec.Tensors {
				for i := range st.Data {
					st.Data[i] += 1
				}
			}
		}
		if !bytes.Equal(marshalOrDie(t, fx.net), src) {
			t.Fatalf("%s: writing the clone's state moved the source", kind)
		}
		if bytes.Equal(marshalOrDie(t, clone), src) {
			t.Fatalf("%s: the clone's state was not written", kind)
		}
	}
}

func TestFlatParamsRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(12)
	net := NewNetwork([]int{4}, NewDense(4, 8, rng), NewReLU(), NewDense(8, 2, rng))
	v := net.FlatParams()
	if len(v) != net.ParamCount() {
		t.Fatalf("FlatParams length %d, want %d", len(v), net.ParamCount())
	}
	for i := range v {
		v[i] = float32(i)
	}
	if err := net.SetFlatParams(v); err != nil {
		t.Fatal(err)
	}
	got := net.FlatParams()
	for i := range got {
		if got[i] != float32(i) {
			t.Fatalf("FlatParams[%d] = %v after SetFlatParams", i, got[i])
		}
	}
	if err := net.SetFlatParams(v[:3]); err == nil {
		t.Fatal("SetFlatParams accepted wrong length")
	}
}

func TestSummaryAndMACs(t *testing.T) {
	rng := tensor.NewRNG(13)
	net := NewNetwork([]int{1, 8, 8},
		NewConv2D(1, 2, 3, 3, 1, 1, rng), // out [2,8,8], MACs = 2*8*8*9 = 1152
		NewMaxPool2D(2, 2),               // out [2,4,4]
		NewFlatten(),                     // out [32]
		NewDense(32, 10, rng))            // MACs 320
	cs, err := net.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 4 {
		t.Fatalf("summary has %d entries", len(cs))
	}
	if cs[0].Info.MACs != 1152 {
		t.Fatalf("conv MACs = %d, want 1152", cs[0].Info.MACs)
	}
	if got := cs[2].Info.OutShape[0]; got != 32 {
		t.Fatalf("flatten out = %d, want 32", got)
	}
	if total := net.TotalMACs(); total != 1152+320 {
		t.Fatalf("TotalMACs = %d", total)
	}
	if outShape := net.OutputShape(); len(outShape) != 1 || outShape[0] != 10 {
		t.Fatalf("OutputShape = %v", outShape)
	}
}

// panicMessage runs f and returns what it panicked with ("<nil>": nothing).
func panicMessage(f func()) (msg string) {
	defer func() { msg = fmt.Sprint(recover()) }()
	f()
	return
}

// TestSummaryReportsShapeErrors: shapes are inferred when a network is made,
// so a layer list that does not chain is refused there — an error from
// Assemble, a panic naming the layer from NewNetwork — and never reaches
// Summary.
func TestSummaryReportsShapeErrors(t *testing.T) {
	rng := tensor.NewRNG(14)
	if _, err := Assemble([]int{5}, []Layer{NewDense(4, 2, rng)}); err == nil {
		t.Fatal("Assemble accepted mismatched shapes")
	}
	msg := panicMessage(func() { NewNetwork([]int{5}, NewDense(4, 2, rng)) })
	if !strings.Contains(msg, "layer 0 (dense): nn: dense expects input shape [4], got [5]") {
		t.Fatalf("NewNetwork over mismatched shapes: %s", msg)
	}
}

// TestSoftmaxRefusesRankOtherThanOne: Softmax normalizes Dim(0) rows of
// Dim(1) values, so over a [n, c, h, w] batch it would leave all but c of
// each example's values stale. A per-example shape of rank 2 is refused
// when the network is made.
func TestSoftmaxRefusesRankOtherThanOne(t *testing.T) {
	if _, err := Assemble([]int{2, 2}, []Layer{NewSoftmax()}); err == nil {
		t.Fatal("Assemble accepted Softmax over a per-example shape of rank 2")
	}
}

// TestSummaryRejectsWindowLargerThanMap: (h−k)/stride+1 truncates toward
// zero, so at stride 2 a 3×3 window over a 2×2 map used to count as one
// output — Summary, MarshalBinary and UnmarshalNetwork passed, and
// ForwardBatch indexed past the map (pool) or convolved one partial window
// (conv). Such a network cannot be made now: NewNetwork panics with
// tensor.Window.Check's refusal. Padding that makes the kernel fit is still
// accepted.
func TestSummaryRejectsWindowLargerThanMap(t *testing.T) {
	rng := tensor.NewRNG(14)
	for name, build := range map[string]func(){
		"maxpool2d": func() { NewNetwork([]int{1, 2, 2}, NewMaxPool2D(3, 2), NewFlatten()) },
		"conv2d":    func() { NewNetwork([]int{1, 2, 2}, NewConv2D(1, 1, 3, 3, 2, 0, rng), NewFlatten()) },
		"conv2d-w":  func() { NewNetwork([]int{1, 4, 2}, NewConv2D(1, 1, 3, 3, 2, 0, rng), NewFlatten()) },
	} {
		if msg := panicMessage(build); !strings.Contains(msg, "does not fit") {
			t.Errorf("%s: NewNetwork over a window larger than its map: %s", name, msg)
		}
	}
	padded := NewNetwork([]int{1, 2, 2}, NewConv2D(1, 1, 3, 3, 2, 1, rng), NewFlatten())
	if cs, _ := padded.Summary(); cs[1].Info.OutShape[0] != 1 {
		t.Fatalf("3×3 kernel over a 2×2 map padded to 4×4: plan %v", cs)
	}
	if out := padded.ForwardBatch(tensor.New(1, 1, 2, 2), nil); out.Size() != 1 {
		t.Fatalf("padded convolution produced %v", out.Shape())
	}
}

func TestOpKinds(t *testing.T) {
	rng := tensor.NewRNG(15)
	net := NewNetwork([]int{4}, NewDense(4, 4, rng), NewReLU(), NewDense(4, 2, rng))
	kinds := net.OpKinds()
	if len(kinds) != 2 || kinds[0] != "dense" || kinds[1] != "relu" {
		t.Fatalf("OpKinds = %v", kinds)
	}
}

func TestBatchNormRunningStatsConverge(t *testing.T) {
	rng := tensor.NewRNG(18)
	bn := NewBatchNorm1D(1)
	// Feed batches with mean 3, std 2.
	for i := 0; i < 200; i++ {
		x := tensor.Randn(rng, 2, 64, 1).Map(func(v float32) float32 { return v + 3 })
		bn.Forward(x)
	}
	if math.Abs(float64(bn.RunMean.Data[0])-3) > 0.3 {
		t.Fatalf("running mean = %v, want ≈3", bn.RunMean.Data[0])
	}
	if math.Abs(float64(bn.RunVar.Data[0])-4) > 0.8 {
		t.Fatalf("running var = %v, want ≈4", bn.RunVar.Data[0])
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
