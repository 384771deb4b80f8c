package compat

import (
	"strings"
	"testing"

	"tinymlops/internal/device"
	"tinymlops/internal/nn"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/tensor"
)

func register(t *testing.T, reg *registry.Registry, name string, net *nn.Network, scheme quant.Scheme) *registry.ModelVersion {
	t.Helper()
	var v *registry.ModelVersion
	var err error
	if scheme == quant.Float32 {
		v, err = reg.RegisterModel(name, net, 0.9)
	} else {
		base, berr := reg.RegisterModel(name, net, 0.9)
		if berr != nil {
			t.Fatal(berr)
		}
		q, qerr := quant.FakeQuantizeNetwork(net, scheme)
		if qerr != nil {
			t.Fatal(qerr)
		}
		v, err = reg.RegisterVariant(base.ID, q, scheme, 0.88)
	}
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestCheckMissingOps(t *testing.T) {
	rng := tensor.NewRNG(1)
	reg := registry.New()
	conv := nn.NewNetwork([]int{1, 8, 8},
		nn.NewConv2D(1, 2, 3, 3, 1, 1, rng), nn.NewReLU(),
		nn.NewFlatten(), nn.NewDense(128, 2, rng))
	v := register(t, reg, "convnet", conv, quant.Float32)
	m0, _ := device.ProfileByName("m0-sensor")
	rep := Check(v, m0)
	if rep.Deployable {
		t.Fatal("conv model deployable on m0")
	}
	if len(rep.MissingOps) == 0 || rep.MissingOps[0] != "conv2d" {
		t.Fatalf("missing ops = %v", rep.MissingOps)
	}
	if !strings.HasPrefix(rep.Summary(), "missing:") {
		t.Fatalf("summary = %q", rep.Summary())
	}
	m7, _ := device.ProfileByName("m7-camera")
	rep7 := Check(v, m7)
	if !rep7.Deployable || rep7.Summary() != "emu-bits" && rep7.Summary() != "native" {
		t.Fatalf("m7 report = %+v (%s)", rep7, rep7.Summary())
	}
}

func TestCheckEmulatedBits(t *testing.T) {
	rng := tensor.NewRNG(2)
	reg := registry.New()
	mlp := nn.NewNetwork([]int{8}, nn.NewDense(8, 8, rng), nn.NewReLU(), nn.NewDense(8, 2, rng))
	vTern := register(t, reg, "mlp", mlp, quant.Ternary)
	m4, _ := device.ProfileByName("m4-wearable")
	rep := Check(vTern, m4)
	if !rep.Deployable {
		t.Fatalf("ternary MLP should deploy on m4: %+v", rep)
	}
	if !rep.EmulatedBits || rep.Summary() != "emu-bits" {
		t.Fatalf("ternary on m4 should flag bit emulation: %+v", rep)
	}
	gw, _ := device.ProfileByName("edge-gateway")
	if rep := Check(vTern, gw); rep.EmulatedBits {
		t.Fatal("edge gateway supports 2-bit natively")
	}
}

func TestCheckFlashFit(t *testing.T) {
	rng := tensor.NewRNG(3)
	reg := registry.New()
	big := nn.NewNetwork([]int{256},
		nn.NewDense(256, 1024, rng), nn.NewReLU(), nn.NewDense(1024, 10, rng))
	v := register(t, reg, "big", big, quant.Float32)
	m0, _ := device.ProfileByName("m0-sensor")
	rep := Check(v, m0)
	if rep.FitsFlash || rep.Summary() != "no-fit" {
		t.Fatalf("1MB+ model reported as fitting 256KB flash: %+v", rep)
	}
}

func TestMatrixAndCoverage(t *testing.T) {
	rng := tensor.NewRNG(4)
	reg := registry.New()
	mlp := nn.NewNetwork([]int{8}, nn.NewDense(8, 16, rng), nn.NewReLU(), nn.NewDense(16, 2, rng))
	conv := nn.NewNetwork([]int{1, 8, 8},
		nn.NewConv2D(1, 2, 3, 3, 1, 1, rng), nn.NewReLU(),
		nn.NewFlatten(), nn.NewDense(128, 2, rng))
	models := []*registry.ModelVersion{
		register(t, reg, "mlp", mlp, quant.Float32),
		register(t, reg, "conv", conv, quant.Float32),
	}
	targets := device.StandardProfiles()
	m := Matrix(models, targets)
	if len(m) != 2 || len(m[0]) != len(targets) {
		t.Fatalf("matrix shape %dx%d", len(m), len(m[0]))
	}
	cov := Coverage(m)
	if cov <= 0 || cov >= 1 {
		t.Fatalf("coverage = %v, want strictly between 0 and 1 (sparse matrix)", cov)
	}
}

func TestDropDropoutPass(t *testing.T) {
	rng := tensor.NewRNG(5)
	net := nn.NewNetwork([]int{4},
		nn.NewDense(4, 8, rng), nn.NewReLU(), nn.NewDropout(0.5, rng), nn.NewDense(8, 2, rng))
	caps, _ := device.ProfileByName("edge-gateway")
	res, err := Lower(net, caps)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Network.Layers() {
		if l.Kind() == "dropout" {
			t.Fatal("dropout survived lowering")
		}
	}
	x := tensor.Randn(rng, 1, 5, 4)
	if err := VerifyLowering(net, res.Network, x, 1e-6); err != nil {
		t.Fatal(err)
	}
	if len(res.Passes) == 0 || !strings.Contains(res.Passes[0], "drop-dropout") {
		t.Fatalf("passes = %v", res.Passes)
	}
}

func TestFoldBatchNormExactness(t *testing.T) {
	rng := tensor.NewRNG(6)
	bn := nn.NewBatchNorm1D(8)
	net := nn.NewNetwork([]int{4},
		nn.NewDense(4, 8, rng), bn, nn.NewTanh(), nn.NewDense(8, 2, rng))
	// Train a little so running stats and affine params are non-trivial.
	x := tensor.Randn(rng, 1, 64, 4).Map(func(v float32) float32 { return v + 0.5 })
	labels := make([]int, 64)
	for i := range labels {
		if x.At2(i, 0) > 0.5 {
			labels[i] = 1
		}
	}
	if _, err := nn.Train(net, x, labels, nn.TrainConfig{
		Epochs: 3, BatchSize: 16, Optimizer: nn.NewSGD(0.05), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	lowered := net.Clone()
	n, err := FoldBatchNorm(lowered)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("folded %d layers, want 1", n)
	}
	for _, l := range lowered.Layers() {
		if l.Kind() == "batchnorm1d" {
			t.Fatal("batchnorm survived folding")
		}
	}
	probes := tensor.Randn(rng, 1, 16, 4)
	if err := VerifyLowering(net, lowered, probes, 1e-4); err != nil {
		t.Fatal(err)
	}
}

func TestFoldBatchNormRejectsBadPositions(t *testing.T) {
	rng := tensor.NewRNG(7)
	// BN as first layer: nothing to fold into.
	net := nn.NewNetwork([]int{4}, nn.NewBatchNorm1D(4), nn.NewDense(4, 2, rng))
	if _, err := FoldBatchNorm(net); err == nil {
		t.Fatal("folded BN with no preceding dense")
	}
	// BN after ReLU: unsound fold.
	net2 := nn.NewNetwork([]int{4}, nn.NewDense(4, 4, rng), nn.NewReLU(), nn.NewBatchNorm1D(4))
	if _, err := FoldBatchNorm(net2); err == nil {
		t.Fatal("folded BN through a nonlinearity")
	}
}

func TestLowerFailsOnUnsupportedOp(t *testing.T) {
	rng := tensor.NewRNG(8)
	conv := nn.NewNetwork([]int{1, 8, 8},
		nn.NewConv2D(1, 2, 3, 3, 1, 1, rng), nn.NewFlatten(), nn.NewDense(128, 2, rng))
	m0, _ := device.ProfileByName("m0-sensor")
	if _, err := Lower(conv, m0); err == nil || !strings.Contains(err.Error(), "conv2d") {
		t.Fatalf("Lower error = %v", err)
	}
}

func TestLowerFoldsBatchNormOnlyWhenTargetLacksIt(t *testing.T) {
	rng := tensor.NewRNG(9)
	build := func() *nn.Network {
		return nn.NewNetwork([]int{4},
			nn.NewDense(4, 8, rng), nn.NewBatchNorm1D(8), nn.NewDense(8, 2, rng))
	}
	npu, _ := device.ProfileByName("npu-board") // no batchnorm kernel
	res, err := Lower(build(), npu)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Network.Layers() {
		if l.Kind() == "batchnorm1d" {
			t.Fatal("batchnorm survived lowering for npu")
		}
	}
	phone, _ := device.ProfileByName("phone") // has batchnorm kernel
	res2, err := Lower(build(), phone)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range res2.Network.Layers() {
		if l.Kind() == "batchnorm1d" {
			found = true
		}
	}
	if !found {
		t.Fatal("batchnorm folded although the phone supports it")
	}
}

func TestExchangeRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(10)
	net := nn.NewNetwork([]int{1, 8, 8},
		nn.NewConv2D(1, 3, 3, 3, 1, 1, rng), nn.NewReLU(),
		nn.NewMaxPool2D(2, 2), nn.NewFlatten(),
		nn.NewDense(48, 16, rng), nn.NewBatchNorm1D(16), nn.NewTanh(),
		nn.NewDense(16, 4, rng), nn.NewSoftmax())
	doc, err := Export(net)
	if err != nil {
		t.Fatal(err)
	}
	data, err := doc.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	imported, err := Import(doc2)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 3, 1, 8, 8)
	if !within(net.Predict(x), imported.Predict(x), 1e-5) {
		t.Fatal("imported model predicts differently")
	}
}

func TestImportRejectsUnknownOpAndFutureVersion(t *testing.T) {
	doc := &GraphDoc{FormatVersion: ExchangeVersion, InputShape: []int{4},
		Nodes: []Node{{Op: "attention"}}}
	if _, err := Import(doc); err == nil || !strings.Contains(err.Error(), "attention") {
		t.Fatalf("unknown op error = %v", err)
	}
	doc2 := &GraphDoc{FormatVersion: ExchangeVersion + 1, InputShape: []int{4}}
	if _, err := Import(doc2); err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("future version error = %v", err)
	}
	doc3 := &GraphDoc{FormatVersion: 0}
	if _, err := Import(doc3); err == nil {
		t.Fatal("accepted version 0")
	}
}

func TestImportRejectsCorruptTensors(t *testing.T) {
	rng := tensor.NewRNG(11)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 2, rng))
	doc, _ := Export(net)
	// Corrupt: claim a different shape.
	td := doc.Nodes[0].Tensors["weight"]
	td.Shape = []int{3, 2}
	doc.Nodes[0].Tensors["weight"] = td
	if _, err := Import(doc); err == nil {
		t.Fatal("accepted corrupt tensor shape")
	}
	if _, err := DecodeJSON([]byte("{broken")); err == nil {
		t.Fatal("accepted broken JSON")
	}
}

func TestImportRejectsShapeInferenceFailure(t *testing.T) {
	rng := tensor.NewRNG(12)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 2, rng))
	doc, _ := Export(net)
	doc.InputShape = []int{7} // inconsistent with dense(4→2)
	if _, err := Import(doc); err == nil {
		t.Fatal("accepted inconsistent graph")
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
