package registry

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"tinymlops/internal/dataset"
	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/quant"
	"tinymlops/internal/tensor"
)

func newTestNet(seed uint64) *nn.Network {
	rng := tensor.NewRNG(seed)
	return nn.NewNetwork([]int{4}, nn.NewDense(4, 8, rng), nn.NewReLU(), nn.NewDense(8, 3, rng))
}

func TestRegisterAndLoadRoundTrip(t *testing.T) {
	r := New()
	net := newTestNet(1)
	v, err := r.RegisterModel("demo", net, 0.93)
	if err != nil {
		t.Fatal(err)
	}
	if v.Name != "demo" || v.ParentID != "" || v.Scheme != quant.Float32 {
		t.Fatalf("version = %+v", v)
	}
	if v.Metrics.Accuracy != 0.93 || v.Metrics.MACs == 0 || v.Metrics.SizeBytes == 0 {
		t.Fatalf("metrics = %+v", v.Metrics)
	}
	loaded, err := r.Load(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(tensor.NewRNG(2), 1, 3, 4)
	if !within(net.Predict(x), loaded.Predict(x), 1e-6) {
		t.Fatal("loaded model predicts differently")
	}
}

func TestContentAddressingDeduplicates(t *testing.T) {
	r := New()
	net := newTestNet(1)
	v1, _ := r.RegisterModel("demo", net, 0.9)
	stored := r.Stats().BlobBytes
	v2, _ := r.RegisterModel("demo", net, 0.9)
	if v1.ID != v2.ID || v1 != v2 {
		t.Fatal("identical artifacts got different versions")
	}
	if got := r.Stats().BlobBytes; got != stored {
		t.Fatalf("registry holds %d blob bytes after a duplicate, want %d", got, stored)
	}
}

func TestVariantLineage(t *testing.T) {
	r := New()
	base := newTestNet(3)
	bv, _ := r.RegisterModel("kw", base, 0.95)
	q8, _ := quant.FakeQuantizeNetwork(base, quant.Int8)
	v8, err := r.RegisterVariant(bv.ID, q8, quant.Int8, 0.94)
	if err != nil {
		t.Fatal(err)
	}
	q1, _ := quant.FakeQuantizeNetwork(base, quant.Binary)
	v1, _ := r.RegisterVariant(bv.ID, q1, quant.Binary, 0.80)

	kids := r.Variants(bv.ID)
	if len(kids) != 2 || kids[0].ID != v8.ID || kids[1].ID != v1.ID {
		t.Fatalf("variants = %v", kids)
	}
	if v8.ParentID != bv.ID || v1.ParentID != bv.ID {
		t.Fatalf("variants do not name their base: %q, %q", v8.ParentID, v1.ParentID)
	}
	// int8 variant must be smaller than the base.
	if v8.Metrics.SizeBytes >= bv.Metrics.SizeBytes {
		t.Fatalf("int8 size %d not smaller than base %d", v8.Metrics.SizeBytes, bv.Metrics.SizeBytes)
	}
	if v1.Metrics.SizeBytes >= v8.Metrics.SizeBytes {
		t.Fatalf("binary size %d not smaller than int8 %d", v1.Metrics.SizeBytes, v8.Metrics.SizeBytes)
	}
}

func TestRegisterVariantUnknownParent(t *testing.T) {
	r := New()
	if _, err := r.RegisterVariant("nope", newTestNet(4), quant.Int8, 0.5); err == nil {
		t.Fatal("accepted unknown parent")
	}
}

func TestLatestSkipsVariants(t *testing.T) {
	r := New()
	n1 := newTestNet(5)
	v1, _ := r.RegisterModel("m", n1, 0.9)
	q, _ := quant.FakeQuantizeNetwork(n1, quant.Int8)
	r.RegisterVariant(v1.ID, q, quant.Int8, 0.88) //nolint:errcheck
	n2 := newTestNet(6)
	v2, _ := r.RegisterModel("m", n2, 0.92)
	latest, err := r.Latest("m")
	if err != nil {
		t.Fatal(err)
	}
	if latest.ID != v2.ID {
		t.Fatalf("Latest = %s, want %s", latest.ID, v2.ID)
	}
	if _, err := r.Latest("missing"); err == nil {
		t.Fatal("Latest of unknown line should error")
	}
}

func TestRegisterWithVariantsGeneratesMatrix(t *testing.T) {
	rng := tensor.NewRNG(7)
	ds := dataset.Blobs(rng, 400, 4, 3, 5)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 16, rng), nn.NewReLU(), nn.NewDense(16, 3, rng))
	if _, err := nn.Train(net, ds.X, ds.Y, nn.TrainConfig{
		Epochs: 8, BatchSize: 32, Optimizer: nn.NewSGD(0.1).WithMomentum(0.9), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	r := New()
	eval := func(n *nn.Network) float64 { return nn.Evaluate(n, ds.X, ds.Y) }
	spec := OptimizationSpec{
		Schemes:  []quant.Scheme{quant.Int8, quant.Binary},
		Evaluate: eval,
	}
	versions, err := r.RegisterWithVariants("blob-clf", net, eval(net), spec)
	if err != nil {
		t.Fatal(err)
	}
	// base + 2 schemes = 3
	if len(versions) != 3 {
		t.Fatalf("got %d versions, want 3", len(versions))
	}
	base := versions[0]
	if len(r.Variants(base.ID)) != 2 {
		t.Fatalf("base has %d variants", len(r.Variants(base.ID)))
	}
	// Every variant carries an accuracy measurement and the int8 variant
	// should be close to the base.
	for _, v := range versions[1:] {
		if v.Metrics.Accuracy <= 0 {
			t.Fatalf("variant %s has no accuracy", v.ID)
		}
		if v.ParentID != base.ID {
			t.Fatalf("variant %s has parent %s", v.ID, v.ParentID)
		}
	}
	if versions[1].Scheme != quant.Int8 || versions[1].Metrics.Accuracy < versions[0].Metrics.Accuracy-0.05 {
		t.Fatalf("int8 variant degraded too much: %+v", versions[1].Metrics)
	}
}

func TestRegisterWithVariantsRequiresEvaluate(t *testing.T) {
	r := New()
	if _, err := r.RegisterWithVariants("x", newTestNet(8), 0.9, OptimizationSpec{
		Schemes: []quant.Scheme{quant.Int8},
	}); err == nil {
		t.Fatal("missing Evaluate accepted")
	}
}

func TestTags(t *testing.T) {
	r := New()
	v, _ := r.RegisterModel("m", newTestNet(10), 0.9)
	if err := r.SetTag(v.ID, "watermark-owner", "customer-42"); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Get(v.ID)
	if got.Tags["watermark-owner"] != "customer-42" {
		t.Fatalf("tags = %v", got.Tags)
	}
	if err := r.SetTag("nope", "k", "v"); err == nil {
		t.Fatal("tagged unknown version")
	}
}

func TestGetAndLoadUnknown(t *testing.T) {
	r := New()
	if _, err := r.Get("missing"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("Get error = %v", err)
	}
	if _, err := r.Load("missing"); err == nil {
		t.Fatal("Load of unknown version succeeded")
	}
	if _, err := r.Bytes("missing"); err == nil {
		t.Fatal("Bytes of unknown version succeeded")
	}
}

// TestLoadRefusesCorruptArtifact: a stored blob that no longer hashes to
// its version's digest is refused, whichever bit flipped.
func TestLoadRefusesCorruptArtifact(t *testing.T) {
	r := New()
	v, err := r.RegisterModel("demo", newTestNet(1), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	r.blobs[v.ID][len(r.blobs[v.ID])/2] ^= 0x10
	want := "registry: artifact \"" + v.ID + "\" failed integrity check"
	if _, err := r.Load(v.ID); err == nil || err.Error() != want {
		t.Fatalf("Load of a flipped blob\n  expected: %s\n  actual: %v", want, err)
	}
}

// TestLoadRefusesCompiledModule: a compiled variant's artifact is PVM1
// bytecode, not a network, so Load names the kind instead of decoding it.
func TestLoadRefusesCompiledModule(t *testing.T) {
	r := New()
	base, err := r.RegisterModel("demo", newTestNet(1), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.RegisterCompiled(base.ID, buildTestModule(t, "demo"), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	want := "registry: version \"" + v.ID + "\" is a compiled module, not a network"
	if _, err := r.Load(v.ID); err == nil || err.Error() != want {
		t.Fatalf("Load of a compiled version\n  expected: %s\n  actual: %v", want, err)
	}
	// It keeps no network, so no move plans a delta to or from it.
	for _, m := range []*Move{r.Plan(base.ID, v.ID), r.Plan(v.ID, base.ID)} {
		if m.err == nil || m.AsDelta {
			t.Fatalf("move %s: delta %v, %d B, error %v; want a refusal", m.Key, m.AsDelta, len(m.Delta), m.err)
		}
	}
}

func TestStats(t *testing.T) {
	r := New()
	v, _ := r.RegisterModel("a", newTestNet(11), 0.9)
	q, _ := quant.FakeQuantizeNetwork(newTestNet(11), quant.Int8)
	r.RegisterVariant(v.ID, q, quant.Int8, 0.85) //nolint:errcheck
	vb, _ := r.Bytes(v.ID)
	var qb []byte
	if vs := r.Variants(v.ID); len(vs) == 1 {
		qb, _ = r.Bytes(vs[0].ID)
	}
	if s := r.Stats(); len(qb) == 0 || s.BlobBytes != len(vb)+len(qb) {
		t.Fatalf("stats = %+v, want the %d + %d bytes of one base and one variant", s, len(vb), len(qb))
	}
}

func TestConcurrentRegistration(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			net := newTestNet(seed)
			if _, err := r.RegisterModel("parallel", net, 0.5); err != nil {
				t.Errorf("register: %v", err)
			}
		}(uint64(i))
	}
	wg.Wait()
	if got := len(r.Versions("parallel")); got != 16 {
		t.Fatalf("registered %d versions, want 16", got)
	}
}

// buildTestModule assembles a small procvm module without going through
// the compiler, so registry tests stay below the compat layer.
func buildTestModule(t *testing.T, name string) *procvm.Module {
	t.Helper()
	m, err := procvm.NewBuilder(name).
		Input().MatVec([]float32{1, 0, 0, 1, 1, -1, 0, 2}, []float32{0.5, -0.5}).ReLU().Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestVariantsInSeqOrder holds Variants to registration order when float
// and compiled variants of two parents register interleaved: Variants does
// not sort, because each child is appended under the lock that stores it. A
// content-addressed repeat adds no child.
func TestVariantsInSeqOrder(t *testing.T) {
	r := New()
	nets := map[string]*nn.Network{"a": newTestNet(1), "b": newTestNet(2)}
	a, _ := r.RegisterModel("a", nets["a"], 0.9)
	b, _ := r.RegisterModel("b", nets["b"], 0.9)
	want := map[string][]*ModelVersion{}
	float := func(parent *ModelVersion, s quant.Scheme) {
		q, err := quant.FakeQuantizeNetwork(nets[parent.Name], s)
		if err != nil {
			t.Fatal(err)
		}
		v, err := r.RegisterVariant(parent.ID, q, s, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		want[parent.ID] = append(want[parent.ID], v)
	}
	compiled := func(parent *ModelVersion, name string) {
		v, err := r.RegisterCompiled(parent.ID, buildTestModule(t, name), 0.8)
		if err != nil {
			t.Fatal(err)
		}
		want[parent.ID] = append(want[parent.ID], v)
	}
	float(a, quant.Int8)
	compiled(b, "b1")
	float(b, quant.Int4)
	compiled(a, "a1")
	float(a, quant.Binary)
	compiled(b, "b2")
	float(b, quant.Int8)
	if _, err := r.RegisterCompiled(a.ID, buildTestModule(t, "a1"), 0.8); err != nil {
		t.Fatal(err)
	}
	for _, parent := range []*ModelVersion{a, b} {
		got := r.Variants(parent.ID)
		if len(got) != len(want[parent.ID]) {
			t.Fatalf("%s: %d variants, want %d", parent.Name, len(got), len(want[parent.ID]))
		}
		for i, v := range got {
			if v != want[parent.ID][i] {
				t.Fatalf("%s: variant %d is %s, want %s", parent.Name, i, v.ID, want[parent.ID][i].ID)
			}
		}
	}
}

// TestRegisterCompiledLineageAndRoundTrip pins the compiled artifact kind:
// the module registers as a digest-addressed procvm variant of its float
// parent, carries the parent's cost metrics, round-trips bit-exactly
// through its stored bytes, and deduplicates on content.
func TestRegisterCompiledLineageAndRoundTrip(t *testing.T) {
	r := New()
	parent, err := r.RegisterModel("demo", newTestNet(1), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	mod := buildTestModule(t, "demo")
	v, err := r.RegisterCompiled(parent.ID, mod, 0.89)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != KindProcVM || v.ParentID != parent.ID || v.Name != parent.Name {
		t.Fatalf("compiled version = %+v", v)
	}
	if v.Metrics.MACs != parent.Metrics.MACs || v.Metrics.Accuracy != 0.89 {
		t.Fatalf("compiled metrics = %+v", v.Metrics)
	}
	blob, err := r.Bytes(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := procvm.DecodeModule(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Digest() != mod.Digest() {
		t.Fatal("compiled module did not round-trip")
	}
	// Content addressing: the same module registers to the same version.
	again, err := r.RegisterCompiled(parent.ID, mod, 0.89)
	if err != nil || again.ID != v.ID {
		t.Fatalf("re-register: %v, id %q vs %q", err, again.ID, v.ID)
	}
	// The variant shows up in the parent's lineage.
	kids := r.Variants(parent.ID)
	found := false
	for _, k := range kids {
		found = found || k.ID == v.ID
	}
	if !found {
		t.Fatal("compiled variant missing from parent lineage")
	}
}

// TestRegisterCompiledAndLoadCompiledRejects pins the kind guards: no
// compiling off an unknown or non-network parent, and no loading a float
// artifact as a module — the bytes the registry serves for it do not decode
// as PVM1 — or an unknown ID.
func TestRegisterCompiledAndLoadCompiledRejects(t *testing.T) {
	r := New()
	parent, err := r.RegisterModel("demo", newTestNet(1), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	mod := buildTestModule(t, "demo")
	if _, err := r.RegisterCompiled("nope", mod, 0.5); err == nil {
		t.Fatal("registered under an unknown parent")
	}
	v, err := r.RegisterCompiled(parent.ID, mod, 0.89)
	if err != nil {
		t.Fatal(err)
	}
	// A compiled version cannot parent another compiled version.
	if _, err := r.RegisterCompiled(v.ID, mod, 0.5); err == nil {
		t.Fatal("compiled-on-compiled lineage accepted")
	}
	// The float parent is not loadable as a module.
	blob, err := r.Bytes(parent.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := procvm.DecodeModule(blob); err == nil {
		t.Fatal("float artifact loaded as a compiled module")
	}
	if _, err := r.Bytes("missing"); !errors.Is(err, ErrArtifactMissing) {
		t.Fatalf("unknown ID: %v", err)
	}
}

// TestCompiledModulesAreValidated: a program Builder.Build could not have
// emitted is refused at publication, not by the first query that runs it.
// (procvm.TestDecodeValidates pins the same refusal at decode, the door a
// stored blob enters through.) The last row is the pool window that used
// to index past its map.
func TestCompiledModulesAreValidated(t *testing.T) {
	r := New()
	parent, err := r.RegisterModel("demo", newTestNet(1), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for name, code := range map[string][]byte{
		"underflow":         {byte(procvm.OpInput), byte(procvm.OpAdd)},
		"truncated operand": {byte(procvm.OpInput), byte(procvm.OpSlice), 0, 0, 1},
		"unknown opcode":    {byte(procvm.OpInput), 250},
		"pool index":        {byte(procvm.OpInput), byte(procvm.OpPushScalar), 1, 0},
		"empty final stack": {byte(procvm.OpInput), byte(procvm.OpDrop)},
		"pool window":       {byte(procvm.OpInput), byte(procvm.OpMaxPool2D), 1, 0, 2, 0, 2, 0, 3, 0, 2, 0},
	} {
		mod := &procvm.Module{Name: name, Scalars: []float32{1}, Code: code}
		if _, err := r.RegisterCompiled(parent.ID, mod, 0.5); err == nil {
			t.Errorf("%s: RegisterCompiled accepted it", name)
		}
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
