package offload

import (
	"math"
	"testing"

	"tinymlops/internal/compat"
	"tinymlops/internal/device"
	"tinymlops/internal/enclave"
	"tinymlops/internal/exec"
	"tinymlops/internal/market"
	"tinymlops/internal/procvm"
	"tinymlops/internal/quant"
	"tinymlops/internal/tensor"
)

// kindCase is one non-plain variant kind driven through a session: the
// cloud entry's key and executor, the kind fields of the device session's
// configuration, the cut its plan pins, and the monolithic reference. The
// executor-level half of the property (prefix → codec → resume ≡ whole
// pass, at every legal cut) is pinned once for every kind by the exec
// package's conformance table; what stays here is the session and tier
// around it.
type kindCase struct {
	key  string
	ex   exec.Executor
	cfg  SessionConfig
	cut  int
	want []float32
}

// checkEveryMode registers the case's cloud executor and drives one input
// through the session's three modes — split at the pinned cut, fallback
// when the uplink is gone, all-local under a cut-n plan — demanding the
// reference bits from each. It returns the split-mode result. The caller
// has started the fixture's cloud.
func (f *fixture) checkEveryMode(t *testing.T, c kindCase, x []float32) Result {
	t.Helper()
	if err := f.cloud.Register(c.key, c.ex); err != nil {
		t.Fatal(err)
	}
	if !f.cloud.Registered(c.key) || f.cloud.Registered("missing") {
		t.Fatal("registration state wrong")
	}

	open := func(cut int) *Session {
		cfg := c.cfg
		cfg.VersionID, cfg.Device, cfg.Cloud = c.key, f.dev, f.cloud
		cfg.Plan, cfg.Replan = &market.SplitPlan{Cut: cut}, ReplanConfig{Disabled: true}
		s, err := NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	run := func(s *Session, want Mode) Result {
		res, err := s.Exec(x)
		if err != nil {
			t.Fatal(err)
		}
		if res.Mode != want {
			t.Fatalf("mode %v, want %v", res.Mode, want)
		}
		if !vecBitsEqual(res.Logits, c.want) {
			t.Fatalf("%v answer %v != reference %v", want, res.Logits, c.want)
		}
		return res
	}

	s := open(c.cut)
	split := run(s, ModeSplit)
	if split.Cut != c.cut {
		t.Fatalf("split executed at cut %d, want %d", split.Cut, c.cut)
	}
	// Offline: the session finishes on its own executor from the boundary
	// it already computed and must produce the identical bits.
	f.dev.SetNet(device.Offline)
	run(s, ModeFallback)
	f.dev.SetNet(device.WiFi)
	if got := run(open(c.ex.Steps()), ModeLocal).Mode.String(); got != "local" {
		t.Fatalf("mode string %q", got)
	}
	return split
}

// TestQuantSplitSessionBitExact runs an int8 session through a quant cloud
// entry: the device quantizes its boundary into QAB1 codes, the cloud
// resumes on its own integer kernels, and every mode's answer must be
// bit-identical to the device's full integer forward. The planned cut 1
// is not a dense boundary; the session snaps it down to 0.
func TestQuantSplitSessionBitExact(t *testing.T) {
	f := newFixture(t, "phone", CloudConfig{})
	f.cloud.Start()
	defer f.cloud.Close()
	ex, err := exec.Quant(f.model, quant.Int8)
	if err != nil {
		t.Fatal(err)
	}
	qm, err := quant.NewQModel(f.model, quant.Int8)
	if err != nil {
		t.Fatal(err)
	}
	x := f.input(3)
	want := qm.ForwardBatch(tensor.FromSlice(append([]float32(nil), x...), 1, len(x)), quant.NewQScratch())
	c := kindCase{key: "v1#q", ex: ex, cfg: SessionConfig{Model: f.model, Scheme: quant.Int8}, cut: 2, want: want.Data}
	f.checkEveryMode(t, c, x)

	snapped, err := NewSession(SessionConfig{
		VersionID: "v1#q", Device: f.dev, Model: f.model, Scheme: quant.Int8, Cloud: f.cloud,
		Plan: &market.SplitPlan{Cut: 1}, Replan: ReplanConfig{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := snapped.Exec(x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeSplit || res.Cut != 0 || !vecBitsEqual(res.Logits, want.Data) {
		t.Fatalf("planned cut 1 ran %v at cut %d (want a split at the dense boundary 0), logits %v", res.Mode, res.Cut, res.Logits)
	}
}

// TestProtectedSessionBitExact serves the suffix from an enclave-resident
// copy on a hosted executor and demands every mode's answer match the
// device's own forward bit-for-bit — protection must not perturb results,
// only charge the protected world's slowdown.
func TestProtectedSessionBitExact(t *testing.T) {
	f := newFixture(t, "phone", CloudConfig{})
	f.cloud.Start()
	defer f.cloud.Close()
	enc, err := enclave.New("prot-enclave", []byte("prot-test-root-key-0123456789abc"), 2)
	if err != nil {
		t.Fatal(err)
	}
	esess := enclave.NewSession(enc)
	blob, err := f.model.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := enc.Seal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := esess.LoadSealedNetwork("copy", sealed); err != nil {
		t.Fatal(err)
	}
	inside, err := esess.Network("copy")
	if err != nil {
		t.Fatal(err)
	}
	ex, err := exec.Float(inside, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.cloud.Register("", exec.Hosted(ex, esess.Enclave().Slowdown)); err == nil {
		t.Fatal("registered without a version ID")
	}
	if err := f.cloud.Register("v1@other", nil); err == nil {
		t.Fatal("registered without an executor")
	}

	x := f.input(5)
	want := f.expect(x).Data
	plain := f.checkEveryMode(t, kindCase{key: "v1@plain", ex: ex, cfg: SessionConfig{Model: f.model}, cut: 2, want: want}, x)
	hosted := f.checkEveryMode(t, kindCase{key: "v1@dev", ex: exec.Hosted(ex, esess.Enclave().Slowdown), cfg: SessionConfig{Model: f.model}, cut: 2, want: want}, x)
	if hosted.Latency <= plain.Latency {
		t.Fatalf("hosted split latency %v not above the plain split's %v: the enclave slowdown was not charged", hosted.Latency, plain.Latency)
	}
}

// TestModuleSessionSplitAndLocal drives a compiled-module session through
// its modes: cut 0 ships the raw input for whole-module enclave execution,
// the fallback and the all-local cut run the module on the session's own
// gas-raised runtime — and all must agree bit-for-bit with a direct run.
func TestModuleSessionSplitAndLocal(t *testing.T) {
	f := newFixture(t, "phone", CloudConfig{})
	f.cloud.Start()
	defer f.cloud.Close()
	mod, err := compat.CompileProcVM(f.model, compat.CompileOptions{Name: "mod"})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := enclave.New("mod-enclave", []byte("mod-test-root-key-0123456789abcd"), 1.5)
	if err != nil {
		t.Fatal(err)
	}
	esess := enclave.NewSession(enc)
	sealed, err := enc.Seal(mod.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := esess.LoadSealedModule("mod", sealed); err != nil {
		t.Fatal(err)
	}
	inside, err := esess.Module("mod")
	if err != nil {
		t.Fatal(err)
	}
	macs := f.model.TotalMACs()
	// The tier validates boundaries before they queue, so an executor that
	// declares no input width cannot register.
	if err := f.cloud.Register("vm2", exec.Module(inside, inside.Caps, 0, macs)); err == nil {
		t.Fatal("registered a module executor with no declared input width")
	}

	x := f.input(7)
	rt := procvm.NewRuntime(mod.Caps)
	if mod.GasLimit > rt.MaxGas {
		rt.MaxGas = mod.GasLimit
	}
	ref, err := rt.Run(mod, x)
	if err != nil {
		t.Fatal(err)
	}
	f.checkEveryMode(t, kindCase{
		key: "vm", ex: exec.Hosted(exec.Module(inside, inside.Caps, 8, macs), esess.Enclave().Slowdown),
		cfg: SessionConfig{Module: mod, ModuleMACs: macs, InFeatures: 8},
		cut: 0, want: ref.Output.Vec,
	}, x)
}

func vecBitsEqual(got, want []float32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return false
		}
	}
	return true
}
