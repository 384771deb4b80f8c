package offload

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"tinymlops/internal/device"
	"tinymlops/internal/engine"
	"tinymlops/internal/exec"
	"tinymlops/internal/market"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// fixture is one device + model + cloud arrangement for session tests.
type fixture struct {
	dev   *device.Device
	model *nn.Network
	cloud *CloudTier
}

func newFixture(t *testing.T, profile string) *fixture {
	t.Helper()
	caps, err := device.ProfileByName(profile)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(11)
	dev := device.NewDevice(profile+"-0", caps, rng)
	dev.SetNet(device.WiFi)
	model := nn.NewNetwork([]int{8},
		nn.NewDense(8, 32, rng), nn.NewReLU(),
		nn.NewDense(32, 16, rng), nn.NewTanh(),
		nn.NewDense(16, 4, rng))
	cloud := NewCloud(CloudConfig{})
	registerFloat(t, cloud, "v1", model, 1)
	return &fixture{dev: dev, model: model, cloud: cloud}
}

// registerFloat registers model with the cloud under id on the float
// executor, enclave-hosted when slowdown exceeds 1.
func registerFloat(tb testing.TB, cloud *CloudTier, id string, model *nn.Network, slowdown float64) {
	tb.Helper()
	ex, err := exec.Float(model)
	if err != nil {
		tb.Fatal(err)
	}
	if slowdown > 1 {
		ex = exec.Hosted(ex, slowdown)
	}
	if err := cloud.Register(id, ex); err != nil {
		tb.Fatal(err)
	}
}

func (f *fixture) session(t *testing.T, cut int) *Session {
	t.Helper()
	plan := market.SplitPlan{Cut: cut}
	s, err := NewSession(SessionConfig{
		VersionID: "v1", Device: f.dev, Model: f.model, Cloud: f.cloud,
		Plan: &plan, Replan: ReplanConfig{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (f *fixture) input(seed uint64) []float32 {
	rng := tensor.NewRNG(seed)
	x := make([]float32, 8)
	for i := range x {
		x[i] = rng.NormFloat32()
	}
	return x
}

func (f *fixture) expect(x []float32) *tensor.Tensor {
	return f.model.Predict(tensor.FromSlice(append([]float32(nil), x...), 1, len(x)))
}

func logitsEqual(got []float32, want *tensor.Tensor) bool {
	if len(got) != len(want.Data) {
		return false
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want.Data[i]) {
			return false
		}
	}
	return true
}

// TestSessionSplitBitExactAtEveryCut drives one query through
// every possible cut (including the all-cloud cut 0 and the all-edge cut
// n) and demands the split answer be bit-identical to the monolithic
// forward, with the device's radio counters matching the serialized
// boundary sizes.
func TestSessionSplitBitExactAtEveryCut(t *testing.T) {
	n := 5 // layers in the fixture model
	for cut := 0; cut <= n; cut++ {
		f := newFixture(t, "phone")
		s := f.session(t, cut)
		x := f.input(uint64(40 + cut))
		want := f.expect(x)
		res, err := s.Exec(x)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !logitsEqual(res.Logits, want) {
			t.Fatalf("cut %d: split logits differ from monolithic forward", cut)
		}
		c := f.dev.Snapshot()
		if cut == n {
			if res.Mode != ModeLocal || c.TxBytes != 0 {
				t.Fatalf("cut %d: mode %v, tx %d — full-edge plan touched the network", cut, res.Mode, c.TxBytes)
			}
		} else {
			if res.Mode != ModeSplit {
				t.Fatalf("cut %d: mode %v, want split", cut, res.Mode)
			}
			if c.TxBytes != res.ActivationBytes || res.ActivationBytes == 0 {
				t.Fatalf("cut %d: TxBytes %d vs activation %d", cut, c.TxBytes, res.ActivationBytes)
			}
			if c.RxBytes != res.ResponseBytes || res.ResponseBytes == 0 {
				t.Fatalf("cut %d: RxBytes %d vs response %d", cut, c.RxBytes, res.ResponseBytes)
			}
			if res.Latency <= 0 {
				t.Fatalf("cut %d: no modeled latency", cut)
			}
		}
		f.cloud.Close()
	}
}

// blockingExec is a registered executor whose Resume waits until release
// is closed, so a test can hold requests in flight.
type blockingExec struct {
	exec.Executor
	entered chan struct{}
	release chan struct{}
}

func (b blockingExec) Resume(bd *exec.Boundary, cut int, ar *engine.Arena) (*tensor.Tensor, error) {
	b.entered <- struct{}{}
	<-b.release
	return b.Executor.Resume(bd, cut, ar)
}

// TestCloudShedsAtCapacity holds maxInFlight requests inside Resume and
// expects the next Submit to shed with ErrShed, counted; once released,
// every held request is served its correct answer.
func TestCloudShedsAtCapacity(t *testing.T) {
	rng := tensor.NewRNG(5)
	model := nn.NewNetwork([]int{4}, nn.NewDense(4, 2, rng))
	inner, err := exec.Float(model)
	if err != nil {
		t.Fatal(err)
	}
	held := blockingExec{Executor: inner, entered: make(chan struct{}), release: make(chan struct{})}
	cloud := NewCloud(CloudConfig{})
	if err := cloud.Register("v1", held); err != nil {
		t.Fatal(err)
	}
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 4)
	act := encodeAct(t, x)
	want := encodeAct(t, model.Predict(x))

	var wg sync.WaitGroup
	replies := make([][]byte, maxInFlight)
	for i := range replies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := cloud.Submit("t", "v1", 0, act)
			if err != nil {
				t.Error(err)
				return
			}
			replies[i] = resp.Payload
		}()
	}
	for range maxInFlight {
		<-held.entered
	}
	if _, err := cloud.Submit("t", "v1", 0, act); !errors.Is(err, ErrShed) {
		t.Fatalf("submit past the cap returned %v, want ErrShed", err)
	}
	close(held.release)
	wg.Wait()
	for i, r := range replies {
		if !bytes.Equal(r, want) {
			t.Fatalf("held request %d answered %x, want %x", i, r, want)
		}
	}
	st := cloud.Stats()
	if st.Shed != 1 || st.Served != maxInFlight || st.Submitted != maxInFlight || st.MaxQueueDepth != maxInFlight {
		t.Fatalf("stats %+v", st)
	}
}

// TestSessionAnswersOnUnstartedTier runs a standalone session against a
// tier nobody started: the suffix is a call, so the query answers, split.
func TestSessionAnswersOnUnstartedTier(t *testing.T) {
	f := newFixture(t, "phone")
	s := f.session(t, 2)
	x := f.input(7)
	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := s.Exec(x)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res.Mode != ModeSplit || !logitsEqual(o.res.Logits, f.expect(x)) {
			t.Fatalf("mode %v, logits %v; want a bit-exact split answer", o.res.Mode, o.res.Logits)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a query on a tier that was never started did not answer within 10s")
	}
}

// TestCloudSubmitValidation covers the request-validation errors.
func TestCloudSubmitValidation(t *testing.T) {
	cloud := NewCloud(CloudConfig{})
	rng := tensor.NewRNG(5)
	model := nn.NewNetwork([]int{4}, nn.NewDense(4, 2, rng))
	registerFloat(t, cloud, "v1", model, 1)
	good := encodeAct(t, tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 4))
	if _, err := cloud.Submit("t", "nope", 0, good); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model: %v", err)
	}
	if _, err := cloud.Submit("t", "v1", 1, good); err == nil {
		t.Fatal("accepted cut == layer count (nothing for the cloud to do)")
	}
	if _, err := cloud.Submit("t", "v1", 0, []byte("garbage")); err == nil {
		t.Fatal("accepted undecodable activation")
	}
	bad := encodeAct(t, tensor.FromSlice([]float32{1, 2}, 1, 2))
	if _, err := cloud.Submit("t", "v1", 0, bad); err == nil {
		t.Fatal("accepted wrong activation shape")
	}
	cloud.Close()
	if _, err := cloud.Submit("t", "v1", 0, good); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed tier: %v", err)
	}
}

func encodeAct(t *testing.T, x *tensor.Tensor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSessionRetriesShedThenFallsBack closes the cloud so admission fails
// permanently: the session must finish the query locally (fallback) with
// a bit-exact answer rather than erroring.
func TestSessionRetriesShedThenFallsBack(t *testing.T) {
	f := newFixture(t, "phone")
	f.cloud.Close()
	s := f.session(t, 2)
	x := f.input(9)
	want := f.expect(x)
	res, err := s.Exec(x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeFallback {
		t.Fatalf("mode %v, want fallback", res.Mode)
	}
	if !logitsEqual(res.Logits, want) {
		t.Fatal("fallback logits differ from monolithic forward")
	}
	// The uplink was spent before the cloud refused.
	if c := f.dev.Snapshot(); c.TxBytes != res.ActivationBytes {
		t.Fatalf("TxBytes %d vs activation %d", c.TxBytes, res.ActivationBytes)
	}
	if st := s.Stats(); st.Fallbacks != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestReplannerHysteresis pins the no-flap contract: small oscillations
// never trigger a re-plan, threshold crossings re-plan but keep the cut
// unless the gain clears MinGain, and offline forces the full-edge plan.
func TestReplannerHysteresis(t *testing.T) {
	m4, _ := device.ProfileByName("m4-wearable")
	gw, _ := device.ProfileByName("edge-gateway")
	rng := tensor.NewRNG(2)
	net := nn.NewNetwork([]int{64},
		nn.NewDense(64, 256, rng), nn.NewReLU(),
		nn.NewDense(256, 256, rng), nn.NewReLU(),
		nn.NewDense(256, 8, rng))
	costs, err := net.Summary()
	if err != nil {
		t.Fatal(err)
	}
	start := Conditions{BandwidthBps: 1e6, Battery: 1}
	r, err := NewReplanner(ReplanConfig{RTT: 10 * time.Microsecond}, m4, gw, costs, 32, 64*4, nil, start)
	if err != nil {
		t.Fatal(err)
	}
	cut0 := r.plan.Cut

	// Oscillate within the bandwidth factor: no re-evaluation at all.
	for i := 0; i < 20; i++ {
		bw := 1e6
		if i%2 == 0 {
			bw = 1.6e6
		}
		if _, moved := r.Observe(Conditions{BandwidthBps: bw, Battery: 1}); moved {
			t.Fatalf("iteration %d: cut moved on a sub-threshold oscillation", i)
		}
	}
	if r.replans != 0 {
		t.Fatalf("%d re-plans on sub-threshold noise", r.replans)
	}

	// Offline: the only valid plan is full-edge.
	p, moved := r.Observe(Conditions{BandwidthBps: 0, Battery: 1})
	if p.Cut != len(costs) {
		t.Fatalf("offline cut %d, want %d", p.Cut, len(costs))
	}
	if cut0 != len(costs) && !moved {
		t.Fatal("offline transition did not report a move")
	}

	// Recovery to a fat pipe: the cut migrates cloud-ward again.
	p, _ = r.Observe(Conditions{BandwidthBps: 100e6, Battery: 1})
	if p.Cut >= len(costs) {
		t.Fatalf("fat-pipe recovery kept cut %d on-device", p.Cut)
	}
	if r.replans < 2 {
		t.Fatalf("replans %d, want ≥2", r.replans)
	}

	// Flapping across the offline boundary must not flap the cut more
	// than the conditions themselves flap: every observation is either
	// offline (forced full-edge) or identical fat-pipe (same best cut).
	fat := p.Cut
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			p, _ = r.Observe(Conditions{BandwidthBps: 0, Battery: 1})
			if p.Cut != len(costs) {
				t.Fatalf("offline flap %d: cut %d", i, p.Cut)
			}
		} else {
			p, _ = r.Observe(Conditions{BandwidthBps: 100e6, Battery: 1})
			if p.Cut != fat {
				t.Fatalf("recovery flap %d: cut %d, want %d", i, p.Cut, fat)
			}
		}
	}
}

// TestReplannerLowBatteryPrefersEnergy checks the objective switch: a
// nearly dead battery-powered device picks the minimum-energy cut.
func TestReplannerLowBatteryPrefersEnergy(t *testing.T) {
	m4, _ := device.ProfileByName("m4-wearable")
	gw, _ := device.ProfileByName("edge-gateway")
	rng := tensor.NewRNG(2)
	// A model whose boundary activation shrinks with depth: later cuts
	// are radio-cheaper but compute-pricier.
	net := nn.NewNetwork([]int{128},
		nn.NewDense(128, 64, rng), nn.NewReLU(),
		nn.NewDense(64, 8, rng), nn.NewReLU(),
		nn.NewDense(8, 4, rng))
	costs, err := net.Summary()
	if err != nil {
		t.Fatal(err)
	}
	start := Conditions{BandwidthBps: 20e6, Battery: 1}
	r, err := NewReplanner(ReplanConfig{}, m4, gw, costs, 32, 128*4, nil, start)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := r.Observe(Conditions{BandwidthBps: 20e6, Battery: 0.05})
	// The minimum-energy cut for this shape: verify against brute force.
	wantCut, wantE := -1, math.MaxFloat64
	for cut := 0; cut <= len(costs); cut++ {
		if e := r.deviceEnergy(cut); e < wantE {
			wantCut, wantE = cut, e
		}
	}
	if p.Cut != wantCut {
		t.Fatalf("low-battery cut %d, want min-energy cut %d", p.Cut, wantCut)
	}
}
