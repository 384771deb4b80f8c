package offload

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"tinymlops/internal/device"
	"tinymlops/internal/enclave"
	"tinymlops/internal/engine"
	"tinymlops/internal/market"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// pinModel is a deeper MLP than the fixture's, so the split pins cover real
// suffix work, not just the tier's overhead.
func pinModel() *nn.Network {
	rng := tensor.NewRNG(2)
	return nn.NewNetwork([]int{32},
		nn.NewDense(32, 128, rng), nn.NewReLU(),
		nn.NewDense(128, 128, rng), nn.NewReLU(),
		nn.NewDense(128, 64, rng), nn.NewTanh(),
		nn.NewDense(64, 8, rng))
}

func pinSession(t *testing.T, cut int, cloud *CloudTier, model *nn.Network, id string) *Session {
	t.Helper()
	caps, _ := device.ProfileByName("phone")
	dev := device.NewDevice(id, caps, nil)
	dev.SetNet(device.WiFi)
	plan := market.SplitPlan{Cut: cut}
	s, err := NewSession(SessionConfig{
		Tenant: id, VersionID: "pin", Device: dev, Model: model.Clone(),
		Cloud: cloud, Plan: &plan, Replan: ReplanConfig{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func pinInput() []float32 {
	rng := tensor.NewRNG(4)
	x := make([]float32, 32)
	for i := range x {
		x[i] = rng.NormFloat32()
	}
	return x
}

// pinCloud returns a cloud tier serving model as version "pin", on an
// enclave-hosted executor when slowdown exceeds 1.
func pinCloud(t *testing.T, model *nn.Network, slowdown float64) *CloudTier {
	t.Helper()
	cloud := NewCloud(CloudConfig{})
	registerFloat(t, cloud, "pin", model, slowdown)
	t.Cleanup(cloud.Close)
	return cloud
}

// splitAllocs is what one split query allocates in the steady state, its
// suffix served by the cloud tier: exactly what it hands back, the reply's
// payload and the result's logits. The boundary and the reply decode into
// storage the cloud's arena and the session keep; it was 20 while both
// crossed TMLT1 through io.Reader into fresh tensors.
const splitAllocs = 2

// TestExecAllocationPins pins what one Session.Exec allocates in the steady
// state: the whole model on the device (the result's logits), a split at
// the first hidden layer through the cloud tier, and the same split with
// the suffix served by an enclave-resident copy of the model.
func TestExecAllocationPins(t *testing.T) {
	model := pinModel()
	enc, err := enclave.New("pin-enclave", []byte("pin-manufacturer-root-key-000001"), 1.2)
	if err != nil {
		t.Fatal(err)
	}
	esess := enclave.NewSession(enc)
	blob, err := model.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := enc.Seal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := esess.LoadSealedNetwork("pin-art", sealed); err != nil {
		t.Fatal(err)
	}
	inside, err := esess.Network("pin-art")
	if err != nil {
		t.Fatal(err)
	}
	x := pinInput()
	for _, pin := range []struct {
		name   string
		s      *Session
		allocs float64
	}{
		{"monolithic", pinSession(t, len(model.Layers()), pinCloud(t, model, 1), model, "mono"), 1},
		{"split", pinSession(t, 2, pinCloud(t, model, 1), model, "split"), splitAllocs},
		{"enclave suffix", pinSession(t, 2, pinCloud(t, inside, esess.Enclave().Slowdown), model, "enclave"), splitAllocs},
	} {
		exec := func() {
			if _, err := pin.s.Exec(x); err != nil {
				t.Fatal(err)
			}
		}
		for w := 0; w < 3; w++ {
			exec()
		}
		if got := testing.AllocsPerRun(100, exec); got != pin.allocs {
			t.Errorf("%s: Exec allocates %v, pinned at %v", pin.name, got, pin.allocs)
		}
	}
}

// TestConcurrentCloudAllocationPin drives 16 sessions' splits through one
// cloud tier at once and pins what a query allocates at exactly the
// single-session split's count. The tier's arena pool grows to the peak
// number of requests in flight, which the scheduler picks, so the test
// first grows it to 16 warm arenas, one per session. What is left over
// the pin is under one allocation per query: the burst's 16 goroutines and
// the runtime's bookkeeping for contended locks, a few dozen allocations a
// burst that vary with scheduling and with the race detector.
func TestConcurrentCloudAllocationPin(t *testing.T) {
	const sessions, perSession, cut = 16, 50, 2
	model := pinModel()
	cloud := pinCloud(t, model, 1)
	ss := make([]*Session, sessions)
	for i := range ss {
		ss[i] = pinSession(t, cut, cloud, model, fmt.Sprintf("burst-%02d", i))
	}
	x := pinInput()
	ex := cloud.models["pin"]
	held := make([]*engine.Arena, sessions)
	for i := range held {
		held[i] = cloud.arenas.Acquire()
	}
	for _, ar := range held {
		act, err := ex.Run(tensor.FromSlice(x, 1, len(x)), 0, cut, ar)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := ex.EncodeBoundary(act, cut, ar)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ex.DecodeBoundary(payload, cut, ar)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ex.Resume(b, cut, ar); err != nil {
			t.Fatal(err)
		}
	}
	for _, ar := range held {
		cloud.arenas.Release(ar)
	}
	burst := func() {
		var wg sync.WaitGroup
		for _, s := range ss {
			wg.Add(1)
			go func(s *Session) {
				defer wg.Done()
				for q := 0; q < perSession; q++ {
					if _, err := s.Exec(x); err != nil {
						t.Error(err)
						return
					}
				}
			}(s)
		}
		wg.Wait()
	}
	burst() // warm-up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	burst()
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / (sessions * perSession)
	st := cloud.Stats()
	t.Logf("%.4f allocations per query; %d queries, peak %d in flight", got, st.Served, st.MaxQueueDepth)
	if math.Floor(got) != splitAllocs {
		t.Errorf("a concurrent split query allocates %.4f, pinned at %v", got, splitAllocs)
	}
	// The bursts built no arena: the pool's free list holds exactly the
	// held ones, so taking them allocates nothing and one more is new.
	var drained, grown runtime.MemStats
	runtime.ReadMemStats(&before)
	for range sessions {
		cloud.arenas.Acquire()
	}
	runtime.ReadMemStats(&drained)
	cloud.arenas.Acquire()
	runtime.ReadMemStats(&grown)
	if drained.Mallocs != before.Mallocs || grown.Mallocs == drained.Mallocs {
		t.Errorf("the cloud pool does not hold exactly %d arenas: taking them allocated %d times, one more %d",
			sessions, drained.Mallocs-before.Mallocs, grown.Mallocs-drained.Mallocs)
	}
}
