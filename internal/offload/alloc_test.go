package offload

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"tinymlops/internal/device"
	"tinymlops/internal/enclave"
	"tinymlops/internal/market"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// pinModel is a deeper MLP than the fixture's, so the split pins cover real
// suffix work, not just queue overhead.
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
	dev := device.NewDevice(id, caps, tensor.NewRNG(1))
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

// pinCloud starts a cloud tier serving model as version "pin", on an
// enclave-hosted executor when slowdown exceeds 1.
func pinCloud(t *testing.T, cfg CloudConfig, model *nn.Network, slowdown float64) *CloudTier {
	t.Helper()
	cloud := NewCloud(cfg)
	registerFloat(t, cloud, "pin", model, slowdown)
	cloud.Start()
	t.Cleanup(cloud.Close)
	return cloud
}

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
		{"monolithic", pinSession(t, len(model.Layers()), pinCloud(t, CloudConfig{}, model, 1), model, "mono"), 1},
		{"split", pinSession(t, 2, pinCloud(t, CloudConfig{}, model, 1), model, "split"), 30},
		{"enclave suffix", pinSession(t, 2, pinCloud(t, CloudConfig{}, inside, esess.Enclave().Slowdown), model, "enclave"), 30},
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

// TestBatchedCloudAllocationPin drives 16 sessions' splits through one
// batching cloud tier at once and pins the allocations per query. It runs
// on one processor, where each submit is served before the next session
// runs: the batches are all of one and the count is the same every run. On
// two processors the batch sizes follow the scheduler and the count moves
// between 30 and 33. The pin is a ceiling, not an exact count, because the
// mean includes the 16 goroutines' own allocations and because a
// race-detector build interleaves the sessions and coalesces them.
func TestBatchedCloudAllocationPin(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const sessions, perSession, pin = 16, 50, 30.1
	model := pinModel()
	cloud := pinCloud(t, CloudConfig{MaxBatch: 32, QueueCap: 1024, Dispatchers: 2}, model, 1)
	ss := make([]*Session, sessions)
	for i := range ss {
		ss[i] = pinSession(t, 2, cloud, model, fmt.Sprintf("batch-%02d", i))
	}
	x := pinInput()
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
	t.Logf("%.2f allocations per query; %d queries in %d batches", got, st.Served, st.Batches)
	if got > pin {
		t.Errorf("a coalesced split query allocates %.2f, pinned at <= %v", got, pin)
	}
}
