package offload

import (
	"errors"
	"fmt"
	"time"

	"testing"

	"tinymlops/internal/device"
	"tinymlops/internal/engine"
	"tinymlops/internal/market"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// TestOffloadFailurePaths is the table-driven failure-path suite: each
// case arranges one way the split can go wrong and pins the required
// recovery — uplink drops fall back to full on-device execution, a dead
// battery fails the query outright, and the replanner's hysteresis keeps
// the cut still under sub-threshold noise.
func TestOffloadFailurePaths(t *testing.T) {
	cases := []struct {
		name    string
		arrange func(f *fixture)
		// wantErrOnly means the query must error with wantErr; otherwise
		// it must succeed in wantMode.
		wantMode    Mode
		wantErr     error
		wantErrOnly bool
	}{
		{
			name:     "uplink drop mid-activation falls back on-device",
			arrange:  func(f *fixture) { f.dev.SetNet(device.Offline) },
			wantMode: ModeFallback,
		},
		{
			name:     "degraded link still splits",
			arrange:  func(f *fixture) { f.dev.SetNet(device.Cellular) },
			wantMode: ModeSplit,
		},
		{
			name:        "dead battery fails the prefix",
			arrange:     func(f *fixture) { f.dev.SetBatteryLevel(0) },
			wantErr:     device.ErrBatteryDepleted,
			wantErrOnly: true,
		},
		{
			name:     "cloud closed: retries exhaust, finish locally",
			arrange:  func(f *fixture) { f.cloud.Close() },
			wantMode: ModeFallback,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newFixture(t, "phone", CloudConfig{})
			f.cloud.Start()
			defer f.cloud.Close()
			c.arrange(f)
			s := f.session(t, 2)
			x := f.input(21)
			before := f.dev.Snapshot()
			res, err := s.Exec(x)
			if c.wantErrOnly {
				if !errors.Is(err, c.wantErr) {
					t.Fatalf("err = %v, want %v", err, c.wantErr)
				}
				after := f.dev.Snapshot()
				if after.TxBytes != before.TxBytes {
					t.Fatalf("failed query still uplinked: %d -> %d", before.TxBytes, after.TxBytes)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Mode != c.wantMode {
				t.Fatalf("mode %v, want %v", res.Mode, c.wantMode)
			}
			if !logitsEqual(res.Logits, f.expect(x)) {
				t.Fatal("recovered query is not bit-exact with the monolithic forward")
			}
		})
	}
}

// sessionOutcome is the per-device record the determinism test compares
// across worker counts.
type sessionOutcome struct {
	labels   []int
	stats    Stats
	counters device.Counters
}

// runSessionFleet drives nDevices concurrent sessions (each with a
// scripted per-device weather schedule) through a shared cloud tier on an
// engine pool of the given width, and returns per-device outcomes.
func runSessionFleet(t *testing.T, workers, nDevices, queries int) []sessionOutcome {
	t.Helper()
	rng := tensor.NewRNG(77)
	model := nn.NewNetwork([]int{8},
		nn.NewDense(8, 24, rng), nn.NewReLU(),
		nn.NewDense(24, 12, rng), nn.NewSigmoid(),
		nn.NewDense(12, 3, rng))
	cloud := NewCloud(CloudConfig{QueueCap: 4 * nDevices, MaxBatch: 8, Dispatchers: 2})
	registerFloat(t, cloud, "v1", model, 1)
	cloud.Start()
	defer cloud.Close()
	caps, _ := device.ProfileByName("phone")

	type state struct {
		dev  *device.Device
		sess *Session
	}
	states := make([]*state, nDevices)
	for i := range states {
		id := fmt.Sprintf("ph-%02d", i)
		dev := device.NewDevice(id, caps, tensor.NewRNG(uint64(100+i)))
		dev.SetNet(device.WiFi)
		plan := market.SplitPlan{Cut: 2}
		// Devices at i%4==3 pin their plan (no replanning): an outage hits
		// them as an upload failure and exercises the fallback path, while
		// replanning devices migrate the cut to full-edge instead.
		rp := ReplanConfig{RTT: 10 * time.Microsecond}
		if i%4 == 3 {
			rp.Disabled = true
		}
		sess, err := NewSession(SessionConfig{
			Tenant: id, VersionID: "v1", Device: dev, Model: model.Clone(),
			Cloud: cloud, Plan: &plan, Replan: rp,
		})
		if err != nil {
			t.Fatal(err)
		}
		states[i] = &state{dev: dev, sess: sess}
	}

	eng := engine.New(engine.Config{Workers: workers})
	outcomes := make([]sessionOutcome, nDevices)
	inputs := make([][]float32, queries)
	irng := tensor.NewRNG(9)
	for q := range inputs {
		row := make([]float32, 8)
		for j := range row {
			row[j] = irng.NormFloat32()
		}
		inputs[q] = row
	}
	err := eng.ForEach(nDevices, func(i int) error {
		st := states[i]
		for q := 0; q < queries; q++ {
			// Scripted per-device weather: devices at i%4∈{1,3} lose their
			// link for the middle third of their queries — a pure function
			// of (device index, query index), never of scheduling.
			if (i%4 == 1 || i%4 == 3) && q >= queries/3 && q < 2*queries/3 {
				st.dev.SetNet(device.Offline)
			} else {
				st.dev.SetNet(device.WiFi)
			}
			res, ierr := st.sess.Exec(inputs[q])
			if ierr != nil {
				return ierr
			}
			outcomes[i].labels = append(outcomes[i].labels, res.Label)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range states {
		outcomes[i].stats = st.sess.Stats()
		outcomes[i].counters = st.dev.Snapshot()
	}
	return outcomes
}

// TestOffloadFleetDeterministicAcrossWorkers runs the same scripted
// mixed-failure fleet at 1, 4 and 16 workers (with -race in CI) and
// requires per-device labels, session stats and device counters to be
// identical — cloud batching composition may vary with scheduling, but
// nothing observable may.
func TestOffloadFleetDeterministicAcrossWorkers(t *testing.T) {
	const nDevices, queries = 12, 18
	var first []sessionOutcome
	for _, workers := range []int{1, 4, 16} {
		out := runSessionFleet(t, workers, nDevices, queries)
		// The script must actually exercise every path.
		var falls, locals, splits int64
		for _, o := range out {
			falls += o.stats.Fallbacks
			locals += o.stats.Local
			splits += o.stats.Split
		}
		if falls == 0 || locals == 0 || splits == 0 {
			t.Fatalf("workers=%d: script exercised too little: fallback=%d local=%d split=%d",
				workers, falls, locals, splits)
		}
		if first == nil {
			first = out
			continue
		}
		for i := range out {
			if fmt.Sprintf("%+v", out[i]) != fmt.Sprintf("%+v", first[i]) {
				t.Fatalf("workers=%d device %d diverged:\n%+v\nvs\n%+v", workers, i, out[i], first[i])
			}
		}
	}
}
