package offload

import (
	"errors"
	"fmt"
	"strings"
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
			f := newFixture(t, "phone")
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
	modes    []Mode
	logits   [][]float32
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
	cloud := NewCloud(CloudConfig{})
	registerFloat(t, cloud, "v1", model, 1)
	defer cloud.Close()
	caps, _ := device.ProfileByName("phone")

	type state struct {
		dev  *device.Device
		sess *Session
	}
	states := make([]*state, nDevices)
	for i := range states {
		id := fmt.Sprintf("ph-%02d", i)
		dev := device.NewDevice(id, caps, nil)
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
			outcomes[i].modes = append(outcomes[i].modes, res.Mode)
			outcomes[i].logits = append(outcomes[i].logits, res.Logits)
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
// requires per-device modes, logits, session stats and device counters to be
// identical — the order the tier serves requests in may vary with
// scheduling, but nothing observable may.
func TestOffloadFleetDeterministicAcrossWorkers(t *testing.T) {
	const nDevices, queries = 12, 18
	var first []sessionOutcome
	for _, workers := range []int{1, 4, 16} {
		out := runSessionFleet(t, workers, nDevices, queries)
		// The script must actually exercise every path.
		var falls, locals, splits int64
		for _, o := range out {
			falls += o.stats.Fallbacks
			for _, m := range o.modes {
				switch m {
				case ModeLocal:
					locals++
				case ModeSplit:
					splits++
				}
			}
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

// TestMisshapenReplyFailsTheQuery registers a 64-output suffix under the
// version ID of an 8-output session. The cloud resumes the boundary and
// replies with 64 logits, which the session used to return with a label
// its model cannot produce and a nil error; a reply that is not one row of
// the session's declared output must fail the query.
func TestMisshapenReplyFailsTheQuery(t *testing.T) {
	model := pinModel()
	rng := tensor.NewRNG(9)
	wide := nn.NewNetwork([]int{32}, nn.NewDense(32, 128, rng), nn.NewReLU(), nn.NewDense(128, 64, rng))
	s := pinSession(t, 2, pinCloud(t, wide, 1), model, "misshapen")
	x := pinInput()
	for q := 0; q < 5; q++ {
		res, err := s.Exec(x)
		if err == nil {
			t.Fatalf("query %d: %d logits accepted from an 8-output model's cloud", q, len(res.Logits))
		}
		if !strings.Contains(err.Error(), "replied with shape [1 64]") {
			t.Fatalf("query %d: %v", q, err)
		}
	}
	if st := s.Stats(); st.Queries != 0 {
		t.Fatalf("failed queries counted: %+v", st)
	}
}
