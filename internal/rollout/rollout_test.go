package rollout

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tinymlops/internal/engine"
)

// fakeTarget is a deterministic in-memory fleet: device i ships a fixed
// number of bytes, reports configurable post-update health, and records
// updates/rollbacks. All state transitions are keyed by device ID only, so
// two fakeTargets driven by the same config end in identical states.
type fakeTarget struct {
	ids []string

	mu       sync.Mutex
	version  map[string]string // device -> version ("v1"/"v2")
	baked    map[string]bool
	rollback []string

	// driftOn marks devices whose post-bake health raises a drift alarm.
	driftOn map[string]bool
	// failUpdate marks devices whose update errors out.
	failUpdate map[string]bool
	// failHealth marks devices whose post-bake health read errors out.
	failHealth map[string]bool
	// noop marks devices already running v2 (content-addressed no-op).
	noop map[string]bool
	// panicHealth and panicRollback mark devices whose post-bake health
	// read or revert panics; failRollback those whose revert errors out.
	panicHealth, panicRollback, failRollback map[string]bool
}

func newFakeTarget(n int) *fakeTarget {
	t := &fakeTarget{
		version:    make(map[string]string),
		baked:      make(map[string]bool),
		driftOn:    make(map[string]bool),
		failUpdate: make(map[string]bool),
		failHealth: make(map[string]bool),
		noop:       make(map[string]bool),

		panicHealth:   make(map[string]bool),
		panicRollback: make(map[string]bool),
		failRollback:  make(map[string]bool),
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("dev-%03d", i)
		t.ids = append(t.ids, id)
		t.version[id] = "v1"
	}
	return t
}

func (t *fakeTarget) DeviceIDs() []string { return append([]string(nil), t.ids...) }

func (t *fakeTarget) Baseline(id string) (Health, error) {
	return Health{Inferences: 100, MeanLatencyUS: 50}, nil
}

func (t *fakeTarget) Update(id string) (Transfer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failUpdate[id] {
		return Transfer{}, fmt.Errorf("device %s offline", id)
	}
	if t.noop[id] {
		return Transfer{FromID: "v2", ToID: "v2"}, nil
	}
	t.version[id] = "v2"
	return Transfer{ShipBytes: 128, FlashBytes: 64, UsedDelta: true, FromID: "v1", ToID: "v2"}, nil
}

func (t *fakeTarget) Health(id string) (Health, error) {
	if t.panicHealth[id] {
		panic("health probe dereferenced a nil monitor")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failHealth[id] {
		return Health{}, fmt.Errorf("device %s unreachable", id)
	}
	h := Health{Inferences: 100, MeanLatencyUS: 55}
	if t.driftOn[id] && t.baked[id] {
		h.DriftAlarm = true
	}
	return h, nil
}

func (t *fakeTarget) Rollback(id string) error {
	if t.panicRollback[id] {
		panic("slot B image missing")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.failRollback[id] {
		return fmt.Errorf("device %s lost power mid-revert", id)
	}
	if t.version[id] != "v2" {
		return fmt.Errorf("device %s is not on v2", id)
	}
	t.version[id] = "v1"
	t.rollback = append(t.rollback, id)
	return nil
}

func (t *fakeTarget) bake(_ Wave, ids []string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range ids {
		t.baked[id] = true
	}
	return nil
}

// stripRollbackOrder removes the only legitimately schedule-dependent
// record (the fake's rollback append order) before state comparison.
func (t *fakeTarget) state() map[string]string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]string, len(t.version))
	for k, v := range t.version {
		out[k] = v
	}
	return out
}

func TestHappyPathCompletesAllWaves(t *testing.T) {
	ft := newFakeTarget(20)
	c := NewController(engine.New(engine.Config{Workers: 4}))
	res, err := c.Run(ft, Config{Seed: 7, Bake: ft.bake})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || len(res.Waves) != 3 {
		t.Fatalf("result = %+v", res)
	}
	if res.DeltaTransfers != 20 || res.FullTransfers != 0 {
		t.Fatalf("transfers = %d delta / %d full", res.DeltaTransfers, res.FullTransfers)
	}
	if res.TotalShipBytes != 20*128 {
		t.Fatalf("ship bytes = %d", res.TotalShipBytes)
	}
	for id, v := range ft.state() {
		if v != "v2" {
			t.Fatalf("device %s still on %s", id, v)
		}
	}
	// Wave sizes follow the cumulative fractions: 2, 8, 10 of 20.
	sizes := []int{len(res.Waves[0].DeviceIDs), len(res.Waves[1].DeviceIDs), len(res.Waves[2].DeviceIDs)}
	if sizes[0] != 2 || sizes[1] != 8 || sizes[2] != 10 {
		t.Fatalf("wave sizes = %v", sizes)
	}
}

func TestGateFailureRollsBackOnlyFailingWave(t *testing.T) {
	ft := newFakeTarget(20)
	c := NewController(engine.New(engine.Config{Workers: 4}))
	// Find who lands in wave 2 under this seed, then inject drift there.
	groups, err := assignWaves(ft.ids, DefaultWaves(), 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range groups[1] {
		ft.driftOn[id] = true
	}
	res, err := c.Run(ft, Config{Seed: 7, Bake: ft.bake})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || len(res.Waves) != 2 {
		t.Fatalf("result = %+v", res)
	}
	if !res.Waves[0].Gate.Pass || res.Waves[1].Gate.Pass {
		t.Fatalf("gates = %+v / %+v", res.Waves[0].Gate, res.Waves[1].Gate)
	}
	if res.Waves[1].Gate.DriftAlarms != len(groups[1]) {
		t.Fatalf("drift alarms = %d of %d", res.Waves[1].Gate.DriftAlarms, len(groups[1]))
	}
	state := ft.state()
	for _, id := range groups[0] {
		if state[id] != "v2" {
			t.Fatalf("canary %s lost the update", id)
		}
	}
	for _, id := range groups[1] {
		if state[id] != "v1" {
			t.Fatalf("cohort %s not rolled back", id)
		}
	}
	for _, id := range groups[2] {
		if state[id] != "v1" {
			t.Fatalf("unreached device %s was updated", id)
		}
	}
}

func TestUpdateFailuresGateAndSkipRollback(t *testing.T) {
	ft := newFakeTarget(10)
	for _, id := range ft.ids {
		ft.failUpdate[id] = true
	}
	c := NewController(engine.New(engine.Config{Workers: 2}))
	res, err := c.Run(ft, Config{Seed: 1, Waves: []Wave{{Name: "all", Fraction: 1}}, Bake: ft.bake})
	if err != nil {
		t.Fatal(err)
	}
	w := res.Waves[0]
	if w.Gate.Pass || w.Gate.UpdateFailures != 10 {
		t.Fatalf("gate = %+v", w.Gate)
	}
	for _, o := range w.Outcomes {
		if o.UpdateErr == "" {
			t.Fatalf("outcome = %+v", o)
		}
	}
	if len(ft.rollback) != 0 {
		t.Fatalf("devices whose update failed were rolled back: %v", ft.rollback)
	}
}

// TestNoopUpdatesSkipAccountingAndRollback covers devices already on the
// target version: they ship nothing, count as neither delta nor full
// transfer, and a failing gate must not "roll them back" to an image the
// rollout never replaced.
func TestNoopUpdatesSkipAccountingAndRollback(t *testing.T) {
	ft := newFakeTarget(10)
	for _, id := range ft.ids[:4] {
		ft.noop[id] = true
		ft.version[id] = "v2" // already upgraded by an earlier rollout
	}
	for _, id := range ft.ids {
		ft.driftOn[id] = true // the single wave will fail its gate
	}
	c := NewController(engine.New(engine.Config{Workers: 4}))
	res, err := c.Run(ft, Config{Seed: 3, Waves: []Wave{{Name: "all", Fraction: 1}}, Bake: ft.bake})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeltaTransfers != 6 || res.FullTransfers != 0 || res.TotalShipBytes != 6*128 {
		t.Fatalf("accounting = %d delta / %d full / %d B", res.DeltaTransfers, res.FullTransfers, res.TotalShipBytes)
	}
	for _, o := range res.Waves[0].Outcomes {
		if o.RollbackErr != "" {
			t.Fatalf("device %s: rollback error %q", o.DeviceID, o.RollbackErr)
		}
	}
	if len(ft.rollback) != 6 {
		t.Fatalf("rolled back %v, want the 6 updated devices", ft.rollback)
	}
	state := ft.state()
	for _, id := range ft.ids[:4] {
		if state[id] != "v2" {
			t.Fatalf("no-op device %s reverted to %s", id, state[id])
		}
	}
	for _, id := range ft.ids[4:] {
		if state[id] != "v1" {
			t.Fatalf("updated device %s not rolled back: %s", id, state[id])
		}
	}
}

// TestUnreadableHealthFailsGate: a device whose post-bake health cannot
// be read must count against the gate, not pass as a zero-error idle one.
func TestUnreadableHealthFailsGate(t *testing.T) {
	ft := newFakeTarget(10)
	ft.failHealth[ft.ids[3]] = true
	c := NewController(engine.New(engine.Config{Workers: 4}))
	res, err := c.Run(ft, Config{Seed: 2, Waves: []Wave{{Name: "all", Fraction: 1}}, Bake: ft.bake})
	if err != nil {
		t.Fatal(err)
	}
	w := res.Waves[0]
	if w.Gate.Pass || w.Gate.HealthFailures != 1 {
		t.Fatalf("gate = %+v", w.Gate)
	}
	found := false
	for _, o := range w.Outcomes {
		if o.DeviceID == ft.ids[3] {
			found = o.HealthErr != ""
		}
	}
	if !found || ft.state()[ft.ids[3]] != "v1" {
		t.Fatal("unreadable device's outcome not recorded/rolled back")
	}
	// With tolerance, the same wave passes.
	ft2 := newFakeTarget(10)
	ft2.failHealth[ft2.ids[3]] = true
	res2, err := c.Run(ft2, Config{
		Seed: 2, Waves: []Wave{{Name: "all", Fraction: 1}},
		Gate: Gate{MaxUpdateFailures: 1}, Bake: ft2.bake,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Completed {
		t.Fatalf("tolerated health failure still failed: %+v", res2.Waves[0].Gate)
	}
}

// TestPanickingHealthFailsGate: a health read that panics is a failed
// read, so it counts against the gate instead of passing as a device with
// zero errors.
func TestPanickingHealthFailsGate(t *testing.T) {
	ft := newFakeTarget(4)
	ft.panicHealth[ft.ids[1]] = true
	c := NewController(engine.New(engine.Config{Workers: 4}))
	res, err := c.Run(ft, Config{Seed: 2, Waves: []Wave{{Name: "all", Fraction: 1}}, Bake: ft.bake})
	if err != nil {
		t.Fatal(err)
	}
	w := res.Waves[0]
	if w.Gate.Pass || w.Gate.HealthFailures != 1 || len(ft.rollback) != 4 {
		t.Fatalf("gate = %+v, rolled back %v", w.Gate, ft.rollback)
	}
	for _, o := range w.Outcomes {
		if panicked := strings.Contains(o.HealthErr, "panicked"); panicked != (o.DeviceID == ft.ids[1]) {
			t.Fatalf("outcome %+v", o)
		}
	}
}

// TestFailedRollbackIsAnError: a revert that errors or panics leaves its
// device on the ungated version, so Run returns an error naming each such
// device and its cause, in wave order, beside the Result that records them.
func TestFailedRollbackIsAnError(t *testing.T) {
	ft := newFakeTarget(4)
	for _, id := range ft.ids {
		ft.driftOn[id] = true // the single wave fails its gate
	}
	ft.failRollback[ft.ids[1]] = true
	ft.panicRollback[ft.ids[2]] = true
	c := NewController(engine.New(engine.Config{Workers: 4}))
	res, err := c.Run(ft, Config{Seed: 2, Waves: []Wave{{Name: "all", Fraction: 1}}, Bake: ft.bake})
	if res == nil || res.Waves[0].Gate.Pass {
		t.Fatalf("result = %+v", res)
	}
	var want []string
	for _, id := range res.Waves[0].DeviceIDs {
		switch id {
		case ft.ids[1]:
			want = append(want, `rollout: wave "all": rollback dev-001: device dev-001 lost power mid-revert`)
		case ft.ids[2]:
			want = append(want, `rollout: wave "all": rollback dev-002: rollback panicked: slot B image missing`)
		}
	}
	if got := fmt.Sprint(err); got != strings.Join(want, "\n") {
		t.Fatalf("Run error\n  expected: %q\n  actual: %q", strings.Join(want, "\n"), got)
	}
	state := ft.state()
	for i, id := range ft.ids {
		if failed := i == 1 || i == 2; (state[id] == "v2") != failed {
			t.Fatalf("device %s on %s after the wave's revert", id, state[id])
		}
	}
}

// TestBakeFailureRollsBackWave: a bake error means the wave was never
// judged on real traffic, so its devices revert before Run surfaces the
// error — with the partial Result still returned for the record.
func TestBakeFailureRollsBackWave(t *testing.T) {
	ft := newFakeTarget(12)
	c := NewController(engine.New(engine.Config{Workers: 4}))
	res, err := c.Run(ft, Config{Seed: 9, Bake: func(w Wave, ids []string) error {
		if w.Name == "cohort" {
			return fmt.Errorf("traffic generator crashed")
		}
		return ft.bake(w, ids)
	}})
	if err == nil {
		t.Fatal("bake failure not surfaced")
	}
	if res == nil || len(res.Waves) != 2 {
		t.Fatalf("partial result = %+v", res)
	}
	w := res.Waves[1]
	if w.Gate.Pass || !strings.Contains(strings.Join(w.Gate.Reasons, ";"), "bake failed") {
		t.Fatalf("bake-failed wave = %+v", w)
	}
	state := ft.state()
	for _, id := range w.DeviceIDs {
		if state[id] != "v1" {
			t.Fatalf("device %s kept the unbaked version", id)
		}
	}
	for _, id := range res.Waves[0].DeviceIDs {
		if state[id] != "v2" {
			t.Fatalf("canary %s lost its gated update", id)
		}
	}
}

func TestWaveValidation(t *testing.T) {
	ft := newFakeTarget(4)
	c := NewController(nil)
	if _, err := c.Run(ft, Config{Waves: []Wave{{Name: "a", Fraction: 0.5}, {Name: "b", Fraction: 0.5}}}); err == nil {
		t.Fatal("non-increasing fractions accepted")
	}
	if _, err := c.Run(ft, Config{Waves: []Wave{{Name: "a", Fraction: 1.5}}}); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
	if _, err := c.Run(newFakeTarget(0), Config{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
}

// TestRolloutDeterministicAcrossWorkerCounts runs the same rollout — with
// a gate failure in the middle wave — at 1, 4 and 16 workers and demands
// bit-identical Results and end states.
func TestRolloutDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) (*Result, map[string]string) {
		ft := newFakeTarget(50)
		groups, err := assignWaves(ft.ids, DefaultWaves(), 42)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range groups[1] {
			ft.driftOn[id] = true
		}
		// A couple of deterministic update failures in the canary, below
		// the tolerance so the rollout still reaches the failing wave.
		ft.failUpdate[groups[0][0]] = true
		c := NewController(engine.New(engine.Config{Workers: workers}))
		res, err := c.Run(ft, Config{Seed: 42, Gate: Gate{MaxUpdateFailures: 2}, Bake: ft.bake})
		if err != nil {
			t.Fatal(err)
		}
		return res, ft.state()
	}
	res1, state1 := run(1)
	for _, workers := range []int{4, 16} {
		resN, stateN := run(workers)
		if !reflect.DeepEqual(res1, resN) {
			t.Fatalf("result diverged at %d workers:\n1:  %+v\n%d: %+v", workers, res1, workers, resN)
		}
		if !reflect.DeepEqual(state1, stateN) {
			t.Fatalf("fleet state diverged at %d workers", workers)
		}
	}
}

// flakyTarget wraps fakeTarget so each marked device fails its first K
// update attempts with a transient error before succeeding.
type flakyTarget struct {
	*fakeTarget
	mu       sync.Mutex
	failures map[string]int // device -> remaining transient failures
	calls    map[string]int
}

var errTransient = fmt.Errorf("transient link drop")

func (t *flakyTarget) Update(id string) (Transfer, error) {
	t.mu.Lock()
	t.calls[id]++
	remaining := t.failures[id]
	if remaining > 0 {
		t.failures[id] = remaining - 1
	}
	t.mu.Unlock()
	if remaining > 0 {
		return Transfer{}, fmt.Errorf("%s: %w", id, errTransient)
	}
	return t.fakeTarget.Update(id)
}

func TestRetryHealsTransientUpdateFailures(t *testing.T) {
	base := newFakeTarget(10)
	flaky := &flakyTarget{
		fakeTarget: base,
		failures:   map[string]int{"dev-000": 2, "dev-004": 1, "dev-007": 3},
		calls:      make(map[string]int),
	}
	ctl := NewController(engine.New(engine.Config{Workers: 4}))
	res, err := ctl.Run(flaky, Config{
		Waves: []Wave{{Name: "all", Fraction: 1}},
		Retry: engine.RetryPolicy{Attempts: 3},
		Retryable: func(err error) bool {
			return strings.Contains(err.Error(), "transient")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// dev-007 needed 4 attempts but only 3 were allowed: one failure.
	wave := res.Waves[0]
	if wave.Gate.UpdateFailures != 1 {
		t.Fatalf("update failures = %d, want 1 (only dev-007 exhausts retries)", wave.Gate.UpdateFailures)
	}
	for _, o := range wave.Outcomes {
		switch o.DeviceID {
		case "dev-000":
			if o.Attempts != 3 || o.UpdateErr != "" {
				t.Fatalf("dev-000 attempts=%d err=%q", o.Attempts, o.UpdateErr)
			}
		case "dev-004":
			if o.Attempts != 2 || o.UpdateErr != "" {
				t.Fatalf("dev-004 attempts=%d err=%q", o.Attempts, o.UpdateErr)
			}
		case "dev-007":
			if o.Attempts != 3 || o.UpdateErr == "" {
				t.Fatalf("dev-007 attempts=%d err=%q", o.Attempts, o.UpdateErr)
			}
		default:
			if o.Attempts != 1 {
				t.Fatalf("%s attempts=%d, want 1", o.DeviceID, o.Attempts)
			}
		}
	}
	if flaky.calls["dev-007"] != 3 {
		t.Fatalf("dev-007 called %d times, want 3", flaky.calls["dev-007"])
	}
}

func TestRetryStopsOnPermanentFailure(t *testing.T) {
	base := newFakeTarget(4)
	base.failUpdate["dev-002"] = true // permanent: "device dev-002 offline"
	flaky := &flakyTarget{fakeTarget: base, failures: map[string]int{}, calls: make(map[string]int)}
	ctl := NewController(nil)
	res, err := ctl.Run(flaky, Config{
		Waves:     []Wave{{Name: "all", Fraction: 1}},
		Gate:      Gate{MaxUpdateFailures: 4},
		Retry:     engine.RetryPolicy{Attempts: 5},
		Retryable: func(err error) bool { return strings.Contains(err.Error(), "transient") },
	})
	if err != nil {
		t.Fatal(err)
	}
	if flaky.calls["dev-002"] != 1 {
		t.Fatalf("permanent failure retried %d times, want 1", flaky.calls["dev-002"])
	}
	for _, o := range res.Waves[0].Outcomes {
		if o.DeviceID == "dev-002" && (o.Attempts != 1 || o.UpdateErr == "") {
			t.Fatalf("dev-002 outcome %+v", o)
		}
	}
}
