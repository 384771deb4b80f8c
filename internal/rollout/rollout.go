package rollout

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"tinymlops/internal/engine"
	"tinymlops/internal/tensor"
)

// Health is one device's telemetry summary over a reporting window — what
// the gate reads before and after an update. The controller only compares
// these; it never sees raw inputs (§III-B).
type Health struct {
	// Inferences served and Errors (denied or failed queries) in the window.
	Inferences uint64
	Errors     uint64
	// MeanLatencyUS is the modeled mean execution time in microseconds.
	MeanLatencyUS float64
	// DriftAlarm reports a latched on-device drift detector.
	DriftAlarm bool
}

// Transfer is the accounting of one device's update shipment.
type Transfer struct {
	// ShipBytes went over the radio; FlashBytes were rewritten on device.
	ShipBytes  int64
	FlashBytes int64
	// UsedDelta reports whether a sparse weight delta was shipped instead
	// of the full artifact.
	UsedDelta bool
	// PeerBytes and RegistryBytes split ShipBytes by serving side for
	// swarm-mode transfers: neighbors versus the vendor registry. Both are
	// zero in registry-direct mode, where every shipped byte is registry
	// egress by definition.
	PeerBytes     int64
	RegistryBytes int64
	// FromID/ToID are the version IDs before and after the update. Equal
	// IDs mean the update was a no-op (the device already ran the target
	// bytes): nothing shipped, nothing to roll back.
	FromID, ToID string
}

// Unchanged reports a no-op update: the device was already on the target.
func (t Transfer) Unchanged() bool { return t.FromID == t.ToID }

// Target is the fleet the controller operates on. internal/core adapts a
// live Platform; tests use in-memory fakes. All methods must be safe for
// concurrent use — waves fan out over a worker pool — and deterministic
// given the device ID, so rollouts reproduce at any worker count.
type Target interface {
	// DeviceIDs lists the devices eligible for this rollout.
	DeviceIDs() []string
	// Baseline returns a device's pre-update health (the comparison floor
	// for regression gating).
	Baseline(deviceID string) (Health, error)
	// Update moves the device to the rollout's target version.
	Update(deviceID string) (Transfer, error)
	// Health returns the device's post-update, post-bake health.
	Health(deviceID string) (Health, error)
	// Rollback reverts the device to its pre-update version.
	Rollback(deviceID string) error
}

// Wave is one stage of a rollout: its name and the cumulative fraction of
// the fleet that has the new version once the wave completes.
type Wave struct {
	Name string
	// Fraction in (0, 1]; waves must be strictly increasing. A wave covers
	// the devices between the previous wave's cumulative count and
	// round(Fraction × fleet size).
	Fraction float64
}

// DefaultWaves is the canary → cohort → fleet progression.
func DefaultWaves() []Wave {
	return []Wave{
		{Name: "canary", Fraction: 0.1},
		{Name: "cohort", Fraction: 0.5},
		{Name: "fleet", Fraction: 1.0},
	}
}

// Gate sets the health thresholds a wave must clear. The zero value is the
// default gate: zero tolerance for drift alarms, ≤ 10% error rate, and a
// mean latency regression of at most 50% over the pre-update baseline.
type Gate struct {
	// MaxDriftFraction is the tolerated fraction of wave devices with a
	// latched drift alarm after the bake window (0 = any alarm fails).
	MaxDriftFraction float64
	// MaxErrorRate bounds errors/(inferences+errors) across the wave after
	// the update (0 = default 0.10).
	MaxErrorRate float64
	// MaxLatencyIncrease bounds the mean post/baseline latency ratio to
	// 1+MaxLatencyIncrease (0 = default 0.50).
	MaxLatencyIncrease float64
	// MaxUpdateFailures is the tolerated count of devices whose update
	// itself failed (offline, battery, fit); exceeding it fails the wave.
	MaxUpdateFailures int
}

func (g Gate) withDefaults() Gate {
	if g.MaxErrorRate == 0 {
		g.MaxErrorRate = 0.10
	}
	if g.MaxLatencyIncrease == 0 {
		g.MaxLatencyIncrease = 0.50
	}
	return g
}

// Config controls one rollout.
type Config struct {
	// Waves defaults to DefaultWaves().
	Waves []Wave
	// Gate thresholds (zero value = defaults, see Gate).
	Gate Gate
	// Seed drives the deterministic wave assignment: devices are sorted by
	// ID, then shuffled by a Seed-keyed permutation so canary membership is
	// unbiased but reproducible.
	Seed uint64
	// Bake, when non-nil, runs between a wave's update and its gate — the
	// "watch the new version in the wild" window. The caller drives
	// representative traffic through the listed devices; the gate then
	// reads the health that traffic produced.
	Bake func(wave Wave, deviceIDs []string) error
	// BeforeWave, when non-nil, runs serially before a wave's update
	// fan-out. The fault plane uses it to impose each wave's weather
	// (connectivity, batteries, crash injectors) on the fleet — churn
	// between waves lives here.
	BeforeWave func(wave Wave, deviceIDs []string)
	// AfterWave, when non-nil, runs serially after a wave passes its gate.
	// The swarm distribution plane promotes the wave's freshly-updated
	// devices to chunk seeders here, so they serve the next wave; a failed
	// (rolled-back) wave never reaches it.
	AfterWave func(wave Wave, deviceIDs []string)
	// Retry bounds per-device update attempts within a wave (zero value =
	// a single attempt). Retries run inline in the device's own indexed
	// task, so a flaky fleet still rolls out bit-identically at any worker
	// count.
	Retry engine.RetryPolicy
	// Retryable classifies update errors worth another attempt (nil
	// retries everything). Pass a transient-fault classifier so permanent
	// failures — no credit, topology mismatch — fail fast.
	Retryable func(error) bool
}

// DeviceOutcome is one device's result within a wave.
type DeviceOutcome struct {
	DeviceID string
	Transfer Transfer
	// UpdateErr is the update failure, if any ("" = updated). A panic in
	// Target.Update is captured here too — a device left in an unknown
	// state must count as a failure, not a healthy no-op.
	UpdateErr string
	// Attempts is how many update tries the device took (1 = first try
	// succeeded; >1 means the retry policy recovered a transient fault).
	Attempts int
	// HealthErr records a failed post-bake health read. An unreadable
	// device cannot prove it is healthy, so the gate counts it against
	// the update-failure tolerance instead of assuming zero errors.
	HealthErr string
	// RollbackErr records a failed or panicking revert of a device the
	// wave's failure rolled back — the operational worst case. Run returns
	// an error naming every such device, so it is never swallowed.
	RollbackErr string
}

// GateDecision is the gate's verdict over one wave.
type GateDecision struct {
	Pass bool
	// Reasons lists every threshold that failed, in a fixed order.
	Reasons []string
	// Aggregates behind the verdict.
	UpdateFailures int
	HealthFailures int
	DriftAlarms    int
	ErrorRate      float64
	LatencyRatio   float64
}

// WaveResult is one wave's full record.
type WaveResult struct {
	Wave      Wave
	DeviceIDs []string
	Outcomes  []DeviceOutcome
	Gate      GateDecision
}

// Result is the whole rollout's record.
type Result struct {
	Waves []WaveResult
	// Completed is true when every wave passed its gate.
	Completed bool
	// Transfer accounting across all waves. TotalPeerBytes and
	// TotalRegistryBytes carry the swarm-mode source split (zero in
	// registry-direct mode, where TotalShipBytes is all registry egress).
	TotalShipBytes     int64
	TotalFlashBytes    int64
	TotalPeerBytes     int64
	TotalRegistryBytes int64
	DeltaTransfers     int
	FullTransfers      int
}

// Controller runs staged rollouts on a worker pool.
type Controller struct {
	eng *engine.Engine
}

// NewController returns a controller fanning out on eng (nil = all cores).
func NewController(eng *engine.Engine) *Controller {
	if eng == nil {
		eng = engine.Default()
	}
	return &Controller{eng: eng}
}

// assignWaves sorts the device IDs, shuffles them with a seed-keyed
// permutation and slices them into per-wave groups by cumulative fraction.
// Sorting first makes the assignment a pure function of (fleet, seed),
// independent of Target iteration order.
func assignWaves(ids []string, waves []Wave, seed uint64) ([][]string, error) {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	rng := tensor.NewRNG(seed)
	perm := rng.Perm(len(sorted))
	shuffled := make([]string, len(sorted))
	for i, p := range perm {
		shuffled[i] = sorted[p]
	}
	out := make([][]string, len(waves))
	prevFrac, prevEnd := 0.0, 0
	for i, w := range waves {
		if w.Fraction <= prevFrac || w.Fraction > 1 {
			return nil, fmt.Errorf("rollout: wave %q fraction %.3f must be in (%.3f, 1]", w.Name, w.Fraction, prevFrac)
		}
		end := int(math.Round(w.Fraction * float64(len(shuffled))))
		if end <= prevEnd && prevEnd < len(shuffled) {
			end = prevEnd + 1 // every wave advances when devices remain
		}
		if end > len(shuffled) {
			end = len(shuffled)
		}
		out[i] = shuffled[prevEnd:end]
		prevFrac, prevEnd = w.Fraction, end
	}
	return out, nil
}

// Run drives the target through the configured waves. It stops at the
// first wave whose gate fails, rolling that wave (and only that wave) back
// — earlier waves passed their gates on real traffic and keep the update.
// The returned Result is deterministic for a given (target state, config),
// whatever the controller's worker count. A revert that fails or panics
// leaves its device on the ungated version: Run then returns the Result
// with an error naming each such device and its cause.
func (c *Controller) Run(t Target, cfg Config) (*Result, error) {
	waves := cfg.Waves
	if len(waves) == 0 {
		waves = DefaultWaves()
	}
	gate := cfg.Gate.withDefaults()
	ids := t.DeviceIDs()
	if len(ids) == 0 {
		return nil, fmt.Errorf("rollout: no eligible devices")
	}
	groups, err := assignWaves(ids, waves, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for wi, wave := range waves {
		group := groups[wi]
		wr := WaveResult{Wave: wave, DeviceIDs: group}
		if len(group) == 0 {
			wr.Gate = GateDecision{Pass: true}
			res.Waves = append(res.Waves, wr)
			continue
		}
		if cfg.BeforeWave != nil {
			cfg.BeforeWave(wave, append([]string(nil), group...))
		}

		// Capture each device's pre-update baseline, then update, in one
		// indexed fan-out: results land in slots keyed by index, so the
		// outcome is schedule-independent. The outcome slot is written in
		// a defer so a panicking Target.Update is recorded as a failure
		// (with its message) rather than surviving as a healthy-looking
		// zero outcome.
		baselines := make([]Health, len(group))
		wr.Outcomes = make([]DeviceOutcome, len(group))
		_ = c.eng.ForEach(len(group), func(i int) error {
			id := group[i]
			out := DeviceOutcome{DeviceID: id, UpdateErr: "update task aborted"}
			defer func() {
				if r := recover(); r != nil {
					out.UpdateErr = fmt.Sprintf("update panicked: %v", r)
				}
				wr.Outcomes[i] = out
			}()
			if b, berr := t.Baseline(id); berr == nil {
				baselines[i] = b
			}
			// Transient faults (a dropped link, a crash mid-flash) retry
			// inline under the deterministic policy. An interrupted install
			// that resumes on the next attempt is the whole point: the
			// device finishes flashing the remainder instead of failing the
			// wave or re-shipping the image from byte zero.
			var tr Transfer
			attempts, uerr := engine.Retry(cfg.Retry, cfg.Retryable, func(int) error {
				var terr error
				tr, terr = t.Update(id)
				return terr
			})
			out.Attempts = attempts
			if uerr != nil {
				out.UpdateErr = uerr.Error()
			} else {
				out.UpdateErr = ""
				out.Transfer = tr
			}
			return nil
		})
		for _, o := range wr.Outcomes {
			if o.UpdateErr != "" || o.Transfer.Unchanged() {
				continue
			}
			res.TotalShipBytes += o.Transfer.ShipBytes
			res.TotalFlashBytes += o.Transfer.FlashBytes
			res.TotalPeerBytes += o.Transfer.PeerBytes
			res.TotalRegistryBytes += o.Transfer.RegistryBytes
			if o.Transfer.UsedDelta {
				res.DeltaTransfers++
			} else {
				res.FullTransfers++
			}
		}

		// Bake: the caller exercises the new version on the wave devices. A
		// bake failure means the wave was never judged on real traffic, so
		// its devices are reverted like a failed gate before the error is
		// surfaced — they must not keep running an ungated version.
		if cfg.Bake != nil {
			if err := cfg.Bake(wave, append([]string(nil), group...)); err != nil {
				wr.Gate = GateDecision{Reasons: []string{fmt.Sprintf("bake failed: %v", err)}}
				rerr := c.rollbackWave(t, group, &wr)
				res.Waves = append(res.Waves, wr)
				return res, errors.Join(fmt.Errorf("rollout: bake %q: %w", wave.Name, err), rerr)
			}
		}

		// Read post-bake health and judge the wave. A failed read is
		// recorded on the outcome: an unreachable device must not pass the
		// gate by looking like a zero-error idle one. A panicking read is a
		// failed read.
		posts := make([]Health, len(group))
		_ = c.eng.ForEach(len(group), func(i int) error {
			if wr.Outcomes[i].UpdateErr != "" {
				return nil
			}
			defer func() {
				if r := recover(); r != nil {
					wr.Outcomes[i].HealthErr = fmt.Sprintf("health read panicked: %v", r)
				}
			}()
			h, herr := t.Health(group[i])
			if herr != nil {
				wr.Outcomes[i].HealthErr = herr.Error()
				return nil
			}
			posts[i] = h
			return nil
		})
		wr.Gate = judge(gate, wr.Outcomes, baselines, posts)

		if !wr.Gate.Pass {
			// Roll the failing wave back; earlier waves keep the update.
			rerr := c.rollbackWave(t, group, &wr)
			res.Waves = append(res.Waves, wr)
			return res, rerr
		}
		if cfg.AfterWave != nil {
			cfg.AfterWave(wave, append([]string(nil), group...))
		}
		res.Waves = append(res.Waves, wr)
	}
	res.Completed = true
	return res, nil
}

// rollbackWave reverts every device the wave actually changed — update
// failures were never on the new version and no-op updates changed
// nothing, so neither is touched. A panicking revert is a failed one. It
// returns the failed reverts joined, in wave order; nil when all held.
func (c *Controller) rollbackWave(t Target, group []string, wr *WaveResult) error {
	_ = c.eng.ForEach(len(group), func(i int) error {
		if wr.Outcomes[i].UpdateErr != "" || wr.Outcomes[i].Transfer.Unchanged() {
			return nil
		}
		defer func() {
			if r := recover(); r != nil {
				wr.Outcomes[i].RollbackErr = fmt.Sprintf("rollback panicked: %v", r)
			}
		}()
		if rerr := t.Rollback(group[i]); rerr != nil {
			wr.Outcomes[i].RollbackErr = rerr.Error()
		}
		return nil
	})
	var errs []error
	for _, o := range wr.Outcomes {
		if o.RollbackErr != "" {
			errs = append(errs, fmt.Errorf("rollout: wave %q: rollback %s: %s", wr.Wave.Name, o.DeviceID, o.RollbackErr))
		}
	}
	return errors.Join(errs...)
}

// judge evaluates one wave's gate from index-aligned outcomes, baselines
// and post-bake health. Pure and serial: determinism lives here.
func judge(g Gate, outcomes []DeviceOutcome, baselines, posts []Health) GateDecision {
	var d GateDecision
	var inf, errs uint64
	var ratioSum float64
	var ratioN int
	for i := range outcomes {
		if outcomes[i].UpdateErr != "" {
			d.UpdateFailures++
			continue
		}
		if outcomes[i].HealthErr != "" {
			d.HealthFailures++
			continue
		}
		p := posts[i]
		if p.DriftAlarm {
			d.DriftAlarms++
		}
		inf += p.Inferences
		errs += p.Errors
		if b := baselines[i]; b.MeanLatencyUS > 0 && p.MeanLatencyUS > 0 {
			ratioSum += p.MeanLatencyUS / b.MeanLatencyUS
			ratioN++
		}
	}
	if inf+errs > 0 {
		d.ErrorRate = float64(errs) / float64(inf+errs)
	}
	d.LatencyRatio = 1
	if ratioN > 0 {
		d.LatencyRatio = ratioSum / float64(ratioN)
	}
	// Drift fraction is over devices that updated AND reported health.
	updated := len(outcomes) - d.UpdateFailures - d.HealthFailures
	if d.UpdateFailures > g.MaxUpdateFailures {
		d.Reasons = append(d.Reasons, fmt.Sprintf("update failures %d > %d", d.UpdateFailures, g.MaxUpdateFailures))
	}
	if d.HealthFailures > g.MaxUpdateFailures {
		d.Reasons = append(d.Reasons, fmt.Sprintf("unreadable post-update health on %d devices > %d", d.HealthFailures, g.MaxUpdateFailures))
	}
	if updated > 0 && float64(d.DriftAlarms)/float64(updated) > g.MaxDriftFraction {
		d.Reasons = append(d.Reasons, fmt.Sprintf("drift alarms on %d/%d devices exceed tolerance %.2f", d.DriftAlarms, updated, g.MaxDriftFraction))
	}
	if d.ErrorRate > g.MaxErrorRate {
		d.Reasons = append(d.Reasons, fmt.Sprintf("error rate %.3f > %.3f", d.ErrorRate, g.MaxErrorRate))
	}
	if d.LatencyRatio > 1+g.MaxLatencyIncrease {
		d.Reasons = append(d.Reasons, fmt.Sprintf("latency ratio %.2f > %.2f", d.LatencyRatio, 1+g.MaxLatencyIncrease))
	}
	d.Pass = len(d.Reasons) == 0
	return d
}
