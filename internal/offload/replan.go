package offload

import (
	"fmt"
	"time"

	"tinymlops/internal/device"
	"tinymlops/internal/market"
	"tinymlops/internal/nn"
)

// Conditions is the live telemetry a replanner watches: the device's
// current uplink and its battery level.
type Conditions struct {
	// BandwidthBps is the device's uplink in bytes/second (0 = offline).
	BandwidthBps float64
	// Battery is the device battery fraction in [0,1].
	Battery float64
}

// The hysteresis is two-stage and fixed: conditions must drift past a
// trigger threshold before the planner even re-evaluates, and a new cut is
// adopted only when its predicted total beats the current cut's total
// (under the new conditions) by minGain — so small oscillations in bandwidth
// or battery never make the cut flap.
const (
	// bandwidthFactor and batteryDelta trigger re-evaluation: bandwidth moved
	// by at least this factor (either direction) since the last plan or
	// crossed zero, or the battery fraction moved by at least this much.
	bandwidthFactor float64 = 2
	batteryDelta    float64 = 0.25
	// minGain is the fractional improvement a new cut must show before it
	// replaces the current one.
	minGain float64 = 0.15
	// lowBattery switches the objective from latency to device energy: below
	// it a battery-powered device picks the cut that spends the fewest
	// joules, not the fastest answer.
	lowBattery float64 = 0.1
)

// ReplanConfig tunes a session's re-planning loop.
type ReplanConfig struct {
	// RTT is the fixed round-trip added to any plan touching the cloud.
	RTT time.Duration
	// Disabled freezes the initial plan for the session's lifetime.
	Disabled bool
}

// Replanner owns a session's live SplitPlan: it re-runs market.BestSplit
// when observed conditions drift past the trigger thresholds and moves the
// cut only when the predicted gain clears the hysteresis bar. Not safe
// for concurrent use — the owning session serializes access.
type Replanner struct {
	cfg        ReplanConfig
	dev, cloud device.Capabilities
	costs      []nn.LayerCost
	bits       int
	inputBytes int64

	plan    market.SplitPlan
	planned Conditions
	replans int64
}

// NewReplanner seeds a replanner with the plan for the initial conditions,
// or with the explicit initial plan when non-nil.
func NewReplanner(cfg ReplanConfig, dev, cloud device.Capabilities, costs []nn.LayerCost, bits int, inputBytes int64, initial *market.SplitPlan, cond Conditions) (*Replanner, error) {
	r := &Replanner{
		cfg: cfg, dev: dev, cloud: cloud, costs: costs,
		bits: bits, inputBytes: inputBytes, planned: cond,
	}
	if initial != nil {
		if initial.Cut < 0 || initial.Cut > len(costs) {
			return nil, fmt.Errorf("offload: initial cut %d out of range [0,%d]", initial.Cut, len(costs))
		}
		r.plan = *initial
		return r, nil
	}
	best, _, err := market.BestSplit(costs, dev, cloud, bits, cond.BandwidthBps, cfg.RTT, inputBytes)
	if err != nil {
		return nil, err
	}
	r.plan = best
	return r, nil
}

// Observe feeds the replanner one snapshot of live conditions and returns
// the plan in force plus whether this observation moved the cut.
func (r *Replanner) Observe(cond Conditions) (market.SplitPlan, bool) {
	if r.cfg.Disabled || !r.drifted(cond) {
		return r.plan, false
	}
	r.replans++
	r.planned = cond // anchor hysteresis to what we just evaluated
	best, curve, err := market.BestSplit(r.costs, r.dev, r.cloud, r.bits, cond.BandwidthBps, r.cfg.RTT, r.inputBytes)
	if err != nil {
		return r.plan, false
	}
	oldCut := r.plan.Cut
	// Offline leaves exactly one valid plan: everything on-device.
	if cond.BandwidthBps == 0 {
		r.plan = best
		return r.plan, r.plan.Cut != oldCut
	}
	current := curve[oldCut] // same cut, re-costed under the new conditions
	candidate := best
	if r.dev.BatteryJoule > 0 && cond.Battery < lowBattery {
		candidate = r.minEnergyPlan(curve)
		// Energy hysteresis: move only for a minGain energy saving.
		if r.deviceEnergy(candidate.Cut) > (1-minGain)*r.deviceEnergy(oldCut) {
			candidate = current
		}
	} else if float64(candidate.Total) > (1-minGain)*float64(current.Total) {
		// The best cut doesn't beat the current one by enough: keep it.
		candidate = current
	}
	r.plan = candidate
	return r.plan, r.plan.Cut != oldCut
}

// drifted reports whether conditions moved past a trigger threshold since
// the last (re)plan.
func (r *Replanner) drifted(c Conditions) bool {
	was, now := r.planned.BandwidthBps, c.BandwidthBps
	switch {
	case (was == 0) != (now == 0):
		return true
	case was > 0 && now > 0:
		ratio := now / was
		if ratio < 1 {
			ratio = 1 / ratio
		}
		if ratio >= bandwidthFactor {
			return true
		}
	}
	diff := c.Battery - r.planned.Battery
	return diff >= batteryDelta || -diff >= batteryDelta
}

// txBytes is the planner's approximation of what crosses the uplink at a
// cut — the same figure BestSplit prices.
func (r *Replanner) txBytes(cut int) int64 {
	switch {
	case cut == len(r.costs):
		return 0
	case cut == 0:
		return r.inputBytes
	default:
		return 4 * r.costs[cut-1].Info.ActivationFloats
	}
}

// deviceEnergy is the modeled device-side joules of one query at a cut:
// prefix compute plus radio transmit.
func (r *Replanner) deviceEnergy(cut int) float64 {
	var macs int64
	for _, c := range r.costs[:cut] {
		macs += c.Info.MACs
	}
	return r.dev.InferenceEnergy(macs) + float64(r.txBytes(cut))*r.dev.EnergyPerTxByteJoule
}

// minEnergyPlan picks the curve entry minimizing device-side energy,
// breaking ties toward the lower latency.
func (r *Replanner) minEnergyPlan(curve []market.SplitPlan) market.SplitPlan {
	best := curve[0]
	bestE := r.deviceEnergy(best.Cut)
	for _, p := range curve[1:] {
		e := r.deviceEnergy(p.Cut)
		if e < bestE || (e == bestE && p.Total < best.Total) {
			best, bestE = p, e
		}
	}
	return best
}
