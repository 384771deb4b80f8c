package offload

import (
	"fmt"
	"time"

	"tinymlops/internal/device"
	"tinymlops/internal/market"
	"tinymlops/internal/nn"
)

// Conditions is the live telemetry a replanner watches: the device's
// current uplink, its battery level, and the cloud tier's congestion.
type Conditions struct {
	// BandwidthBps is the device's uplink in bytes/second (0 = offline).
	BandwidthBps float64
	// Battery is the device battery fraction in [0,1].
	Battery float64
	// QueueDepth is the cloud admission queue's current depth.
	QueueDepth int
}

// ReplanConfig tunes when a session re-runs BestSplit and how reluctant it
// is to move the cut. The hysteresis is two-stage: conditions must drift
// past a trigger threshold before the planner even re-evaluates, and a new
// cut is adopted only when its predicted total beats the current cut's
// total (under the new conditions) by MinGain — so small oscillations in
// bandwidth or battery never make the cut flap.
type ReplanConfig struct {
	// Cloud models the cloud-side hardware (defaults to the tier's caps).
	Cloud device.Capabilities
	// RTT is the fixed round-trip added to any plan touching the cloud.
	RTT time.Duration
	// BandwidthFactor triggers re-evaluation when bandwidth moves by at
	// least this factor (either direction) since the last plan, or crosses
	// zero (default 2).
	BandwidthFactor float64
	// BatteryDelta triggers re-evaluation when the battery fraction moves
	// by at least this much since the last plan (default 0.25).
	BatteryDelta float64
	// QueueHigh, when positive, triggers re-evaluation when the cloud
	// queue depth crosses this level in either direction.
	QueueHigh int
	// QueuePenalty models congestion in the re-planned RTT: each queued
	// request adds this much (default 0 = congestion-blind).
	QueuePenalty time.Duration
	// MinGain is the fractional latency improvement a new cut must show
	// before it replaces the current one (default 0.15).
	MinGain float64
	// LowBattery switches the objective from latency to device energy
	// when a battery-powered device falls below this fraction (default
	// 0.1): a dying device picks the cut that spends the fewest joules,
	// not the fastest answer.
	LowBattery float64
	// Disabled freezes the initial plan for the session's lifetime.
	Disabled bool
}

func (c ReplanConfig) withDefaults(cloud device.Capabilities) ReplanConfig {
	if c.Cloud.Name == "" {
		c.Cloud = cloud
	}
	if c.BandwidthFactor <= 1 {
		c.BandwidthFactor = 2
	}
	if c.BatteryDelta <= 0 {
		c.BatteryDelta = 0.25
	}
	if c.MinGain <= 0 {
		c.MinGain = 0.15
	}
	if c.LowBattery == 0 {
		c.LowBattery = 0.1
	}
	return c
}

// Replanner owns a session's live SplitPlan: it re-runs market.BestSplit
// when observed conditions drift past the configured thresholds and moves
// the cut only when the predicted gain clears the hysteresis bar. Not safe
// for concurrent use — the owning session serializes access.
type Replanner struct {
	cfg        ReplanConfig
	dev        device.Capabilities
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
		cfg: cfg.withDefaults(cloud), dev: dev, costs: costs,
		bits: bits, inputBytes: inputBytes, planned: cond,
	}
	if initial != nil {
		if initial.Cut < 0 || initial.Cut > len(costs) {
			return nil, fmt.Errorf("offload: initial cut %d out of range [0,%d]", initial.Cut, len(costs))
		}
		r.plan = *initial
		return r, nil
	}
	best, _, err := market.BestSplit(costs, dev, r.cfg.Cloud, bits, cond.BandwidthBps, r.cfg.RTT, inputBytes)
	if err != nil {
		return nil, err
	}
	r.plan = best
	return r, nil
}

// Current returns the plan in force.
func (r *Replanner) Current() market.SplitPlan { return r.plan }

// Replans returns how many re-evaluations ran.
func (r *Replanner) Replans() int64 { return r.replans }

// Observe feeds the replanner one snapshot of live conditions and returns
// the plan in force plus whether this observation moved the cut.
func (r *Replanner) Observe(cond Conditions) (market.SplitPlan, bool) {
	if r.cfg.Disabled || !r.drifted(cond) {
		return r.plan, false
	}
	r.replans++
	r.planned = cond // anchor hysteresis to what we just evaluated
	rtt := r.cfg.RTT + time.Duration(cond.QueueDepth)*r.cfg.QueuePenalty
	best, curve, err := market.BestSplit(r.costs, r.dev, r.cfg.Cloud, r.bits, cond.BandwidthBps, rtt, r.inputBytes)
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
	if r.lowBattery(cond) {
		candidate = r.minEnergyPlan(curve)
		// Energy hysteresis: move only for a MinGain energy saving.
		if r.deviceEnergy(candidate.Cut) > (1-r.cfg.MinGain)*r.deviceEnergy(oldCut) {
			candidate = current
		}
	} else if float64(candidate.Total) > (1-r.cfg.MinGain)*float64(current.Total) {
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
		if ratio >= r.cfg.BandwidthFactor {
			return true
		}
	}
	if diff := c.Battery - r.planned.Battery; diff >= r.cfg.BatteryDelta || -diff >= r.cfg.BatteryDelta {
		return true
	}
	if r.cfg.QueueHigh > 0 && (c.QueueDepth >= r.cfg.QueueHigh) != (r.planned.QueueDepth >= r.cfg.QueueHigh) {
		return true
	}
	return false
}

func (r *Replanner) lowBattery(c Conditions) bool {
	return r.dev.BatteryJoule > 0 && r.cfg.LowBattery > 0 && c.Battery < r.cfg.LowBattery
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
