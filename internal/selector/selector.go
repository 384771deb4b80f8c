package selector

import (
	"fmt"
	"time"

	"tinymlops/internal/device"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
)

// The objective is fixed: accuracy, minus latency, download and energy
// penalties at the weights used across the experiments. The latency and
// download penalties are unit-free against absolute budgets — a candidate at
// the budget costs its full weight, one far below it almost nothing. Energy
// is normalized relative to the most expensive feasible candidate (what
// matters for battery life is the choice among alternatives).
const (
	wAccuracy float64 = 1.0
	wLatency  float64 = 0.4
	wDownload float64 = 0.15
	wEnergy   float64 = 0.15

	latencyRef  = 100 * time.Millisecond
	downloadRef = 60 * time.Second
)

// Policy sets the hard constraints of a selection and whether the objective
// looks at the battery.
type Policy struct {
	// MinAccuracy rejects variants below this validation accuracy.
	MinAccuracy float64
	// MaxLatency rejects variants whose modeled inference latency exceeds
	// this bound (0 = unbounded).
	MaxLatency time.Duration
	// Schemes, when non-empty, restricts candidates to these weight
	// precisions — the operational knob for pinning a cohort to a runtime
	// (e.g. Float32 only while the integer serving path canaries, or Int8
	// only to force native execution on capable hardware).
	Schemes []quant.Scheme
	// Kinds lists the artifact kinds the policy accepts. Empty means
	// network artifacts only: compiled variants (registry.KindProcVM) are
	// never selected by accident — a cohort opts in explicitly, mirroring
	// the Schemes pin.
	Kinds []string

	// BatteryAware drops the energy penalty on a charging device and boosts
	// its weight ×4 when the device is below 30% battery and not charging.
	BatteryAware bool
}

// DefaultPolicy is the experiments' policy: no hard constraint, battery-aware.
func DefaultPolicy() Policy { return Policy{BatteryAware: true} }

// Evaluation is the per-candidate record of a selection decision.
type Evaluation struct {
	Version  *registry.ModelVersion
	Feasible bool
	// Reason explains infeasibility ("op conv2d unsupported", "flash", ...).
	Reason string

	Latency      time.Duration
	DownloadTime time.Duration
	EnergyJoule  float64
	Score        float64
}

// Decision is the outcome of Select: the chosen variant plus the full
// evaluation table (which experiment E2 prints).
type Decision struct {
	Chosen      *Evaluation
	Evaluations []Evaluation
}

// Select evaluates all candidate versions against a device and returns the
// best feasible one under the policy. It returns an error if no candidate
// is feasible.
func Select(dev *device.Device, candidates []*registry.ModelVersion, policy Policy) (Decision, error) {
	if len(candidates) == 0 {
		return Decision{}, fmt.Errorf("selector: no candidates")
	}
	evals := make([]Evaluation, 0, len(candidates))
	bw := dev.Net().Bandwidth()
	for _, v := range candidates {
		ev := Evaluation{Version: v}
		if reason := feasibility(dev, v, policy); reason != "" {
			ev.Reason = reason
			evals = append(evals, ev)
			continue
		}
		ev.Feasible = true
		ev.Latency = dev.Caps.InferenceLatency(v.Metrics.MACs, v.Scheme.Bits())
		ev.EnergyJoule = dev.Caps.InferenceEnergy(v.Metrics.MACs)
		if bw > 0 {
			ev.DownloadTime = time.Duration(float64(v.Metrics.SizeBytes) / bw * float64(time.Second))
		} else {
			// Offline: the variant must wait for connectivity; penalize
			// with a large but finite stand-in so scoring still orders by size.
			ev.DownloadTime = time.Duration(v.Metrics.SizeBytes) * time.Millisecond
		}
		if policy.MaxLatency > 0 && ev.Latency > policy.MaxLatency {
			ev.Feasible = false
			ev.Reason = fmt.Sprintf("latency %v exceeds bound %v", ev.Latency, policy.MaxLatency)
		}
		evals = append(evals, ev)
	}

	// Energy is normalized relative to the most expensive feasible
	// candidate; latency and download against the absolute budgets.
	var maxEn float64
	feasibleCount := 0
	for _, ev := range evals {
		if !ev.Feasible {
			continue
		}
		feasibleCount++
		if ev.EnergyJoule > maxEn {
			maxEn = ev.EnergyJoule
		}
	}
	if feasibleCount == 0 {
		return Decision{Evaluations: evals}, fmt.Errorf("selector: no feasible variant for device %s", dev.ID)
	}
	energyWeight := wEnergy
	if policy.BatteryAware {
		switch {
		case dev.Charging():
			// Wall power or charger: energy is a non-issue (§III-A).
			energyWeight = 0
		case dev.BatteryLevel() < 0.3:
			// Running low: energy dominates.
			energyWeight *= 4
		}
	}
	best := -1
	for i := range evals {
		ev := &evals[i]
		if !ev.Feasible {
			continue
		}
		score := wAccuracy * ev.Version.Metrics.Accuracy
		score -= wLatency * capAt1(float64(ev.Latency)/float64(latencyRef))
		score -= wDownload * capAt1(float64(ev.DownloadTime)/float64(downloadRef))
		if maxEn > 0 {
			score -= energyWeight * ev.EnergyJoule / maxEn
		}
		ev.Score = score
		if best < 0 || score > evals[best].Score {
			best = i
		}
	}
	return Decision{Chosen: &evals[best], Evaluations: evals}, nil
}

// capAt1 clamps a normalized cost to [0,1] so one blown budget cannot
// dominate every other objective by an unbounded margin.
func capAt1(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}

func feasibility(dev *device.Device, v *registry.ModelVersion, policy Policy) string {
	if len(policy.Kinds) == 0 {
		if v.Kind != registry.KindNetwork {
			return fmt.Sprintf("artifact kind %q excluded by policy", v.Kind)
		}
	} else {
		allowed := false
		for _, k := range policy.Kinds {
			if v.Kind == k {
				allowed = true
				break
			}
		}
		if !allowed {
			return fmt.Sprintf("artifact kind %q excluded by policy", v.Kind)
		}
	}
	if len(policy.Schemes) > 0 {
		allowed := false
		for _, s := range policy.Schemes {
			if v.Scheme == s {
				allowed = true
				break
			}
		}
		if !allowed {
			return fmt.Sprintf("scheme %v excluded by policy", v.Scheme)
		}
	}
	for _, op := range v.OpKinds {
		if !dev.Caps.SupportsOp(op) {
			return fmt.Sprintf("op %q unsupported", op)
		}
	}
	if err := dev.CheckFit(int64(v.Metrics.SizeBytes), v.Metrics.PeakActivationBytes); err != nil {
		return err.Error()
	}
	if v.Metrics.Accuracy < policy.MinAccuracy {
		return fmt.Sprintf("accuracy %.3f below floor %.3f", v.Metrics.Accuracy, policy.MinAccuracy)
	}
	return ""
}
