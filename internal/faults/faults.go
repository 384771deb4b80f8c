package faults

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tinymlops/internal/device"
	"tinymlops/internal/engine"
	"tinymlops/internal/fed"
	"tinymlops/internal/tensor"
)

// ChaosConfig sets the per-round fault rates, all probabilities in [0,1].
// The zero value injects nothing.
type ChaosConfig struct {
	// Seed roots every fault decision; the same seed reproduces the same
	// faults on the same fleet regardless of worker count.
	Seed uint64

	// PDrop is the chance a device's network is down for a whole round.
	PDrop float64
	// PSpike is the chance a connected device is degraded to the slow
	// cellular link for the round (a latency spike on every transfer).
	PSpike float64
	// PBatteryDeath is the chance a battery-powered device's battery dies
	// for the round; the next round it comes back swapped/recharged.
	PBatteryDeath float64
	// PCrash is the per-install-attempt chance of a power loss mid-flash,
	// leaving the inactive slot half-written (see device.InstallResumable
	// for the recovery contract).
	PCrash float64
	// PChurn is the chance a device leaves the fleet this round; it stays
	// away for this round and the next, then rejoins.
	PChurn float64
	// PTelemetryLoss is the chance a device's telemetry uplink is lost in
	// transit for the round (the device flushed; the cloud never saw it).
	PTelemetryLoss float64
	// PPeerDrop is the per-chunk-attempt chance a swarm peer vanishes
	// partway through serving a chunk; the fetcher keeps the bytes that
	// arrived and re-attempts the remainder from another source.
	PPeerDrop float64

	// PDropout and PStraggler drive the federated-client faults; a
	// straggler's modeled round time is multiplied by stragglerFactor.
	PDropout   float64
	PStraggler float64

	// Billing-fraud faults (the settlement phase's adversaries). Each is
	// the chance a device tampers with its settlement report in one of
	// the three canonical ways: inflating its tick count with fabricated
	// chain entries, replaying stale proofs over the sampled charges, or
	// relabeling its proofs to a different model version.
	POverclaim         float64
	PProofReplay       float64
	PWrongVersionProof float64
}

// FaultProfile is the set of faults one device draws for one round — a
// pure function of (seed, round, device ID).
type FaultProfile struct {
	// Offline means no connectivity for the round (network drop or churn).
	Offline bool
	// LatencySpike degrades a connected device to the cellular link.
	LatencySpike bool
	// BatteryDeath empties the battery for the round.
	BatteryDeath bool
	// Churned means the device left the fleet (it also drew Offline); it
	// rejoins after the absence ends.
	Churned bool
	// TelemetryLoss drops the round's telemetry uplink in transit.
	TelemetryLoss bool
	// Dropout and Straggler are the federated-client faults; a straggler
	// runs stragglerFactor× slower.
	Dropout   bool
	Straggler bool

	// Billing-fraud faults: the device tampers with its settlement report
	// (see TamperAttestedReport). Overclaim inflates the tick count with
	// fabricated chain entries; ProofReplay substitutes stale proofs for
	// the sampled charges; WrongVersionProof relabels proofs to another
	// model version.
	Overclaim         bool
	ProofReplay       bool
	WrongVersionProof bool
}

// Fraudulent reports whether the profile tampers with settlement.
func (f FaultProfile) Fraudulent() bool {
	return f.Overclaim || f.ProofReplay || f.WrongVersionProof
}

// stragglerFactor is how many times slower a federated straggler's modeled
// round runs.
const stragglerFactor = 8

// churnSpan is how many rounds a churned device stays away (the draw
// round plus the next), modeling leave→rejoin across wave boundaries.
const churnSpan = 2

// Plane derives and applies deterministic fault profiles. All methods are
// safe for concurrent use; every decision derives from (seed, round or
// attempt, ID), never from scheduling.
type Plane struct {
	cfg ChaosConfig

	mu       sync.Mutex
	attempts map[string]int // install attempts per "device|token"
	crashes  atomic.Int64
}

// New returns a fault plane over the given configuration.
func New(cfg ChaosConfig) *Plane {
	return &Plane{cfg: cfg, attempts: make(map[string]int)}
}

// draw returns a uniform [0,1) variate for one fault class of one entity
// in one round. Each class gets its own derived stream so correlated
// faults can only come from configuration, never from stream reuse.
func (p *Plane) draw(class string, round uint64, id string) float64 {
	return tensor.NewRNG(engine.SeedForID(p.cfg.Seed, round, class+"|"+id)).Float64()
}

// Profile returns the faults the entity draws for the round. Pure: no
// plane state is read or written, so any caller at any concurrency sees
// the same answer.
func (p *Plane) Profile(round uint64, id string) FaultProfile {
	var f FaultProfile
	for back := uint64(0); back < churnSpan; back++ {
		if back > round {
			break
		}
		if p.draw("churn", round-back, id) < p.cfg.PChurn {
			f.Churned = true
			break
		}
	}
	f.Offline = f.Churned || p.draw("drop", round, id) < p.cfg.PDrop
	f.LatencySpike = !f.Offline && p.draw("spike", round, id) < p.cfg.PSpike
	f.BatteryDeath = p.draw("battery", round, id) < p.cfg.PBatteryDeath
	f.TelemetryLoss = p.draw("telemetry", round, id) < p.cfg.PTelemetryLoss
	f.Dropout = p.draw("dropout", round, id) < p.cfg.PDropout
	f.Straggler = p.draw("straggler", round, id) < p.cfg.PStraggler
	f.Overclaim = p.draw("overclaim", round, id) < p.cfg.POverclaim
	f.ProofReplay = p.draw("proofreplay", round, id) < p.cfg.PProofReplay
	f.WrongVersionProof = p.draw("wrongproof", round, id) < p.cfg.PWrongVersionProof
	return f
}

// RoundReport counts the faults ApplyRound imposed on a fleet.
type RoundReport struct {
	Offline       int
	Churned       int
	LatencySpikes int
	BatteryDeaths int
}

// ApplyRound imposes the round's weather on every device: connectivity
// (offline / cellular spike / WiFi), battery state (dead this round,
// recharged otherwise), and the armed mid-flash crash injector. The plane
// owns connectivity and battery during a chaos run; each is a pure
// function of (seed, round, device), so a round reproduces at any worker
// count. Wall-powered devices
// are immune to connectivity, churn and battery faults (the device model
// forces them online and fully powered), so the report counts only
// faults that actually bite; the crash injector arms everywhere — a
// power glitch mid-flash needs no battery.
func (p *Plane) ApplyRound(round uint64, devs []*device.Device) RoundReport {
	var rep RoundReport
	for _, d := range devs {
		f := p.Profile(round, d.ID)
		if d.Caps.WallPowered() {
			f.Offline, f.LatencySpike, f.Churned, f.BatteryDeath = false, false, false, false
		}
		switch {
		case f.Offline:
			d.SetNet(device.Offline)
			rep.Offline++
		case f.LatencySpike:
			d.SetNet(device.Cellular)
			rep.LatencySpikes++
		default:
			d.SetNet(device.WiFi)
		}
		if f.Churned {
			rep.Churned++
		}
		if f.BatteryDeath {
			d.SetBatteryLevel(0)
			rep.BatteryDeaths++
		} else {
			d.SetBatteryLevel(1)
		}
		p.Arm(d)
	}
	return rep
}

// Arm installs the plane's mid-flash crash injector on the device. Each
// install attempt draws its fate from (seed, attempt number, device,
// image token): the attempt counter advances only from the device's own
// sequential install calls, so the crash sequence a device experiences is
// identical at any worker count. Idempotent.
func (p *Plane) Arm(d *device.Device) {
	id := d.ID
	d.SetInstallInterrupter(func(token string, _ int64) float64 {
		key := id + "|" + token
		p.mu.Lock()
		p.attempts[key]++
		attempt := p.attempts[key]
		p.mu.Unlock()
		rng := tensor.NewRNG(engine.SeedForID(p.cfg.Seed, uint64(attempt), "crash|"+key))
		if rng.Float64() >= p.cfg.PCrash {
			return 1 // completes
		}
		p.crashes.Add(1)
		// Crash somewhere strictly inside the remaining flash work.
		return 0.05 + 0.9*rng.Float64()
	})
}

// SwarmDrop returns the plane's swarm peer-churn injector: a
// swarm.DropFunc deciding, per (wave, attempt, fetcher, peer, key, chunk),
// whether the serving peer vanishes mid-chunk and how much of the span it
// managed to send first. Pure in its arguments, so swarm weather is
// bit-identical at any worker count.
func (p *Plane) SwarmDrop() func(wave uint64, attempt int, fetcherID, peerID, key string, chunk int) float64 {
	if p.cfg.PPeerDrop <= 0 {
		return nil
	}
	return func(wave uint64, attempt int, fetcherID, peerID, key string, chunk int) float64 {
		rng := tensor.NewRNG(engine.SeedForID(p.cfg.Seed, wave,
			fmt.Sprintf("peerdrop|%s|%s|%s|%d|%d", fetcherID, peerID, key, chunk, attempt)))
		if rng.Float64() >= p.cfg.PPeerDrop {
			return 1 // serves the whole span
		}
		// Drop somewhere strictly inside the span.
		return 0.1 + 0.8*rng.Float64()
	}
}

// Calm clears every fault from the devices: full connectivity, full
// battery, no crash injector. The terminal reconciliation pass runs under
// calm weather so convergence is provable rather than probabilistic.
func (p *Plane) Calm(devs []*device.Device) {
	for _, d := range devs {
		d.SetInstallInterrupter(nil)
		d.SetNet(device.WiFi)
		d.SetBatteryLevel(1)
	}
}

// Crashes returns how many mid-flash crashes the plane has injected.
func (p *Plane) Crashes() int64 { return p.crashes.Load() }

// InstallAttempts returns how many install attempts the plane has
// observed across all devices and image tokens.
func (p *Plane) InstallAttempts() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, a := range p.attempts {
		n += a
	}
	return n
}

// FedFaults adapts the plane to the federated coordinator's client-fault
// hook: dropouts and stragglers derive from the same per-(round, ID)
// streams as the device faults.
func (p *Plane) FedFaults() func(round int, clientID string) fed.ClientFault {
	return func(round int, clientID string) fed.ClientFault {
		f := p.Profile(uint64(round), clientID)
		cf := fed.ClientFault{Dropout: f.Dropout}
		if f.Straggler {
			cf.SlowFactor = stragglerFactor
		}
		return cf
	}
}
