package faults

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"

	"tinymlops/internal/compat"
	"tinymlops/internal/core"
	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/engine"
	"tinymlops/internal/nn"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/rollout"
	"tinymlops/internal/selector"
	"tinymlops/internal/swarm"
	"tinymlops/internal/tensor"
)

// The scenario's fixed sizes. The rollout runs rollout.DefaultWaves().
const (
	// reconcileRounds recovery sweeps follow the rollout under continued
	// chaos, before the final calm sweep.
	reconcileRounds = 4
	// offloadRounds weather rounds of the offload phase each serve
	// offloadQueries split queries per device.
	offloadRounds  = 3
	offloadQueries = 2
	// fedClients synthetic clients in fedAggregators edge cohorts run
	// fedRounds masked two-tier rounds in the federated phase.
	fedClients     = 48
	fedAggregators = 4
	fedRounds      = 3
	// prepaidQueries per device never gate the chaos traffic; conservation
	// is still audited.
	prepaidQueries = 1 << 20
	// swarmChunkBytes is small against the scenario's tiny artifacts, so
	// every transfer spans many chunks and exercises the per-chunk faults.
	swarmChunkBytes = 64
)

// ScenarioConfig controls one chaos experiment (see RunScenario).
type ScenarioConfig struct {
	// Devices is the requested fleet size; it is rounded up to a multiple
	// of the six standard hardware profiles.
	Devices int
	// Workers bounds the platform's worker pool (≤0 = all cores). The
	// scenario result is bit-identical at any value — that is the point.
	Workers int
	// Seed roots platform randomness; Chaos.Seed roots the faults.
	Seed uint64
	// Chaos is the fault weather.
	Chaos ChaosConfig
	// UpdateAttempts bounds per-device update retries within a wave and
	// during reconciliation (default 3).
	UpdateAttempts int
	// SwarmRollout switches the rollout's and reconciliation's transfers to
	// peer-to-peer swarm distribution: the registry serves the canary wave
	// and acts as seeder of last resort, later waves fetch hash-verified
	// chunks from already-updated devices, and the terminal audit checks
	// the swarm's byte-conservation ledger.
	SwarmRollout bool
}

// SwarmReport records a swarm scenario's peer-to-peer distribution: the
// cumulative transfer ledger plus the per-wave egress split that shows the
// registry serving the canary and the peers serving the rest.
type SwarmReport struct {
	Stats swarm.Stats
	// WaveEgress splits each rollout wave's delivered bytes by serving side.
	WaveEgress []WaveBytes
}

// WaveBytes is one rollout wave's radio-byte split by source.
type WaveBytes struct {
	Wave          string
	RegistryBytes int64
	PeerBytes     int64
}

// ScenarioResult is one chaos experiment's record.
type ScenarioResult struct {
	FleetSize int
	V1, V2    *registry.ModelVersion
	Rollout   *rollout.Result
	// WaveWeather is the fault weather imposed before each wave.
	WaveWeather []RoundReport
	// Converged counts devices on V2's family (the base or one of its
	// derived variants) at the end; the scenario errors if any device
	// failed to converge.
	Converged int
	// IntServing counts terminal deployments executing on the integer
	// kernels at any width: the fleet deploys integer- and float-pinned
	// cohorts side by side, the mixed serving matrix under one rollout.
	IntServing int
	// Int4Serving counts terminal deployments executing on the int4
	// variant's integer kernels: the whole int4 cohort, since a variant runs its own kernels
	// on every device. Hardware without 4-bit MACs pays the emulation
	// penalty in the modelled charge, not in a different function.
	Int4Serving int
	// Watermarked counts terminal deployments carrying a per-customer mark;
	// ProcVM counts deployments executing compiled bytecode on the
	// capability-gated VM. Both cohorts ride the same rollout, offload and
	// settlement machinery as the rest of the fleet.
	Watermarked int
	ProcVM      int
	// RetriedUpdates counts devices that needed more than one update
	// attempt in some wave; Crashes counts injected mid-flash power
	// losses; InstallAttempts counts all install attempts observed.
	RetriedUpdates  int
	Crashes         int64
	InstallAttempts int
	// ReconcileUpdated counts updates completed only by the post-rollout
	// recovery sweeps (churned devices that missed their wave, exhausted
	// retries, dead batteries).
	ReconcileUpdated int
	// TelemetryLost counts records dropped in transit by injected
	// telemetry loss.
	TelemetryLost int
	// Offload is the offload phase's record: every deployment opens a
	// split-execution session against a shared cloud tier and serves split
	// queries over a few weather rounds, the cut re-planning as the fault
	// plane moves connectivity and batteries. The scenario errors unless
	// every answer is bit-exact with the device's own monolithic forward.
	Offload *OffloadReport
	// Settlement is the verified-billing settlement phase's record: every
	// deployment settles its metered window over TCP, with the round's
	// fraud draws tampering the configured fraction of reports. The
	// scenario errors unless every tampered report was rejected and every
	// honest one accepted.
	Settlement *SettlementReport
	// Fed is the hierarchical federated-learning phase's record: a
	// synthetic client fleet trains the model line through masked two-tier
	// rounds under the plane's weather on both tiers, and the aggregated
	// global publishes back into the scenario's model line.
	Fed *FedReport
	// Swarm is the peer-to-peer distribution record (nil unless
	// SwarmRollout was configured).
	Swarm *SwarmReport
	// Audit is the terminal audit (no partial slots tolerated).
	Audit *AuditReport
	// Fingerprint digests the terminal fleet state (per-device version,
	// meter, counters) plus the rollout record — equal fingerprints mean
	// bit-identical outcomes.
	Fingerprint string
}

// RunScenario executes the canned chaos experiment: train and deploy v1
// across a standard fleet, publish a fine-tuned v2, drive a staged
// rollout under the configured fault weather (fresh weather before every
// wave), reconcile the devices the chaos left behind, calm the weather
// for a terminal sweep, serve split queries, settle, run federated rounds,
// and audit every fleet invariant. The entire run derives from (Seed,
// Chaos.Seed, fleet), so two runs with different Workers produce identical
// ScenarioResult fingerprints.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) {
	if cfg.Devices < 1 {
		cfg.Devices = 6
	}
	if cfg.UpdateAttempts < 1 {
		cfg.UpdateAttempts = 3
	}
	perProfile := (cfg.Devices + 5) / 6

	// Fleet and platform.
	fleet, err := device.NewStandardFleet(device.FleetSpec{CountPerProfile: perProfile})
	if err != nil {
		return nil, err
	}
	devs := fleet.Devices()
	p, err := core.New(fleet, core.Config{
		VendorKey: []byte("chaos-scenario-key-0123456789abcdef"),
		Seed:      cfg.Seed, MinCohort: 1, Workers: cfg.Workers,
		VerifiedBilling: true,
	})
	if err != nil {
		return nil, err
	}
	plane := New(cfg.Chaos)
	plane.Calm(devs) // provisioning runs under calm weather

	// Swarm mode: peer-to-peer distribution over this fleet, with the
	// plane's deterministic peer-churn weather.
	var sw *swarm.Swarm
	if cfg.SwarmRollout {
		sw, err = p.NewSwarm(core.SwarmOptions{
			ChunkBytes: swarmChunkBytes,
			Seed:       cfg.Chaos.Seed + 0x5735,
			PeerDrop:   plane.SwarmDrop(),
		})
		if err != nil {
			return nil, err
		}
	}

	// v1: a tiny classifier — the chaos is about the control plane, not
	// the model, so keep per-device work minimal.
	rng := tensor.NewRNG(cfg.Seed)
	ds := dataset.Blobs(rng, 240, 4, 3, 5)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 8, rng), nn.NewReLU(), nn.NewDense(8, 3, rng))
	if _, err := nn.Train(net, ds.X, ds.Y, nn.TrainConfig{
		Epochs: 6, BatchSize: 32, Optimizer: nn.NewSGD(0.1), RNG: rng,
	}); err != nil {
		return nil, err
	}
	spec := registry.OptimizationSpec{
		Schemes:  []quant.Scheme{quant.Int8, quant.Int4},
		Evaluate: func(n *nn.Network) float64 { return nn.Evaluate(n, ds.X, ds.Y) },
	}
	v1s, err := p.Publish("chaos", net, ds, spec)
	if err != nil {
		return nil, err
	}
	res := &ScenarioResult{FleetSize: fleet.Size(), V1: v1s[0]}
	if err := registerCompiledVariant(p, v1s[0]); err != nil {
		return nil, err
	}

	// The fleet splits into five selection-policy cohorts by rotation:
	// int8-pinned (served through the blocked int8 kernels), int4-pinned
	// (served through the integer kernels on every device; those
	// without 4-bit modes pay the emulation penalty), float32-pinned,
	// watermarked (float artifact stamped with a per-customer mark on
	// device) and procvm-pinned (the compiled bytecode variant, executing on
	// the capability-gated VM). The chaos therefore exercises the full
	// protected serving matrix — integer QModels, float, marked and
	// obfuscated deployments crash, resume, update and roll back side by
	// side — and the fingerprint pins every device's executing scheme and
	// artifact kind at every worker count.
	ids := make([]string, 0, len(devs))
	for _, d := range devs {
		ids = append(ids, d.ID)
	}
	var int8IDs, int4IDs, floatIDs, wmIDs, pvmIDs []string
	for i, id := range ids {
		switch i % 5 {
		case 0:
			int8IDs = append(int8IDs, id)
		case 1:
			int4IDs = append(int4IDs, id)
		case 2:
			floatIDs = append(floatIDs, id)
		case 3:
			wmIDs = append(wmIDs, id)
		default:
			pvmIDs = append(pvmIDs, id)
		}
	}
	for _, cohort := range []struct {
		ids       []string
		policy    selector.Policy
		watermark string
	}{
		{int8IDs, selector.Policy{Schemes: []quant.Scheme{quant.Int8}}, ""},
		{int4IDs, selector.Policy{Schemes: []quant.Scheme{quant.Int4}}, ""},
		{floatIDs, selector.Policy{Schemes: []quant.Scheme{quant.Float32}}, ""},
		{wmIDs, selector.Policy{Schemes: []quant.Scheme{quant.Float32}}, "chaos-customer"},
		{pvmIDs, selector.Policy{Kinds: []string{registry.KindProcVM}}, ""},
	} {
		if _, err := p.DeployMany(cohort.ids, "chaos", core.DeployConfig{
			PrepaidQueries: prepaidQueries, Calibration: ds,
			Policy: cohort.policy, Watermark: cohort.watermark,
		}); err != nil {
			return nil, err
		}
	}

	// Baseline traffic so wave gates have pre-update health to compare.
	rows := trafficRows(ds, 8)
	driveTraffic(p, ids, rows)

	// v2: a head-only fine-tune of v1 — same topology and mostly
	// unchanged weights, so the OTA ships as a sparse delta and the
	// crash/resume machinery is exercised on the delta path.
	v2net := net.Clone()
	head := v2net.Layers()[2].(*nn.Dense)
	for i := range head.W.Value.Data {
		head.W.Value.Data[i] += 0.01 * float32(i%5+1)
	}
	v2s, err := p.Publish("chaos", v2net, ds, spec)
	if err != nil {
		return nil, err
	}
	v2 := v2s[0]
	if v2.ID == v1s[0].ID {
		return nil, fmt.Errorf("faults: fine-tune produced identical bytes; scenario needs two versions")
	}
	res.V2 = v2
	// The procvm cohort needs a compiled v2 variant to converge to —
	// registered before the rollout so wave selection finds it.
	if err := registerCompiledVariant(p, v2); err != nil {
		return nil, err
	}

	// Staged rollout under chaos: fresh fault weather before every wave,
	// bounded deterministic retries within it. The gate tolerates the
	// injected failures — devices the weather strands are the
	// reconciliation pass's job, and PR 2's tests already pin the strict
	// gating behavior.
	round := uint64(0)
	rr, err := p.Rollout(v2, core.RolloutConfig{
		Seed: cfg.Seed,
		Gate: rollout.Gate{
			MaxDriftFraction:   1,
			MaxErrorRate:       0.99,
			MaxLatencyIncrease: 99,
			MaxUpdateFailures:  fleet.Size(),
		},
		Calibration: ds,
		Retry:       engine.RetryPolicy{Attempts: cfg.UpdateAttempts},
		Swarm:       sw,
		BeforeWave: func(w rollout.Wave, _ []string) {
			round++
			res.WaveWeather = append(res.WaveWeather, plane.ApplyRound(round, devs))
		},
		Bake: func(_ rollout.Wave, waveIDs []string) error {
			driveTraffic(p, waveIDs, rows)
			return nil
		},
	})
	if err != nil {
		return nil, fmt.Errorf("faults: rollout: %w", err)
	}
	res.Rollout = rr
	for _, w := range rr.Waves {
		for _, o := range w.Outcomes {
			if o.Attempts > 1 {
				res.RetriedUpdates++
			}
		}
	}
	if sw != nil {
		res.Swarm = &SwarmReport{}
		for _, w := range rr.Waves {
			wb := WaveBytes{Wave: w.Wave.Name}
			for _, o := range w.Outcomes {
				wb.RegistryBytes += o.Transfer.RegistryBytes
				wb.PeerBytes += o.Transfer.PeerBytes
			}
			res.Swarm.WaveEgress = append(res.Swarm.WaveEgress, wb)
		}
	}

	// Reconcile: sweep the devices chaos stranded — churned past their
	// wave, retries exhausted mid-crash, batteries dead — under continued
	// weather, then one terminal sweep under calm skies. Interrupted
	// installs resume their half-written slots here.
	opts := core.UpdateOptions{Calibration: ds, Swarm: sw}
	// A device has converged when it runs v2's family: the base for the
	// float cohort, the derived int8 variant for the integer cohort.
	onV2 := func(v *registry.ModelVersion) bool {
		return v.ID == v2.ID || v.ParentID == v2.ID
	}
	reconcile := func() (int, error) {
		deps := p.Deployments()
		updated := make([]bool, len(deps))
		err := p.Engine().ForEach(len(deps), func(i int) error {
			d := deps[i]
			_, _, _, partial := d.Device().Staging()
			if onV2(d.Version) && !partial {
				return nil
			}
			_, uerr := engine.Retry(
				engine.RetryPolicy{Attempts: cfg.UpdateAttempts},
				core.TransientUpdateError,
				func(int) error { _, e := d.Update(v2, opts); return e },
			)
			if uerr == nil {
				updated[i] = true
			}
			return nil // stragglers wait for the next sweep
		})
		n := 0
		for _, u := range updated {
			if u {
				n++
			}
		}
		return n, err
	}
	for sweep := 0; sweep < reconcileRounds; sweep++ {
		round++
		plane.ApplyRound(round, devs)
		if sw != nil {
			// Promote the previous sweep's (or wave's) updates into the
			// seeder set before this sweep fans out.
			sw.AdvanceWave()
		}
		n, rerr := reconcile()
		if rerr != nil {
			return nil, rerr
		}
		res.ReconcileUpdated += n
		res.TelemetryLost += syncTelemetryWithLoss(p, plane, round)
	}
	plane.Calm(devs)
	if sw != nil {
		sw.AdvanceWave()
	}
	n, rerr := reconcile()
	if rerr != nil {
		return nil, rerr
	}
	res.ReconcileUpdated += n

	res.Crashes = plane.Crashes()
	res.InstallAttempts = plane.InstallAttempts()
	for _, d := range p.Deployments() {
		if onV2(d.Version) {
			res.Converged++
		}
		if s := d.ExecutionScheme(); s != quant.Float32 {
			res.IntServing++
			if s == quant.Int4 {
				res.Int4Serving++
			}
		}
		if d.Watermarked() {
			res.Watermarked++
		}
		if d.Version.Kind == registry.KindProcVM {
			res.ProcVM++
		}
	}
	if res.Converged != fleet.Size() {
		return nil, fmt.Errorf("faults: %d/%d devices converged to %s's family", res.Converged, fleet.Size(), v2.ID)
	}
	if len(int8IDs) > 0 && res.IntServing == 0 {
		return nil, fmt.Errorf("faults: integer cohorts of %d devices ended with no QModel deployments", len(int8IDs)+len(int4IDs))
	}
	// Every int4-cohort device ends on the integer kernels, whatever
	// its bit widths.
	if res.Int4Serving != len(int4IDs) {
		return nil, fmt.Errorf("faults: %d of the int4 cohort's %d devices ended on the int4 kernels", res.Int4Serving, len(int4IDs))
	}
	if len(wmIDs) > 0 && res.Watermarked == 0 {
		return nil, fmt.Errorf("faults: watermarked cohort of %d devices ended with no marked deployments", len(wmIDs))
	}
	// No silent fallback to the float network: the procvm cohort must end
	// on the compiled kind, executing natively on the VM.
	if len(pvmIDs) > 0 && res.ProcVM == 0 {
		return nil, fmt.Errorf("faults: procvm cohort of %d devices ended with zero native procvm deployments", len(pvmIDs))
	}

	// Offload phase: the converged fleet serves split queries under fresh
	// weather rounds. Runs before the terminal audit so the phase's meter
	// charges are inside the conservation check.
	if res.Offload, err = runOffloadPhase(p, plane, &round, rows); err != nil {
		return nil, err
	}

	// Settlement phase: every device settles its metered window against
	// the verifying settler, fraud draws tampering some reports. Runs
	// before the terminal audit so the audit sees the settlement verdicts
	// (and the post-acknowledge chain state) — the audit's fraud flags
	// must reproduce exactly the set of tampered devices.
	if res.Settlement, err = runSettlementPhase(p, plane, &round, res); err != nil {
		return nil, err
	}

	// Federated phase: a synthetic client fleet trains the deployed model
	// line through masked two-tier rounds under the same weather plane and
	// publishes the aggregate as the next rollout candidate. Runs before
	// the terminal audit so the published artifact is inside its checks.
	if res.Fed, err = runFedPhase(p, plane, &round, cfg.Seed); err != nil {
		return nil, err
	}

	if sw != nil {
		res.Swarm.Stats = sw.Stats()
	}
	res.Audit = Audit(p, AuditConfig{Swarm: sw})
	// The audit's fraud flags must be exactly the tampered devices: every
	// fraud caught, no honest device flagged.
	var injected []string
	for _, vd := range res.Settlement.Verdicts {
		if vd.Injected {
			injected = append(injected, vd.DeviceID)
		}
	}
	if !slices.Equal(res.Audit.FraudDevices, injected) {
		return nil, fmt.Errorf("faults: audit flagged %v, fraud was injected on %v", capIDs(res.Audit.FraudDevices), capIDs(injected))
	}
	res.Fingerprint = fingerprint(p, res)
	return res, nil
}

// registerCompiledVariant lowers a published float artifact onto the
// procvm bytecode and registers the module as a first-class variant of the
// version, so kind-pinned cohorts can select it like any quantized child.
// The compile gate proves the module bit-exact against the lowered network
// before anything is registered.
func registerCompiledVariant(p *core.Platform, v *registry.ModelVersion) error {
	art, err := p.Registry.Load(v.ID)
	if err != nil {
		return fmt.Errorf("faults: load %s for compile: %w", v.ID, err)
	}
	mod, err := compat.CompileProcVM(art, compat.CompileOptions{Name: v.Name})
	if err != nil {
		return fmt.Errorf("faults: compile %s: %w", v.ID, err)
	}
	if _, err := p.Registry.RegisterCompiled(v.ID, mod, v.Metrics.Accuracy); err != nil {
		return fmt.Errorf("faults: register compiled %s: %w", v.ID, err)
	}
	return nil
}

// trafficRows builds a fixed in-distribution query batch from the dataset.
func trafficRows(ds *dataset.Dataset, n int) [][]float32 {
	es := ds.X.Size() / ds.Len()
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = append([]float32(nil), ds.X.Data[(i%ds.Len())*es:(i%ds.Len())*es+es]...)
	}
	return rows
}

// driveTraffic runs the batch through each listed device's deployment on
// the platform's pool. Per-device outcomes are independent, so the fan-out
// is deterministic; devices without a deployment are skipped.
func driveTraffic(p *core.Platform, ids []string, rows [][]float32) {
	_ = p.Engine().ForEach(len(ids), func(i int) error {
		if dep, ok := p.Deployment(ids[i]); ok {
			dep.InferBatch(rows)
		}
		return nil
	})
}

// syncTelemetryWithLoss flushes every deployment's buffer over the
// device's current link and ingests the flushed records — except for
// devices whose round profile drew telemetry loss, whose flushed records
// vanish in transit (the uplink was spent; the cloud saw nothing).
// Ingestion is serial in device-ID order, like Platform.SyncTelemetry.
// It returns how many records were lost.
func syncTelemetryWithLoss(p *core.Platform, plane *Plane, round uint64) int {
	deps := p.Deployments()
	lost := 0
	for _, d := range deps {
		recs, _, err := d.Buffer.FlushIfWiFi(d.Device())
		if err != nil || len(recs) == 0 {
			continue
		}
		if plane.Profile(round, d.DeviceID).TelemetryLoss {
			lost += len(recs)
			continue
		}
		class := d.Device().Caps.Class.String()
		for _, r := range recs {
			p.Aggregator.Ingest(class, r)
		}
	}
	return lost
}

// fingerprint digests the terminal fleet state: per-device version, meter
// and counters, plus the rollout's aggregate record. Two scenario runs
// with equal fingerprints ended in bit-identical states.
func fingerprint(p *core.Platform, res *ScenarioResult) string {
	h := sha256.New()
	for _, d := range p.Deployments() {
		c := d.Device().Snapshot()
		fmt.Fprintf(h, "%s|%s|%s|%s|%v|%d|%d|%d|%d|%d|%d|%d|%d\n",
			d.DeviceID, d.Version.ID, d.Version.Kind, d.ExecutionScheme(),
			d.Watermarked(), d.Meter.Used(), d.Meter.Remaining(),
			c.RxBytes, c.FlashedBytes, c.TxBytes, c.Inferences, c.DeniedQueries,
			d.CurrentWindow())
	}
	fmt.Fprintf(h, "rollout|%v|%d|%d|%d|%d\n", res.Rollout.Completed,
		res.Rollout.TotalShipBytes, res.Rollout.TotalFlashBytes,
		res.Rollout.DeltaTransfers, res.Rollout.FullTransfers)
	fmt.Fprintf(h, "chaos|%d|%d|%d|%d\n", res.Crashes, res.InstallAttempts,
		res.RetriedUpdates, res.TelemetryLost)
	o := res.Offload
	fmt.Fprintf(h, "offload|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d\n",
		o.Queries, o.Denied, o.Errors, o.Split, o.Local, o.Fallback,
		o.Replans, o.ActivationBytes, o.Mismatches, o.CloudServed)
	s := res.Settlement
	for _, vd := range s.Verdicts {
		fmt.Fprintf(h, "settle|%s|%v|%v|%v|%v|%v|%s|%d|%d\n",
			vd.DeviceID, vd.Injected, vd.Overclaim, vd.ProofReplay,
			vd.WrongVersionProof, vd.OK, vd.Reason, vd.ProofsChecked, vd.AckSeq)
	}
	fmt.Fprintf(h, "settlement|%d|%d|%d|%d|%d|%d|%d|%d\n",
		s.Devices, s.Settled, s.FraudInjected, s.FraudCaught,
		s.Overclaims, s.Replays, s.WrongVersions, s.ProofsChecked)
	f := res.Fed
	fmt.Fprintf(h, "fed|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%s|%s|%d\n",
		f.Clients, f.Aggregators, f.Rounds,
		f.Participants, f.Dropouts, f.Stragglers, f.Late,
		f.AggDropouts, f.AggStragglers, f.AggLate,
		f.EdgeUplinkBytes, f.CloudUplinkBytes, f.DownlinkBytes,
		f.GlobalDigest, f.PublishedID, f.Personalized)
	if s := res.Swarm; s != nil {
		fmt.Fprintf(h, "swarm|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d\n",
			s.Stats.Transfers, s.Stats.Resumed, s.Stats.DeliveredBytes,
			s.Stats.RegistryEgressBytes, s.Stats.PeerBytes,
			s.Stats.ChunksVerified, s.Stats.HashRejects, s.Stats.PeerServes,
			s.Stats.RegistryServes, s.Stats.PeerSkips, s.Stats.MidChunkDrops,
			s.Stats.ConservationViolations)
		for _, wb := range s.WaveEgress {
			fmt.Fprintf(h, "waveegress|%s|%d|%d\n", wb.Wave, wb.RegistryBytes, wb.PeerBytes)
		}
	}
	fmt.Fprintf(h, "audit|%d|%d|%d|%d|%d\n", res.Audit.ViolationCount,
		res.Audit.ArtifactsVerified, res.Audit.TelemetryRecords,
		res.Audit.SettlementsChecked, res.Audit.FraudFlagged)
	return hex.EncodeToString(h.Sum(nil)[:16])
}
