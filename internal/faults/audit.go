package faults

import (
	"crypto/sha256"
	"fmt"
	"sort"

	"tinymlops/internal/core"
	"tinymlops/internal/ipprot"
	"tinymlops/internal/metering"
	"tinymlops/internal/nn"
	"tinymlops/internal/observe"
	"tinymlops/internal/swarm"
)

// AuditConfig controls one fleet audit.
type AuditConfig struct {
	// Deep re-serializes what every unwatermarked deployment runs and
	// verifies it is bit-identical to the registry artifact of the version
	// it claims to run — the strongest convergence proof (an interrupted
	// and resumed delta install must reproduce the target exactly). Each
	// distinct image the fleet shares is serialized once and its verdict
	// attributed to every device holding it.
	Deep bool
	// AllowPartial tolerates half-written staging slots: an audit taken
	// mid-recovery counts them without flagging a violation. The terminal
	// audit must not set this.
	AllowPartial bool
	// Swarm, when non-nil, extends the audit to the peer-to-peer
	// distribution ledger: byte conservation (registry egress + peer bytes
	// == delivered bytes, and no per-transfer conservation violations),
	// zero hash rejects, and — unless AllowPartial — no transfer state
	// left in flight.
	Swarm *swarm.Swarm
}

// AuditReport is the fleet-wide invariant audit result.
type AuditReport struct {
	// Deployments audited and Devices in the fleet.
	Deployments int
	Devices     int
	// MetersChecked counts conservation checks (issued == used +
	// remaining); ChainsVerified counts meters whose full tamper-evident
	// chain was recomputed from genesis.
	MetersChecked  int
	ChainsVerified int
	// ArtifactsVerified counts deployments whose model bytes matched the
	// registry artifact bit-for-bit (Deep audits only).
	ArtifactsVerified int
	// TelemetryRecords counts window-monotonicity-checked records across
	// ingested and buffered telemetry.
	TelemetryRecords int
	// PartialInstalls counts devices holding a half-written staging slot.
	PartialInstalls int
	// SettlementsChecked counts vouchers whose latest settlement receipt
	// was inspected; FraudFlagged counts those whose latest settlement
	// was rejected — the settler's verdict that the device's report could
	// not be verified. FraudDevices lists them in device-ID order. A
	// flagged device is attempted fraud caught by the billing plane, not
	// a platform invariant violation, so it does not affect OK().
	SettlementsChecked int
	FraudFlagged       int
	FraudDevices       []string
	// SwarmChecked reports the swarm ledger was audited; the byte totals
	// echo the ledger the conservation check ran over.
	SwarmChecked        bool
	SwarmDeliveredBytes int64
	SwarmRegistryBytes  int64
	SwarmPeerBytes      int64
	// ViolationCount is the true number of invariant violations found;
	// Violations lists the first maxViolations of them.
	ViolationCount int
	Violations     []string
}

// OK reports whether the audit found no violations.
func (r *AuditReport) OK() bool { return r.ViolationCount == 0 }

// String summarizes the report in one line.
func (r *AuditReport) String() string {
	return fmt.Sprintf("audit: %d deployments / %d devices, %d meters (%d chains), %d artifacts bit-exact, %d telemetry records, %d partial installs, %d violations",
		r.Deployments, r.Devices, r.MetersChecked, r.ChainsVerified,
		r.ArtifactsVerified, r.TelemetryRecords, r.PartialInstalls, r.ViolationCount)
}

// maxViolations caps the listed violations; ViolationCount stays exact.
const maxViolations = 64

func (r *AuditReport) violate(format string, args ...any) {
	r.ViolationCount++
	if len(r.Violations) < maxViolations {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// Audit checks a platform's fleet against the invariants a chaos run must
// not break. Every read goes through the owning lock (deployment state
// snapshots, meter reports, buffer copies) and nothing is mutated, so it
// is safe to run concurrently with updates — though an audit racing a
// rollout sees each deployment at whichever version its snapshot caught;
// run it quiesced for an exact fleet-wide answer. Violations are reported
// in deterministic (device ID) order.
func Audit(p *core.Platform, cfg AuditConfig) *AuditReport {
	rep := &AuditReport{Devices: p.Fleet.Size()}
	deps := p.Deployments() // sorted by device ID
	rep.Deployments = len(deps)

	// Ingested telemetry windows per device, in ingestion order.
	ingested := make(map[string][]uint32)
	for _, cohort := range sortedCohorts(p.Aggregator) {
		for _, r := range p.Aggregator.Records(cohort) {
			ingested[r.DeviceID] = append(ingested[r.DeviceID], r.Window)
		}
	}

	vouchers := make(map[string]string) // voucher ID -> device holding it
	// diverged memoises the deep artifact check per decoded image: what is
	// wrong with it, or "" when it serializes to the registry's bytes.
	diverged := make(map[*nn.Network]string)
	for _, d := range deps {
		id := d.DeviceID

		// Fleet membership: a deployment must sit on a registered device.
		dev, ok := p.Fleet.Get(id)
		if !ok {
			rep.violate("%s: deployment on a device the fleet does not know", id)
			continue
		}

		// Version consistency: the running version must exist in the
		// registry under the same metadata. The snapshot reads version and
		// model under the deployment lock, so an audit racing an update
		// sees a coherent (version, model) pair.
		liveVer, liveModel, watermarked := d.StateSnapshot()
		ver, err := p.Registry.Get(liveVer.ID)
		if err != nil {
			rep.violate("%s: running version %s unknown to the registry", id, liveVer.ID)
		} else if ver.Digest != liveVer.Digest {
			rep.violate("%s: version %s digest diverges from the registry", id, liveVer.ID)
		}

		// Meter conservation: issued == consumed + remaining, the voucher
		// is genuine and bound to this device, and no other deployment
		// spends the same voucher (double-spend across interrupted
		// installs would surface here — an update retry must never mint
		// or reset a meter).
		v := d.Meter.Voucher()
		used, remaining := d.Meter.Used(), d.Meter.Remaining()
		rep.MetersChecked++
		if used+remaining != v.Queries {
			rep.violate("%s: meter leak: used %d + remaining %d != issued %d", id, used, remaining, v.Queries)
		}
		if v.DeviceID != id {
			rep.violate("%s: voucher %s is bound to %s", id, v.ID, v.DeviceID)
		}
		if !p.Issuer.Verify(&v) {
			rep.violate("%s: voucher %s fails signature verification", id, v.ID)
		}
		if holder, dup := vouchers[v.ID]; dup {
			rep.violate("%s: voucher %s double-spent (also held by %s)", id, v.ID, holder)
		}
		vouchers[v.ID] = id

		// Tamper-evident chain: the unsettled segment must recompute, and
		// when nothing has settled yet the whole chain must extend from
		// genesis with exactly `used` links.
		mrep := d.Meter.BuildReport()
		if mrep.Used != mrep.FromSeq-1+uint64(len(mrep.Entries)) {
			rep.violate("%s: meter claims %d used but chain holds %d entries from seq %d",
				id, mrep.Used, len(mrep.Entries), mrep.FromSeq)
		}
		if mrep.FromSeq == 1 {
			if err := metering.VerifyChain(v, metering.GenesisHead(v), mrep.Entries); err != nil {
				rep.violate("%s: %v", id, err)
			} else {
				rep.ChainsVerified++
			}
		}

		// Settlement verdicts: surface the billing plane's judgment of
		// this voucher's latest settlement. A rejected receipt means the
		// settler could not verify the device's report — the audit's
		// billing-fraud flag. (The receipt survives the rejection
		// precisely so an audit can attribute it.)
		if rc, rok := p.Settler.LastReceipt(v.ID); rok {
			rep.SettlementsChecked++
			if !rc.OK {
				rep.FraudFlagged++
				rep.FraudDevices = append(rep.FraudDevices, id)
			}
		}

		// Slot convergence: no half-written staging slot may survive.
		if token, flashed, total, partial := dev.Staging(); partial {
			rep.PartialInstalls++
			if !cfg.AllowPartial {
				rep.violate("%s: stuck mid-install: %q at %d/%d bytes", id, token, flashed, total)
			}
		}

		// Bit-exact artifact check — the proof that interrupted installs
		// were recovered, not corrupted. Three variant-specific forms:
		// a compiled deployment's module must re-encode to the registry's
		// canonical bytes; a watermarked deployment (whose weights are
		// deliberately perturbed) must still carry its exact per-customer
		// mark; any other deployment's model must serialize to exactly
		// the registry artifact, checked once per distinct image. Updates
		// swap the model pointer rather than mutating in place, so
		// serializing the snapshot outside the lock is safe.
		if cfg.Deep && ver != nil {
			switch {
			case d.CompiledModule() != nil:
				if sha256.Sum256(d.CompiledModule().Encode()) != ver.Digest {
					rep.violate("%s: compiled module bytes diverge from artifact %s", id, ver.ID)
				} else {
					rep.ArtifactsVerified++
				}
			case watermarked:
				owner, tagged := ver.Tags["watermark:"+id]
				if !tagged {
					rep.violate("%s: watermarked deployment has no registry mark tag on %s", id, ver.ID)
					break
				}
				want := ipprot.KeyedBits(owner, core.WatermarkCapacity(liveModel))
				got, werr := ipprot.ExtractStatic(liveModel, owner, len(want), ipprot.DefaultStaticWMConfig())
				if werr != nil {
					rep.violate("%s: watermark extraction failed: %v", id, werr)
				} else if ipprot.BitErrorRate(want, got) != 0 {
					rep.violate("%s: watermark does not verify against owner %q", id, owner)
				} else {
					rep.ArtifactsVerified++
				}
			default:
				why, seen := diverged[liveModel]
				if !seen {
					if data, merr := liveModel.MarshalBinary(); merr != nil {
						why = fmt.Sprintf("deployed model does not serialize: %v", merr)
					} else if sha256.Sum256(data) != ver.Digest {
						why = "deployed model bytes diverge from artifact " + ver.ID
					}
					diverged[liveModel] = why
				}
				if why != "" {
					rep.violate("%s: %s", id, why)
				} else {
					rep.ArtifactsVerified++
				}
			}
		}

		// Telemetry monotonicity: windows strictly increase through the
		// ingested history, then the still-buffered records, and the open
		// window lies strictly beyond everything emitted. Gaps are legal
		// (telemetry loss); reordering and replays are not.
		last := -1
		ordered := true
		for _, w := range ingested[id] {
			rep.TelemetryRecords++
			if int(w) <= last {
				ordered = false
			}
			last = int(w)
		}
		for _, r := range d.Buffer.Snapshot() {
			rep.TelemetryRecords++
			if int(r.Window) <= last {
				ordered = false
			}
			last = int(r.Window)
		}
		if !ordered {
			rep.violate("%s: telemetry windows not strictly increasing", id)
		}
		if last >= 0 && uint32(last) >= d.CurrentWindow() {
			rep.violate("%s: open window %d not beyond last emitted %d", id, d.CurrentWindow(), last)
		}
	}

	// Devices without a deployment can still be stuck mid-install: a
	// provisioning Deploy that crashed mid-flash leaves a staged slot and
	// no Deployment to hang it on. Sweep the whole fleet so those are not
	// invisible to the convergence invariant.
	deployed := make(map[string]bool, len(deps))
	for _, d := range deps {
		deployed[d.DeviceID] = true
	}
	for _, dev := range p.Fleet.Devices() {
		if deployed[dev.ID] {
			continue
		}
		if token, flashed, total, partial := dev.Staging(); partial {
			rep.PartialInstalls++
			if !cfg.AllowPartial {
				rep.violate("%s: undeployed device stuck mid-install: %q at %d/%d bytes",
					dev.ID, token, flashed, total)
			}
		}
	}

	// Swarm byte conservation: every delivered byte must be attributed to
	// exactly one serving side, every chunk must have verified on receipt,
	// and at terminal convergence no transfer may still be in flight.
	if cfg.Swarm != nil {
		st := cfg.Swarm.Stats()
		rep.SwarmChecked = true
		rep.SwarmDeliveredBytes = st.DeliveredBytes
		rep.SwarmRegistryBytes = st.RegistryEgressBytes
		rep.SwarmPeerBytes = st.PeerBytes
		if st.RegistryEgressBytes+st.PeerBytes != st.DeliveredBytes {
			rep.violate("swarm: byte conservation broken: registry %d + peers %d != delivered %d",
				st.RegistryEgressBytes, st.PeerBytes, st.DeliveredBytes)
		}
		if st.ConservationViolations > 0 {
			rep.violate("swarm: %d transfers with unattributed bytes", st.ConservationViolations)
		}
		if st.HashRejects > 0 {
			rep.violate("swarm: %d chunk hash rejects from honest sources", st.HashRejects)
		}
		if n := cfg.Swarm.InFlight(); n > 0 && !cfg.AllowPartial {
			rep.violate("swarm: %d devices still hold in-flight transfer state", n)
		}
	}
	return rep
}

func sortedCohorts(a *observe.Aggregator) []string {
	cs := a.Cohorts()
	sort.Strings(cs)
	return cs
}
