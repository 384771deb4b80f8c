package faults

import (
	"fmt"
	"net"

	"tinymlops/internal/core"
	"tinymlops/internal/metering"
)

// SettleVerdict is one device's settlement outcome: which frauds its
// round profile actually injected into the report, and what the
// verifying settler decided.
type SettleVerdict struct {
	DeviceID string
	// Overclaim, ProofReplay and WrongVersionProof record the frauds that
	// actually modified the report (see TamperAttestedReport); Injected
	// is their disjunction.
	Overclaim         bool
	ProofReplay       bool
	WrongVersionProof bool
	Injected          bool
	// OK, Reason, ProofsChecked and AckSeq come from the receipt.
	OK            bool
	Reason        string
	ProofsChecked int
	AckSeq        uint64
}

// SettlementReport accounts the chaos scenario's settlement phase. Every
// field is a pure function of the seeds: reports, sample selection,
// proofs, tampering and verdicts all derive from deterministic state, so
// the report is bit-identical at any worker count.
type SettlementReport struct {
	Devices int
	// Settled counts honest devices whose receipt was accepted;
	// FraudInjected counts devices whose report was actually tampered;
	// FraudCaught counts those whose receipt was rejected (the phase
	// errors unless FraudCaught == FraudInjected with no honest device
	// rejected).
	Settled       int
	FraudInjected int
	FraudCaught   int
	// Per-class injected-fraud counts.
	Overclaims    int
	Replays       int
	WrongVersions int
	// ProofsChecked totals the inference proofs the settler verified
	// across accepted receipts.
	ProofsChecked int
	// Verdicts holds every device's outcome in device-ID order.
	Verdicts []SettleVerdict
}

// runSettlementPhase settles every deployment's metered window over real
// TCP against the platform's verifying settler. One fresh weather round's
// fraud draws decide which devices tamper with their reports before
// submission; the phase errors if any tampered report settles or any
// honest report is rejected — the pay-per-query acceptance invariant.
// Accepted honest settlements are acknowledged on the device meter, so
// the terminal audit sees the post-settlement chain state.
func runSettlementPhase(p *core.Platform, plane *Plane, round *uint64, res *ScenarioResult) (*SettlementReport, error) {
	deps := p.Deployments()
	*round++
	report := &SettlementReport{Devices: len(deps)}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("faults: settlement listener: %w", err)
	}
	srv := metering.Serve(l, p.Settler)
	defer srv.Close()

	// Relabel targets for WrongVersionProof: both published base versions
	// are registered, and v2 is a head-only fine-tune of v1 — their first
	// dense layers are identical, so a relabeled proof still verifies
	// against the wrong version's weights and only the context binding
	// (model identity inside the transcript) can reject it.
	var alts []string
	if res.V1 != nil {
		alts = append(alts, res.V1.ID)
	}
	if res.V2 != nil {
		alts = append(alts, res.V2.ID)
	}

	verdicts := make([]SettleVerdict, len(deps))
	ferr := p.Engine().ForEach(len(deps), func(i int) error {
		d := deps[i]
		vd := &verdicts[i]
		vd.DeviceID = d.DeviceID
		rep, berr := d.Meter.BuildAttestedReport()
		if berr != nil {
			return fmt.Errorf("faults: build settlement report for %s: %w", d.DeviceID, berr)
		}
		eff := TamperAttestedReport(plane.Profile(*round, d.DeviceID), &rep, alts...)
		vd.Overclaim, vd.ProofReplay, vd.WrongVersionProof = eff.Overclaim, eff.ProofReplay, eff.WrongVersionProof
		vd.Injected = eff.Fraudulent()
		rc, serr := metering.SettleAttestedOverTCP(srv.Addr(), rep)
		if serr != nil {
			return fmt.Errorf("faults: settle %s: %w", d.DeviceID, serr)
		}
		vd.OK, vd.Reason, vd.ProofsChecked, vd.AckSeq = rc.OK, rc.Reason, rc.ProofsChecked, rc.AckSeq
		if rc.OK {
			d.Meter.Acknowledge(rc.AckSeq)
		}
		return nil
	})
	if ferr != nil {
		return nil, ferr
	}

	report.Verdicts = verdicts
	var missed, falsePositives []string
	for i := range verdicts {
		vd := &verdicts[i]
		report.ProofsChecked += vd.ProofsChecked
		if vd.Injected {
			report.FraudInjected++
			if vd.Overclaim {
				report.Overclaims++
			}
			if vd.ProofReplay {
				report.Replays++
			}
			if vd.WrongVersionProof {
				report.WrongVersions++
			}
			if vd.OK {
				missed = append(missed, vd.DeviceID)
			} else {
				report.FraudCaught++
			}
			continue
		}
		if vd.OK {
			report.Settled++
		} else {
			falsePositives = append(falsePositives, vd.DeviceID)
		}
	}
	if len(missed) > 0 {
		return report, fmt.Errorf("faults: %d tampered settlement reports were accepted: %v", len(missed), capIDs(missed))
	}
	if len(falsePositives) > 0 {
		return report, fmt.Errorf("faults: %d honest settlement reports were rejected: %v", len(falsePositives), capIDs(falsePositives))
	}
	return report, nil
}

// capIDs bounds an ID list for error messages.
func capIDs(ids []string) []string {
	if len(ids) > 8 {
		return ids[:8]
	}
	return ids
}
