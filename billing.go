package tinymlops

import (
	"tinymlops/internal/faults"
	"tinymlops/internal/metering"
)

// Verifiable pay-per-query settlement (§III-C metering + §VI sum-check
// proofs, wired end to end). Enable with PlatformConfig.VerifiedBilling:
// deployments then attest a deterministic sample of metered charges with
// sum-check proofs over the model's first dense layer, the proofs ride in
// the settlement report, and the platform's settler batch-verifies them
// before accepting any usage claim.

// AttestedReport is a settlement report carrying inference attestations.
// It is the one report the settlement socket carries: a settler with
// verified billing off ignores the attestations, a device with it off
// settles with none.
type AttestedReport = metering.AttestedReport

// SettleAttestedOverTCP submits an attested report to a settlement
// server and returns the settler's signed-off verdict on it.
func SettleAttestedOverTCP(addr string, report AttestedReport) (metering.Receipt, error) {
	return metering.SettleAttestedOverTCP(addr, report)
}

// TamperAttestedReport applies a fault profile's billing frauds to a
// settlement report in place — the chaos plane's billing adversary —
// returning the frauds that actually modified it.
func TamperAttestedReport(f FaultProfile, rep *AttestedReport, altModels ...string) FaultProfile {
	return faults.TamperAttestedReport(f, rep, altModels...)
}
