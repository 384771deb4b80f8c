package faults

import (
	"errors"
	"fmt"
	"math"

	"tinymlops/internal/core"
	"tinymlops/internal/device"
	"tinymlops/internal/offload"
)

// OffloadReport accounts the chaos scenario's offload phase. Every field
// is a pure function of the seeds.
type OffloadReport struct {
	// Queries counts queries served (all modes); Denied counts metering
	// denials; Errors counts queries the weather failed outright (a dead
	// battery under an offline round leaves no way to answer).
	Queries int64
	Denied  int64
	Errors  int64
	// Split, Local and Fallback decompose the served queries by mode.
	Split    int64
	Local    int64
	Fallback int64
	// Replans counts cut moves as the weather shifted conditions.
	Replans int64
	// ActivationBytes is the uplinked boundary traffic.
	ActivationBytes int64
	// Mismatches counts answers that were not bit-identical to the
	// device's own monolithic forward — the activation-boundary
	// bit-exactness audit; any nonzero value fails the scenario.
	Mismatches int64
	// CloudServed is the number of suffix requests the tier executed
	// (equals Split).
	CloudServed int64
}

// runOffloadPhase opens a split session on every deployment against one
// shared cloud tier and drives offloadQueries queries per device in each of
// offloadRounds weather rounds, auditing every answer for bit-exactness
// against the device's own model.
func runOffloadPhase(p *core.Platform, plane *Plane, round *uint64, rows [][]float32) (*OffloadReport, error) {
	deps := p.Deployments()
	// At most one request per engine worker is in flight, so the tier never
	// sheds here.
	cloud := offload.NewCloud(offload.CloudConfig{})
	defer cloud.Close()

	// Sessions are created serially under the calm terminal weather, so
	// every initial plan derives from (profile, calm link) alone — and
	// sealing/attestation order into the shared cloud enclave stays
	// deterministic. Every cohort splits: float ships float activations,
	// integer ships quantized boundary codes, watermarked and
	// compiled deployments execute their suffix inside the enclave.
	report := &OffloadReport{}
	sessions := make([]*core.OffloadSession, len(deps))
	for i, d := range deps {
		s, err := p.Offload(d.DeviceID, core.OffloadConfig{Cloud: cloud})
		if err != nil {
			return nil, fmt.Errorf("faults: offload session for %s: %w", d.DeviceID, err)
		}
		sessions[i] = s
	}

	devs := make([]*deviceHandle, len(deps))
	for i, d := range deps {
		devs[i] = &deviceHandle{dep: d}
	}
	for r := 0; r < offloadRounds; r++ {
		*round++
		plane.ApplyRound(*round, fleetDevices(deps))
		err := p.Engine().ForEach(len(deps), func(i int) error {
			h := devs[i]
			for q := 0; q < offloadQueries; q++ {
				x := rows[q%len(rows)]
				out, ierr := sessions[i].Infer(x)
				if ierr != nil {
					if errors.Is(ierr, core.ErrQueryDenied) {
						h.denied++
					} else {
						h.errors++
					}
					continue
				}
				h.queries++
				switch out.Split.Mode {
				case offload.ModeSplit:
					h.split++
				case offload.ModeLocal:
					h.local++
				case offload.ModeFallback:
					h.fallback++
				}
				if out.Split.Replanned {
					h.replans++
				}
				h.activationBytes += out.Split.ActivationBytes
				// Activation-boundary bit-exactness: the split answer must
				// equal the device's own monolithic forward, bit for bit.
				// ReferenceLogits runs the deployment's actual executor —
				// float engine, integer kernels, watermarked copy or
				// compiled VM — so the audit is uniform across variants.
				want := h.dep.ReferenceLogits(x)
				if len(out.Split.Logits) != len(want) {
					h.mismatches++
					continue
				}
				for j := range want {
					if math.Float32bits(out.Split.Logits[j]) != math.Float32bits(want[j]) {
						h.mismatches++
						break
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("faults: offload round %d: %w", r, err)
		}
	}
	for _, h := range devs {
		report.Queries += h.queries
		report.Denied += h.denied
		report.Errors += h.errors
		report.Split += h.split
		report.Local += h.local
		report.Fallback += h.fallback
		report.Replans += h.replans
		report.ActivationBytes += h.activationBytes
		report.Mismatches += h.mismatches
	}
	report.CloudServed = cloud.Stats().Served
	if report.Mismatches > 0 {
		return report, fmt.Errorf("faults: %d offloaded answers were not bit-exact with the on-device forward", report.Mismatches)
	}
	if report.CloudServed != report.Split {
		return report, fmt.Errorf("faults: cloud served %d suffix requests but %d queries split", report.CloudServed, report.Split)
	}
	return report, nil
}

// deviceHandle accumulates one device's offload-phase tallies; reduced in
// device-ID order so the report is worker-count independent.
type deviceHandle struct {
	dep             *core.Deployment
	queries         int64
	denied          int64
	errors          int64
	split           int64
	local           int64
	fallback        int64
	replans         int64
	activationBytes int64
	mismatches      int64
}

// fleetDevices extracts the device objects behind deployments for the
// fault plane's weather application.
func fleetDevices(deps []*core.Deployment) []*device.Device {
	out := make([]*device.Device, len(deps))
	for i, d := range deps {
		out[i] = d.Device()
	}
	return out
}
