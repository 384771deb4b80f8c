package main

import (
	"fmt"
	"io"
	"text/tabwriter"

	"tinymlops"
)

// cmdSettle runs the verified pay-per-query settlement scenario: a fleet
// serves metered traffic through a staged rollout, every deployment
// attests a deterministic sample of its charges with sum-check proofs,
// and the whole fleet settles over TCP against the batch-verifying
// settler — with a configurable fraction of devices injecting billing
// fraud (overclaimed ticks, replayed proofs, wrong-version relabeling).
// Exits non-zero if any tampered report settles or any honest report is
// rejected.
func cmdSettle(w io.Writer, args []string) error {
	fs := newFlagSet("settle")
	devices := fs.Int("devices", 90, "fleet size (rounded up to a multiple of the 6 profiles)")
	seed := fs.Uint64("seed", 42, "platform seed")
	chaosSeed := fs.Uint64("chaos-seed", 0, "fault seed (0 = seed+1)")
	workers := fs.Int("workers", 0, "worker pool size (0 = all cores)")
	overclaim := fs.Float64("overclaim", 0.10, "probability a device inflates its tick count")
	replay := fs.Float64("replay", 0.10, "probability a device replays stale proofs")
	wrongVersion := fs.Float64("wrong-version", 0.10, "probability a device relabels proofs to another model version")
	all := fs.Bool("all", false, "print every device's verdict, not just the flagged ones")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	if *chaosSeed == 0 {
		*chaosSeed = *seed + 1
	}
	fmt.Fprintf(w, "settle: %d devices, seed %d/%d, fraud overclaim %.0f%% replay %.0f%% wrong-version %.0f%%\n\n",
		*devices, *seed, *chaosSeed, *overclaim*100, *replay*100, *wrongVersion*100)

	res, err := tinymlops.RunChaosScenario(tinymlops.ChaosScenarioConfig{
		Devices: *devices, Workers: *workers, Seed: *seed,
		Chaos: tinymlops.ChaosConfig{
			Seed:               *chaosSeed,
			POverclaim:         *overclaim,
			PProofReplay:       *replay,
			PWrongVersionProof: *wrongVersion,
		},
	})
	if err != nil {
		return err
	}
	s := res.Settlement

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "device\tfraud\tverdict\tproofs\tack-seq\treason")
	for _, vd := range s.Verdicts {
		if !*all && !vd.Injected && vd.OK {
			continue
		}
		fraud := "-"
		if vd.Injected {
			fraud = ""
			if vd.Overclaim {
				fraud += "overclaim "
			}
			if vd.ProofReplay {
				fraud += "replay "
			}
			if vd.WrongVersionProof {
				fraud += "wrong-version "
			}
			fraud = fraud[:len(fraud)-1]
		}
		verdict := "SETTLED"
		if !vd.OK {
			verdict = "REJECTED"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%s\n",
			vd.DeviceID, fraud, verdict, vd.ProofsChecked, vd.AckSeq, vd.Reason)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintf(w, "\nsettled: %d/%d honest devices, %d inference proofs batch-verified\n",
		s.Settled, s.Devices-s.FraudInjected, s.ProofsChecked)
	fmt.Fprintf(w, "fraud: %d injected (%d overclaim, %d replay, %d wrong-version), %d caught\n",
		s.FraudInjected, s.Overclaims, s.Replays, s.WrongVersions, s.FraudCaught)
	fmt.Fprintf(w, "audit: %d settlements inspected, %d flagged as fraud\n",
		res.Audit.SettlementsChecked, res.Audit.FraudFlagged)
	if !res.Audit.OK() {
		for _, v := range res.Audit.Violations {
			fmt.Fprintln(w, "  VIOLATION:", v)
		}
		return fmt.Errorf("settle: %d invariant violations", res.Audit.ViolationCount)
	}
	fmt.Fprintf(w, "fingerprint: %s (bit-identical at any -workers)\n", res.Fingerprint)
	return nil
}
