package main

import (
	"fmt"
	"io"
	"text/tabwriter"

	"tinymlops"
)

// cmdChaos runs the deterministic chaos experiment: deploy v1 to a
// fleet, publish v2, drive a staged rollout under injected faults
// (churn, network drops, battery death, mid-flash install crashes,
// telemetry loss), reconcile the stragglers, serve split queries, settle,
// run federated rounds and audit every fleet invariant. It prints the
// offload and federated phases one line each. Exits non-zero if any device fails to converge or any
// invariant is violated.
func cmdChaos(w io.Writer, args []string) error {
	fs := newFlagSet("chaos")
	devices := fs.Int("devices", 600, "fleet size (rounded up to a multiple of the 6 profiles)")
	seed := fs.Uint64("seed", 42, "platform seed")
	chaosSeed := fs.Uint64("chaos-seed", 0, "fault seed (0 = seed+1)")
	workers := fs.Int("workers", 0, "worker pool size (0 = all cores)")
	churn := fs.Float64("churn", 0.05, "per-round device churn probability")
	drop := fs.Float64("drop", 0.10, "per-round network drop probability")
	spike := fs.Float64("spike", 0.15, "per-round latency spike probability")
	battery := fs.Float64("battery", 0.03, "per-round battery death probability")
	crash := fs.Float64("crash", 0.20, "per-install-attempt mid-flash crash probability")
	tloss := fs.Float64("telemetry-loss", 0.10, "per-round telemetry loss probability")
	retries := fs.Int("retries", 3, "update attempts per device per wave")
	useSwarm := fs.Bool("swarm", false, "distribute the OTA peer-to-peer: registry seeds the canary, later waves fetch chunks from updated neighbors")
	peerDrop := fs.Float64("peerdrop", 0.15, "per-chunk-attempt swarm peer loss probability (with -swarm)")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	if *chaosSeed == 0 {
		*chaosSeed = *seed + 1
	}
	mode := "registry-direct"
	if *useSwarm {
		mode = "swarm"
	}
	fmt.Fprintf(w, "chaos: %d devices, seed %d/%d, churn %.0f%%, drop %.0f%%, crash %.0f%%, %s OTA\n\n",
		*devices, *seed, *chaosSeed, *churn*100, *drop*100, *crash*100, mode)

	cfg := tinymlops.ChaosScenarioConfig{
		Devices: *devices, Workers: *workers, Seed: *seed,
		UpdateAttempts: *retries,
		Chaos: tinymlops.ChaosConfig{
			Seed: *chaosSeed, PChurn: *churn, PDrop: *drop, PSpike: *spike,
			PBatteryDeath: *battery, PCrash: *crash, PTelemetryLoss: *tloss,
		},
	}
	if *useSwarm {
		cfg.SwarmRollout = true
		cfg.Chaos.PPeerDrop = *peerDrop
	}
	res, err := tinymlops.RunChaosScenario(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "v1 %s -> v2 %s across %d devices\n\n", res.V1.ID, res.V2.ID, res.FleetSize)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "wave\tdevices\toffline\tchurned\tspikes\tdead-batt\tupdate-fails\tgate")
	for i, wave := range res.Rollout.Waves {
		verdict := "PASS"
		if !wave.Gate.Pass {
			verdict = "FAIL"
		}
		if i >= len(res.WaveWeather) {
			break // an empty wave imposes no weather
		}
		rw := res.WaveWeather[i]
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
			wave.Wave.Name, len(wave.DeviceIDs), rw.Offline, rw.Churned,
			rw.LatencySpikes, rw.BatteryDeaths, wave.Gate.UpdateFailures, verdict)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintf(w, "\nfaults injected: %d mid-flash crashes over %d install attempts, %d telemetry records lost\n",
		res.Crashes, res.InstallAttempts, res.TelemetryLost)
	fmt.Fprintf(w, "healed: %d updates recovered by in-wave retries, %d by reconciliation sweeps\n",
		res.RetriedUpdates, res.ReconcileUpdated)
	fmt.Fprintf(w, "transfers: %d delta, %d full; %d B shipped\n",
		res.Rollout.DeltaTransfers, res.Rollout.FullTransfers, res.Rollout.TotalShipBytes)
	fmt.Fprintf(w, "converged: %d/%d devices on v2\n", res.Converged, res.FleetSize)
	o := res.Offload
	fmt.Fprintf(w, "offload: %d queries (%d split, %d local, %d fallback), %d replans, %d B uplinked, %d not bit-exact\n",
		o.Queries, o.Split, o.Local, o.Fallback, o.Replans, o.ActivationBytes, o.Mismatches)
	f := res.Fed
	fmt.Fprintf(w, "federated: %d clients in %d cohorts, %d rounds, %d dropouts, accuracy %.3f, published %s\n\n",
		f.Clients, f.Aggregators, f.Rounds, f.Dropouts, f.FinalAccuracy, f.PublishedID)

	if res.Swarm != nil {
		fmt.Fprintln(w, "swarm egress by wave:")
		stw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(stw, "wave\tregistry-B\tpeer-B\tpeer-share")
		for _, wb := range res.Swarm.WaveEgress {
			total := wb.RegistryBytes + wb.PeerBytes
			share := 0.0
			if total > 0 {
				share = float64(wb.PeerBytes) / float64(total)
			}
			fmt.Fprintf(stw, "%s\t%d\t%d\t%.0f%%\n", wb.Wave, wb.RegistryBytes, wb.PeerBytes, share*100)
		}
		if err := stw.Flush(); err != nil {
			return err
		}
		st := res.Swarm.Stats
		fmt.Fprintf(w, "swarm ledger: %d transfers (%d resumed), %d B delivered = %d B registry + %d B peers\n",
			st.Transfers, st.Resumed, st.DeliveredBytes, st.RegistryEgressBytes, st.PeerBytes)
		fmt.Fprintf(w, "              %d chunks verified, %d hash rejects, %d peer drops healed, %d conservation violations\n\n",
			st.ChunksVerified, st.HashRejects, st.MidChunkDrops, st.ConservationViolations)
	}

	fmt.Fprintln(w, res.Audit.String())
	if !res.Audit.OK() {
		for _, v := range res.Audit.Violations {
			fmt.Fprintln(w, "  VIOLATION:", v)
		}
		return fmt.Errorf("chaos: %d invariant violations", res.Audit.ViolationCount)
	}
	fmt.Fprintf(w, "fingerprint: %s (bit-identical at any -workers)\n", res.Fingerprint)
	return nil
}
