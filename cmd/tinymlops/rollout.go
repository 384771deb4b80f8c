package main

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"tinymlops"
)

// cmdRollout simulates the full staged-OTA lifecycle: train and deploy v1
// across a fleet, fine-tune the head into v2, then drive a canary → cohort
// → fleet rollout whose waves are gated on post-update health. With -drift
// the cohort wave bakes on a shifted input distribution, trips the drift
// gate and demonstrates the rollback path.
func cmdRollout(w io.Writer, args []string) error {
	fs := newFlagSet("rollout")
	perProfile := fs.Int("devices", 2, "devices per hardware profile")
	seed := fs.Uint64("seed", 42, "random seed")
	workers := fs.Int("workers", 0, "worker pool size (0 = all cores)")
	drift := fs.Bool("drift", false, "inject drifted traffic into the cohort wave (forces a rollback)")
	full := fs.Bool("full", false, "force full-artifact transfers (disable weight deltas)")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	rng := tinymlops.NewRNG(*seed)
	ds := tinymlops.Blobs(rng, 1500, 4, 3, 5)
	train, test := ds.Split(0.8, rng)
	net := tinymlops.NewNetwork([]int{4},
		tinymlops.Dense(4, 16, rng), tinymlops.ReLU(), tinymlops.Dense(16, 3, rng))
	if _, err := tinymlops.Train(net, train.X, train.Y, tinymlops.TrainConfig{
		Epochs: 10, BatchSize: 32, Optimizer: tinymlops.SGD(0.1).WithMomentum(0.9), RNG: rng,
	}); err != nil {
		return err
	}

	fleet, err := tinymlops.NewStandardFleet(tinymlops.FleetSpec{CountPerProfile: *perProfile, Seed: *seed})
	if err != nil {
		return err
	}
	for _, d := range fleet.Devices() {
		d.SetBehavior(1, 1, 0)
	}
	fleet.Tick()
	platform, err := tinymlops.NewPlatform(fleet, tinymlops.PlatformConfig{
		VendorKey: []byte("cli-vendor-key-0123456789abcdef0"), Seed: *seed, MinCohort: 1,
		Workers: *workers,
	})
	if err != nil {
		return err
	}
	spec := tinymlops.OptimizationSpec{Evaluate: func(n *tinymlops.Network) float64 {
		return tinymlops.Evaluate(n, test.X, test.Y)
	}}
	v1s, err := platform.Publish("ota", net, test, spec)
	if err != nil {
		return err
	}
	ids := make([]string, 0, fleet.Size())
	for _, d := range fleet.Devices() {
		ids = append(ids, d.ID)
	}
	if _, err := platform.DeployMany(ids, "ota", tinymlops.DeployConfig{
		PrepaidQueries: 1 << 20, Calibration: train,
	}); err != nil {
		return err
	}
	fmt.Fprintf(w, "v1 %s deployed to %d devices\n", v1s[0].ID, len(ids))

	// Traffic rows: in-distribution for baselines, shifted for -drift.
	rows := make([][]float32, 64)
	bad := make([][]float32, 64)
	for i := range rows {
		rows[i] = make([]float32, 4)
		bad[i] = make([]float32, 4)
		for c := 0; c < 4; c++ {
			rows[i][c] = test.X.At2(i%test.Len(), c)
			bad[i][c] = rows[i][c] + 6
		}
	}
	driveTraffic := func(deviceIDs []string, data [][]float32, repeats int) {
		for _, id := range deviceIDs {
			dep, ok := platform.Deployment(id)
			if !ok {
				continue
			}
			for r := 0; r < repeats; r++ {
				dep.InferBatch(data)
			}
		}
	}
	driveTraffic(ids, rows, 2) // pre-update health baselines

	// v2: fine-tune the head only, so the OTA update is a sparse delta.
	v2net := net.Clone()
	if _, err := tinymlops.Train(v2net, train.X, train.Y, tinymlops.TrainConfig{
		Epochs: 2, BatchSize: 32, Optimizer: tinymlops.SGD(0.02), RNG: rng,
	}); err != nil {
		return err
	}
	v2s, err := platform.Publish("ota", v2net, test, spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "v2 %s published (head fine-tune)\n\n", v2s[0].ID)

	res, err := platform.Rollout(v2s[0], tinymlops.RolloutConfig{
		Seed:        *seed,
		Calibration: train,
		ForceFull:   *full,
		Bake: func(wave tinymlops.RolloutWave, deviceIDs []string) error {
			data := rows
			if *drift && wave.Name == "cohort" {
				data = bad
			}
			driveTraffic(deviceIDs, data, 4)
			return nil
		},
	})
	if err != nil {
		return err
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "wave\tdevices\tdelta/full\tshipped\tgate\tdetail")
	for _, wave := range res.Waves {
		deltas, fulls := 0, 0
		var shipped int64
		for _, o := range wave.Outcomes {
			if o.UpdateErr != "" {
				continue
			}
			shipped += o.Transfer.ShipBytes
			if o.Transfer.UsedDelta {
				deltas++
			} else {
				fulls++
			}
		}
		verdict := "PASS"
		detail := fmt.Sprintf("drift=%d err=%.2f lat=%.2fx", wave.Gate.DriftAlarms, wave.Gate.ErrorRate, wave.Gate.LatencyRatio)
		if !wave.Gate.Pass {
			verdict = "FAIL -> ROLLBACK"
			detail = strings.Join(wave.Gate.Reasons, "; ")
		}
		fmt.Fprintf(tw, "%s\t%d\t%d/%d\t%d B\t%s\t%s\n",
			wave.Wave.Name, len(wave.DeviceIDs), deltas, fulls, shipped, verdict, detail)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fullBytes := int64(v2s[0].Metrics.SizeBytes) * int64(res.DeltaTransfers+res.FullTransfers)
	fmt.Fprintf(w, "\ntransfers: %d delta, %d full; %d B shipped (full-artifact cost would be %d B)\n",
		res.DeltaTransfers, res.FullTransfers, res.TotalShipBytes, fullBytes)
	if res.Completed {
		fmt.Fprintln(w, "rollout completed: entire fleet on v2")
	} else {
		fmt.Fprintln(w, "rollout halted: failing wave reverted to v1, earlier waves keep v2")
	}
	return nil
}
