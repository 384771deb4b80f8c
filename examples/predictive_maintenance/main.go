// Predictive maintenance (§III-B, §III-D): a vibration-anomaly model is
// deployed to machine-mounted sensors, its input distribution drifts when
// a bearing starts wearing, the on-device monitor raises the alarm without
// shipping raw data, and the platform reacts by retraining and rolling the
// new version out — first to a canary, then to the rest of the fleet.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"tinymlops"
)

const window = 32

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example; main_test.go pins its transcript.
func run(w io.Writer) error {
	rng := tinymlops.NewRNG(7)

	// Train the anomaly detector on factory-floor reference data.
	reference := tinymlops.VibrationAnomaly(rng, 2000, window, 0.3, 0)
	train, test := reference.Split(0.8, rng)
	model := tinymlops.NewNetwork([]int{window},
		tinymlops.Dense(window, 24, rng), tinymlops.ReLU(),
		tinymlops.Dense(24, 2, rng))
	if _, err := tinymlops.Train(model, train.X, train.Y, tinymlops.TrainConfig{
		Epochs: 12, BatchSize: 32, Optimizer: tinymlops.SGD(0.1).WithMomentum(0.9), RNG: rng,
	}); err != nil {
		return err
	}
	fmt.Fprintf(w, "anomaly detector: test accuracy %.3f\n", tinymlops.Evaluate(model, test.X, test.Y))

	// Platform + fleet of machine-mounted M4 sensors.
	fleet, err := tinymlops.NewStandardFleet(tinymlops.FleetSpec{CountPerProfile: 3})
	if err != nil {
		return err
	}
	for _, d := range fleet.Devices() {
		d.SetNet(tinymlops.WiFi)
		d.SetCharging(true)
	}
	platform, err := tinymlops.NewPlatform(fleet, tinymlops.PlatformConfig{
		VendorKey: []byte("maintenance-vendor-key-012345678"), Seed: 7, MinCohort: 1,
	})
	if err != nil {
		return err
	}
	if _, err := platform.Publish("vibration", model, test, tinymlops.DefaultOptimizationSpec(test)); err != nil {
		return err
	}
	sensors := []string{"m4-wearable-00", "m4-wearable-01", "m4-wearable-02"}
	for _, id := range sensors {
		if _, err := platform.Deploy(id, "vibration", tinymlops.DeployConfig{
			PrepaidQueries: 100000, Calibration: train,
		}); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "deployed to %d machine sensors\n\n", len(sensors))

	// Machine 0 develops a fault: its signal statistics shift mid-stream.
	fmt.Fprintln(w, "=== streaming with drift onset at t=800 on sensor 0 ===")
	stream := tinymlops.NewDriftStream(rng, test, 800, tinymlops.DriftMeanShift, 1.5)
	dep, _ := platform.Deployment(sensors[0])
	alarmAt := -1
	for t := 0; t < 2400; t++ {
		x, _ := stream.Next()
		res, err := dep.Infer(x)
		if err != nil {
			return err
		}
		if res.DriftAlarm && alarmAt < 0 {
			alarmAt = t
		}
	}
	if alarmAt < 0 {
		return errors.New("drift was never detected")
	}
	fmt.Fprintf(w, "  drift onset t=800, on-device alarm at t=%d (delay %d windows)\n", alarmAt, alarmAt-800)

	// Telemetry carries the alarm (aggregates only) to the fleet monitor.
	if _, _, err := platform.SyncTelemetry(); err != nil {
		return err
	}
	sum, err := platform.Aggregator.Summarize("cortex-m4")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  cloud monitor: cohort %s reports %d drift alarm(s) across %d devices\n\n",
		sum.Cohort, sum.DriftAlarms, sum.Devices)

	// React: retrain on data from the new regime and roll out.
	fmt.Fprintln(w, "=== retrain and staged rollout ===")
	shifted := tinymlops.VibrationAnomaly(rng, 2000, window, 0.3, 0)
	// The new regime: emulate the drifted distribution the monitor saw.
	for i := range shifted.X.Data {
		shifted.X.Data[i] += 1.5
	}
	newTrain, newTest := shifted.Split(0.8, rng)
	retrained := model.Clone()
	if _, err := tinymlops.Train(retrained, newTrain.X, newTrain.Y, tinymlops.TrainConfig{
		Epochs: 8, BatchSize: 32, Optimizer: tinymlops.SGD(0.05), RNG: rng,
	}); err != nil {
		return err
	}
	oldAcc := tinymlops.Evaluate(model, newTest.X, newTest.Y)
	newAcc := tinymlops.Evaluate(retrained, newTest.X, newTest.Y)
	fmt.Fprintf(w, "  on the drifted regime: old model %.3f, retrained %.3f\n", oldAcc, newAcc)
	v2s, err := platform.Publish("vibration", retrained, newTest, tinymlops.DefaultOptimizationSpec(newTest))
	if err != nil {
		return err
	}

	// Staged OTA rollout: one canary sensor bakes the new version on live
	// (drifted-regime) traffic; only when its health gate passes does the
	// update reach the rest of the fleet. A failing gate would roll the
	// wave back to the prior image automatically.
	res, err := platform.Rollout(v2s[0], tinymlops.RolloutConfig{
		Waves: []tinymlops.RolloutWave{
			{Name: "canary", Fraction: 0.34},
			{Name: "fleet", Fraction: 1.0},
		},
		Seed:        7,
		Calibration: newTrain,
		Bake: func(_ tinymlops.RolloutWave, ids []string) error {
			// The machines keep vibrating in the new regime while we watch.
			for _, id := range ids {
				dep, ok := platform.Deployment(id)
				if !ok {
					continue
				}
				for t := 0; t < 400; t++ {
					x, _ := stream.Next()
					if _, err := dep.Infer(x); err != nil {
						return err
					}
				}
			}
			return nil
		},
	})
	if err != nil {
		return err
	}
	for _, wave := range res.Waves {
		for _, o := range wave.Outcomes {
			kind := "full image"
			if o.Transfer.UsedDelta {
				kind = "delta"
			}
			fmt.Fprintf(w, "  wave %-6s %s -> %s (%s, %d B)\n",
				wave.Wave.Name, o.DeviceID, o.Transfer.ToID, kind, o.Transfer.ShipBytes)
		}
		verdict := "PASS"
		if !wave.Gate.Pass {
			verdict = "FAIL -> rolled back: " + wave.Gate.Reasons[0]
		}
		fmt.Fprintf(w, "  wave %-6s gate: %s (drift alarms %d, error rate %.2f)\n",
			wave.Wave.Name, verdict, wave.Gate.DriftAlarms, wave.Gate.ErrorRate)
	}
	if !res.Completed {
		return errors.New("rollout did not complete on healthy traffic")
	}
	fmt.Fprintf(w, "\nfleet on retrained model; %d/%d transfers were deltas, %d B shipped\n",
		res.DeltaTransfers, res.DeltaTransfers+res.FullTransfers, res.TotalShipBytes)
	fmt.Fprintf(w, "registry now tracks %d versions across the incident\n",
		len(platform.Registry.Versions("vibration")))
	return nil
}
