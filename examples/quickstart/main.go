// Quickstart: the end-to-end TinyMLOps flow of Figure 1 — train a model,
// publish it (which auto-derives quantized variants), deploy the best
// variant to each device of a heterogeneous fleet, run metered and
// monitored inference at the edge, ship anonymized telemetry when devices
// reach WiFi, and settle the pay-per-query meters with the vendor.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"

	"tinymlops"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example; main_test.go pins its transcript.
func run(w io.Writer) error {
	rng := tinymlops.NewRNG(42)

	// 1. Train a small classifier on the vendor's data.
	data := tinymlops.Blobs(rng, 1200, 4, 3, 5)
	train, test := data.Split(0.8, rng)
	model := tinymlops.NewNetwork([]int{4},
		tinymlops.Dense(4, 16, rng), tinymlops.ReLU(),
		tinymlops.Dense(16, 3, rng))
	if _, err := tinymlops.Train(model, train.X, train.Y, tinymlops.TrainConfig{
		Epochs: 10, BatchSize: 32, Optimizer: tinymlops.SGD(0.1).WithMomentum(0.9), RNG: rng,
	}); err != nil {
		return err
	}
	fmt.Fprintf(w, "trained model: test accuracy %.3f\n", tinymlops.Evaluate(model, test.X, test.Y))

	// 2. Stand up the platform over a 12-device simulated fleet.
	fleet, err := tinymlops.NewStandardFleet(tinymlops.FleetSpec{CountPerProfile: 2, Seed: 7})
	if err != nil {
		return err
	}
	for _, d := range fleet.Devices() {
		d.SetBehavior(0.8, 0.9, 0.05) // mostly charged, mostly on WiFi
	}
	fleet.Tick()
	platform, err := tinymlops.NewPlatform(fleet, tinymlops.PlatformConfig{
		VendorKey: []byte("quickstart-vendor-key-0123456789"),
		Seed:      42, MinCohort: 1,
	})
	if err != nil {
		return err
	}

	// 3. Publish: the optimization pipeline derives int8/int4/ternary/
	// binary variants and records accuracy, size and MACs for each.
	versions, err := platform.Publish("demo-clf", model, test, tinymlops.DefaultOptimizationSpec(test))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\npublished %d versions:\n", len(versions))
	for _, v := range versions {
		fmt.Fprintf(w, "  %s  %-8s acc=%.3f size=%6dB MACs=%d\n",
			v.ID, v.Scheme, v.Metrics.Accuracy, v.Metrics.SizeBytes, v.Metrics.MACs)
	}

	// 4. Deploy the best variant per device: constrained MCUs get
	// quantized models, the gateway gets the full-precision base.
	fmt.Fprintln(w, "\ndeployments:")
	targets := []string{"m0-sensor-00", "npu-board-00", "edge-gateway-00"}
	for _, id := range targets {
		dep, err := platform.Deploy(id, "demo-clf", tinymlops.DeployConfig{
			PrepaidQueries: 100,
			Calibration:    train,
		})
		if err != nil {
			return fmt.Errorf("deploy %s: %v", id, err)
		}
		fmt.Fprintf(w, "  %-16s -> %s (%s, acc %.3f)\n",
			id, dep.Version.ID, dep.Version.Scheme, dep.Version.Metrics.Accuracy)
	}

	// 5. Run metered inference at the edge.
	fmt.Fprintln(w, "\nmetered inference on m0-sensor-00:")
	dep, _ := platform.Deployment("m0-sensor-00")
	correct, denied := 0, 0
	x := make([]float32, 4)
	for i := 0; i < 120; i++ { // quota is 100: the last 20 are denied
		for f := 0; f < 4; f++ {
			x[f] = test.X.At2(i%test.Len(), f)
		}
		res, err := dep.Infer(x)
		if errors.Is(err, tinymlops.ErrQueryDenied) {
			denied++
			continue
		}
		if err != nil {
			return err
		}
		if res.Label == test.Y[i%test.Len()] {
			correct++
		}
	}
	fmt.Fprintf(w, "  served %d queries (%d correct), denied %d after quota\n",
		120-denied, correct, denied)
	fmt.Fprintf(w, "  meter: used %d / remaining %d\n", dep.Meter.Used(), dep.Meter.Remaining())

	// 6. Telemetry: aggregates only, shipped on WiFi, k-anonymized.
	records, bytes, err := platform.SyncTelemetry()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ntelemetry: %d records, %d bytes uplinked\n", records, bytes)
	for _, cohort := range platform.Aggregator.Cohorts() {
		if sum, err := platform.Aggregator.Summarize(cohort); err == nil {
			fmt.Fprintf(w, "  cohort %-12s devices=%d inferences=%d meanLat=%.1fµs denied=%d\n",
				cohort, sum.Devices, sum.Inferences, sum.MeanLatency, sum.Denied)
		}
	}

	// 7. Settlement: the device reconciles its hash-chained usage log.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := tinymlops.ServeSettlement(l, platform)
	defer srv.Close()
	results := platform.SettleAll(srv.Addr())
	ok := 0
	for _, err := range results {
		if err == nil {
			ok++
		}
	}
	fmt.Fprintf(w, "\nsettlement: %d/%d deployments reconciled with the vendor\n", ok, len(results))
	if used, found := platform.Settler.SettledUsage(dep.Meter.Voucher().ID); found {
		fmt.Fprintf(w, "  vendor-acknowledged usage for %s: %d queries\n", dep.DeviceID, used)
	}
	return nil
}
