package main

import (
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"tinymlops"
)

// taskDataset builds one of the named synthetic tasks.
func taskDataset(task string, rng *tinymlops.RNG) (*tinymlops.Dataset, error) {
	switch task {
	case "blobs":
		return tinymlops.Blobs(rng, 2000, 8, 4, 3), nil
	case "rings":
		return tinymlops.Rings(rng, 2000, 3, 0.1), nil
	case "keywords":
		return tinymlops.KeywordSeq(rng, 2000, 32, 4, 0.1, 0), nil
	case "vibration":
		return tinymlops.VibrationAnomaly(rng, 2000, 32, 0.3, 0), nil
	default:
		return nil, fmt.Errorf("unknown task %q (blobs|rings|keywords|vibration)", task)
	}
}

func cmdTrain(w io.Writer, args []string) error {
	fs := newFlagSet("train")
	task := fs.String("task", "blobs", "synthetic task: blobs|rings|keywords|vibration")
	out := fs.String("out", "model.tmln", "output artifact path")
	hidden := fs.Int("hidden", 32, "hidden layer width")
	epochs := fs.Int("epochs", 10, "training epochs")
	seed := fs.Uint64("seed", 42, "random seed")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	rng := tinymlops.NewRNG(*seed)
	ds, err := taskDataset(*task, rng)
	if err != nil {
		return err
	}
	train, test := ds.Split(0.8, rng)
	features := train.ExampleShape()[0]
	net := tinymlops.NewNetwork([]int{features},
		tinymlops.Dense(features, *hidden, rng), tinymlops.ReLU(),
		tinymlops.Dense(*hidden, ds.NumClasses, rng))
	if _, err := tinymlops.Train(net, train.X, train.Y, tinymlops.TrainConfig{
		Epochs: *epochs, BatchSize: 32,
		Optimizer: tinymlops.SGD(0.1).WithMomentum(0.9), RNG: rng,
	}); err != nil {
		return err
	}
	fmt.Fprintf(w, "task %s: train acc %.3f, test acc %.3f\n", *task,
		tinymlops.Evaluate(net, train.X, train.Y), tinymlops.Evaluate(net, test.X, test.Y))
	data, err := net.MarshalBinary()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d bytes)\n", *out, len(data))
	return nil
}

func loadModel(path string) (*tinymlops.Network, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return tinymlops.UnmarshalNetwork(data)
}

func cmdInfo(w io.Writer, args []string) error {
	fs := newFlagSet("info")
	model := fs.String("model", "model.tmln", "model artifact path")
	fs.Parse(args) //nolint:errcheck
	net, err := loadModel(*model)
	if err != nil {
		return err
	}
	summary, _ := net.Summary() // the plan the decoder kept; it cannot fail
	fmt.Fprintf(w, "input shape: %v\n", net.InputShape)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tkind\tout shape\tMACs\tparams")
	for _, lc := range summary {
		fmt.Fprintf(tw, "%d\t%s\t%v\t%d\t%d\n", lc.Index, lc.Kind, lc.Info.OutShape, lc.Info.MACs, lc.Info.ParamCount)
	}
	tw.Flush() //nolint:errcheck
	macs := net.TotalMACs()
	fmt.Fprintf(w, "total: %d params, %d MACs/inference, ops %v\n", net.ParamCount(), macs, net.OpKinds())

	fmt.Fprintln(w, "\nmodeled per-device latency (fp32):")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, p := range tinymlops.StandardProfiles() {
		fmt.Fprintf(tw, "  %s\t%v\n", p.Name, p.InferenceLatency(macs, 32).Round(time.Microsecond))
	}
	return tw.Flush()
}

func cmdVariants(w io.Writer, args []string) error {
	fs := newFlagSet("variants")
	model := fs.String("model", "model.tmln", "model artifact path")
	task := fs.String("task", "blobs", "task for accuracy evaluation")
	seed := fs.Uint64("seed", 42, "seed (must match training for meaningful accuracy)")
	fs.Parse(args) //nolint:errcheck
	net, err := loadModel(*model)
	if err != nil {
		return err
	}
	rng := tinymlops.NewRNG(*seed)
	ds, err := taskDataset(*task, rng)
	if err != nil {
		return err
	}
	_, test := ds.Split(0.8, rng)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tsize bytes\taccuracy\tnative exec on")
	for _, scheme := range []tinymlops.Scheme{tinymlops.Float32, tinymlops.Int8, tinymlops.Int4, tinymlops.Ternary, tinymlops.Binary} {
		candidate := net
		if scheme != tinymlops.Float32 {
			candidate, err = tinymlops.FakeQuantize(net, scheme)
			if err != nil {
				return err
			}
		}
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%s\n", scheme,
			tinymlops.QuantizedSize(net, scheme), tinymlops.Evaluate(candidate, test.X, test.Y),
			nativeExecProfiles(scheme))
	}
	return tw.Flush()
}

func cmdExport(w io.Writer, args []string) error {
	fs := newFlagSet("export")
	model := fs.String("model", "model.tmln", "model artifact path")
	out := fs.String("out", "model.json", "output exchange document")
	fs.Parse(args) //nolint:errcheck
	net, err := loadModel(*model)
	if err != nil {
		return err
	}
	data, err := tinymlops.ExportJSON(net)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d bytes, exchange format v%d)\n", *out, len(data), tinymlops.ExchangeVersion)
	return nil
}

func cmdImport(w io.Writer, args []string) error {
	fs := newFlagSet("import")
	graph := fs.String("graph", "model.json", "exchange document path")
	out := fs.String("out", "model.tmln", "output artifact path")
	fs.Parse(args) //nolint:errcheck
	data, err := os.ReadFile(*graph)
	if err != nil {
		return err
	}
	net, err := tinymlops.ImportJSON(data)
	if err != nil {
		return err
	}
	bin, err := net.MarshalBinary()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, bin, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "imported %d-param model from %s -> %s\n", net.ParamCount(), *graph, *out)
	return nil
}

func cmdSimulate(w io.Writer, args []string) error {
	fs := newFlagSet("simulate")
	perProfile := fs.Int("devices", 1, "devices per hardware profile")
	queries := fs.Int("queries", 150, "queries per device")
	quota := fs.Uint64("quota", 100, "prepaid queries per deployment")
	seed := fs.Uint64("seed", 42, "random seed")
	workers := fs.Int("workers", 0, "fleet worker pool size (0 = all cores)")
	fs.Parse(args) //nolint:errcheck
	if *queries < 0 {
		*queries = 0
	}

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
	if _, err := platform.Publish("sim", net, test, tinymlops.DefaultOptimizationSpec(test)); err != nil {
		return err
	}

	// Deploy to every device across the platform's worker pool, then run
	// each device's whole query load as one batched burst, devices in
	// parallel. The table is identical to the old serial loop — per-device
	// metering and results are order-independent by construction.
	devs := fleet.Devices()
	eng := platform.Engine()
	type depState struct {
		dep *tinymlops.Deployment
		err error
	}
	states := make([]depState, len(devs))
	_ = eng.ForEach(len(devs), func(i int) error {
		d, derr := platform.Deploy(devs[i].ID, "sim", tinymlops.DeployConfig{
			PrepaidQueries: *quota, Calibration: train,
		})
		states[i] = depState{dep: d, err: derr}
		return nil
	})

	rows := make([][]float32, *queries)
	for i := range rows {
		row := make([]float32, 4)
		for f := 0; f < 4; f++ {
			row[f] = test.X.At2(i%test.Len(), f)
		}
		rows[i] = row
	}
	type qStat struct{ served, denied int }
	stats := make([]qStat, len(devs))
	_ = eng.ForEach(len(devs), func(i int) error {
		if states[i].err != nil || states[i].dep == nil {
			return nil
		}
		for _, o := range states[i].dep.InferBatch(rows) {
			if o.Err != nil {
				stats[i].denied++
			} else {
				stats[i].served++
			}
		}
		return nil
	})

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "device\tvariant\texec\tserved\tdenied\tbattery")
	for i, d := range devs {
		// A nil dep with a nil err means the deploy task died before
		// recording a result (the engine contains panics per task).
		if states[i].err != nil || states[i].dep == nil {
			fmt.Fprintf(tw, "%s\t(deploy failed: %v)\t\t\t\t\n", d.ID, states[i].err)
			continue
		}
		dep := states[i].dep
		fmt.Fprintf(tw, "%s\t%s/%s\t%s\t%d\t%d\t%.0f%%\n",
			d.ID, dep.Version.ID[:8], dep.Version.Scheme, dep.ExecutionScheme(),
			stats[i].served, stats[i].denied, 100*d.BatteryLevel())
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	records, bytes, err := platform.SyncTelemetry()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\ntelemetry: %d records (%d bytes) across %d cohorts\n",
		records, bytes, len(platform.Aggregator.Cohorts()))
	return nil
}
