package experiments

import (
	"fmt"
	"io"
	"net"
	"time"

	"tinymlops/internal/core"
	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/engine"
	"tinymlops/internal/fed"
	"tinymlops/internal/metering"
	"tinymlops/internal/nn"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/selector"
	"tinymlops/internal/tensor"
)

// trainBlobs trains a small classifier and returns (net, train, test).
func trainBlobs(seed uint64, n, features, classes int, sep float32, hidden int) (*nn.Network, *dataset.Dataset, *dataset.Dataset, error) {
	rng := tensor.NewRNG(seed)
	ds := dataset.Blobs(rng, n, features, classes, sep)
	train, test := ds.Split(0.8, rng)
	net := nn.NewNetwork([]int{features},
		nn.NewDense(features, hidden, rng), nn.NewReLU(),
		nn.NewDense(hidden, classes, rng))
	_, err := nn.Train(net, train.X, train.Y, nn.TrainConfig{
		Epochs: 10, BatchSize: 32, Optimizer: nn.NewSGD(0.1).WithMomentum(0.9), RNG: rng,
	})
	return net, train, test, err
}

// RunE1 exercises every Fig. 1 functionality block in one scenario and
// reports a per-block metric.
func RunE1(w io.Writer) error {
	net, train, test, err := trainBlobs(1, 1500, 4, 3, 5, 16)
	if err != nil {
		return err
	}
	fleet, err := device.NewStandardFleet(device.FleetSpec{CountPerProfile: 2, Seed: 1})
	if err != nil {
		return err
	}
	for _, d := range fleet.Devices() {
		d.SetBehavior(1, 1, 0)
	}
	fleet.Tick()
	p, err := core.New(fleet, core.Config{VendorKey: []byte("e1-vendor-key-0123456789abcdef00"), Seed: 1, MinCohort: 1})
	if err != nil {
		return err
	}
	versions, err := p.Publish("e1", net, test, core.DefaultOptimizationSpec(test))
	if err != nil {
		return err
	}
	// Deployment fans out over the platform's worker pool; per-device
	// failures (a model that does not fit a profile) are expected and are
	// counted rather than propagated, as before.
	deployed := 0
	ids := make([]string, 0, fleet.Size())
	for _, d := range fleet.Devices() {
		ids = append(ids, d.ID)
	}
	deps, _ := engine.Map(p.Engine(), len(ids), func(i int) (*core.Deployment, error) {
		return p.Deploy(ids[i], "e1", core.DeployConfig{PrepaidQueries: 200, Calibration: train, Watermark: "cust-" + ids[i]})
	})
	for _, d := range deps {
		if d != nil {
			deployed++
		}
	}
	// Metered inference everywhere: one batched burst per deployment, all
	// deployments in parallel (50 queries beyond quota to exercise denial).
	rows := make([][]float32, 250)
	for i := range rows {
		row := make([]float32, 4)
		for f := 0; f < 4; f++ {
			row[f] = test.X.At2(i%test.Len(), f)
		}
		rows[i] = row
	}
	live := p.Deployments()
	served := make([]int, len(live))
	refused := make([]int, len(live))
	_ = p.Engine().ForEach(len(live), func(i int) error {
		for _, o := range live[i].InferBatch(rows) {
			if o.Err != nil {
				refused[i]++
			} else {
				served[i]++
			}
		}
		return nil
	})
	queries, denials := 0, 0
	for i := range live {
		queries += served[i]
		denials += refused[i]
	}
	records, bytes, err := p.SyncTelemetry()
	if err != nil {
		return err
	}
	l, err := net2listen()
	if err != nil {
		return err
	}
	srv := metering.Serve(l, p.Settler)
	defer srv.Close()
	settled := 0
	for _, err := range p.SettleAll(srv.Addr()) {
		if err == nil {
			settled++
		}
	}
	// Federated retraining round.
	rng := tensor.NewRNG(2)
	shards := dataset.PartitionDirichlet(rng, train, 6, 1)
	clients := fed.MakeClients(train, shards, "c")
	_, newVersions, stats, err := p.HierFederatedUpdate("e1", clients, test, fed.HierConfig{Config: fed.Config{
		Rounds: 3, LocalEpochs: 1, LocalBatch: 16, LR: 0.1, Seed: 3,
	}}, core.DefaultOptimizationSpec(test))
	if err != nil {
		return err
	}

	tw := table(w)
	fmt.Fprintln(tw, "Fig.1 block\tevidence")
	fmt.Fprintf(tw, "manage model versions\t%d versions registered (1 base + %d variants), lineage tracked\n", len(versions), len(versions)-1)
	fmt.Fprintf(tw, "deploy across fleet\t%d/%d devices deployed, per-device variant selection\n", deployed, fleet.Size())
	fmt.Fprintf(tw, "observability\t%d telemetry records (%d B) aggregated into %d cohorts\n", records, bytes, len(p.Aggregator.Cohorts()))
	fmt.Fprintf(tw, "pay-per-query\t%d queries served, %d denied at quota, %d/%d meters settled\n", queries, denials, settled, deployed)
	fmt.Fprintf(tw, "retrain/personalize\tfederated update: %d rounds, final acc %.3f, %d new versions\n", len(stats), stats[len(stats)-1].TestAccuracy, len(newVersions))
	fmt.Fprintf(tw, "IP protection\tper-customer watermarks embedded on deploy (registry-tagged)\n")
	fmt.Fprintf(tw, "verifiable execution\tsee E10 (sum-check proofs per dense layer)\n")
	return tw.Flush()
}

func net2listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// RunE2 sweeps model variants across device classes and compares
// per-device selection against one-size-fits-all deployment.
func RunE2(w io.Writer) error {
	rng := tensor.NewRNG(10)
	ds := dataset.Blobs(rng, 3000, 64, 4, 3)
	train, test := ds.Split(0.8, rng)
	eval := func(n *nn.Network) float64 { return nn.Evaluate(n, test.X, test.Y) }

	big := nn.NewNetwork([]int{64},
		nn.NewDense(64, 512, rng), nn.NewReLU(),
		nn.NewDense(512, 256, rng), nn.NewReLU(),
		nn.NewDense(256, 4, rng))
	small := nn.NewNetwork([]int{64},
		nn.NewDense(64, 32, rng), nn.NewReLU(),
		nn.NewDense(32, 4, rng))
	for _, m := range []*nn.Network{big, small} {
		if _, err := nn.Train(m, train.X, train.Y, nn.TrainConfig{
			Epochs: 8, BatchSize: 32, Optimizer: nn.NewSGD(0.05).WithMomentum(0.9), RNG: rng,
		}); err != nil {
			return err
		}
	}
	reg := registry.New()
	spec := registry.OptimizationSpec{
		Schemes:  []quant.Scheme{quant.Int8, quant.Int4, quant.Ternary, quant.Binary},
		Evaluate: eval,
	}
	var candidates []*registry.ModelVersion
	for _, m := range []*nn.Network{big, small} {
		vs, err := reg.RegisterWithVariants("clf", m, eval(m), spec)
		if err != nil {
			return err
		}
		candidates = append(candidates, vs...)
	}

	fmt.Fprintf(w, "candidate matrix: 2 architectures × 5 precisions = %d variants\n\n", len(candidates))
	tw := table(w)
	fmt.Fprintln(tw, "device\tchosen\tprecision\tacc\tlatency\tsize\tnote")
	fleetAccSel, fleetLatSel := 0.0, 0.0
	fleetAccGlobal, fleetLatGlobal := 0.0, 0.0
	globalBase := candidates[0] // big fp32 — the "latest and greatest"
	profiles := device.StandardProfiles()
	seeder := tensor.NewRNG(11)
	for _, prof := range profiles {
		d := device.NewDevice(prof.Name, prof, seeder.Split())
		d.SetBehavior(1, 1, 0)
		d.Tick()
		dec, err := selector.Select(d, candidates, selector.DefaultPolicy())
		if err != nil {
			return err
		}
		ch := dec.Chosen
		arch := "small"
		if ch.Version.Metrics.MACs > 100000 {
			arch = "big"
		}
		note := ""
		if !prof.SupportsBits(ch.Version.Scheme.Bits()) {
			note = "emulated bits"
		}
		fmt.Fprintf(tw, "%s\t%s-%s\t%s\t%.3f\t%v\t%dB\t%s\n",
			prof.Name, arch, ch.Version.ID[:6], ch.Version.Scheme,
			ch.Version.Metrics.Accuracy, ch.Latency.Round(time.Microsecond),
			ch.Version.Metrics.SizeBytes, note)
		fleetAccSel += ch.Version.Metrics.Accuracy
		fleetLatSel += ch.Latency.Seconds()
		// One-size-fits-all: force the big fp32 base (if it fits at all).
		gl := prof.InferenceLatency(globalBase.Metrics.MACs, 32)
		fleetLatGlobal += gl.Seconds()
		if int64(globalBase.Metrics.SizeBytes) <= prof.FlashBytes {
			fleetAccGlobal += globalBase.Metrics.Accuracy
		} // else: cannot deploy at all — zero accuracy contribution
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	n := float64(len(profiles))
	fmt.Fprintf(w, "\nfleet mean (per-device selection): accuracy %.3f, latency %.2fms\n",
		fleetAccSel/n, fleetLatSel/n*1e3)
	fmt.Fprintf(w, "fleet mean (one global fp32 model): accuracy %.3f (0 where it cannot deploy), latency %.2fms\n",
		fleetAccGlobal/n, fleetLatGlobal/n*1e3)
	return nil
}

// RunE3 shows that reduced precision only helps with hardware support:
// modeled latency per device × precision.
func RunE3(w io.Writer) error {
	const macs = 200_000
	tw := table(w)
	fmt.Fprintln(tw, "device\tfp32\tint8\tint4\tternary\t(— = emulated, slower than fp32)")
	for _, prof := range device.StandardProfiles() {
		row := fmt.Sprintf("%s", prof.Name)
		for _, bits := range []int{32, 8, 4, 2} {
			lat := prof.InferenceLatency(macs, bits)
			mark := ""
			if !prof.SupportsBits(bits) {
				mark = "—"
			}
			row += fmt.Sprintf("\t%v%s", lat.Round(time.Microsecond), mark)
		}
		fmt.Fprintln(tw, row)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nhost kernel time: bench/run.sh measures it (tensor.matmul_i8_us, tensor.matmul_f32_us)")
	return nil
}
