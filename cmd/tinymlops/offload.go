package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
	"time"

	"tinymlops"
)

// cmdOffload runs the live edge–cloud offload demonstration: deploy a
// model across a heterogeneous fleet, open split-execution sessions
// against one cloud tier, and drive queries through a connectivity
// schedule (WiFi → cellular → offline → recovery) so the replanner
// migrates each device's cut as its uplink changes. Every answer is
// verified bit-exact against the device's own forward pass; exits
// non-zero on any mismatch.
func cmdOffload(w io.Writer, args []string) error {
	fs := newFlagSet("offload")
	perProfile := fs.Int("devices", 1, "devices per hardware profile (6 profiles)")
	queries := fs.Int("queries", 12, "queries per device per connectivity phase")
	seed := fs.Uint64("seed", 42, "random seed")
	rtt := fs.Duration("rtt", 200*time.Microsecond, "modeled round-trip to the cloud")
	workers := fs.Int("workers", 0, "worker pool size (0 = all cores)")
	enclaved := fs.Bool("enclave", false, "watermark each device's copy and serve suffixes from the vendor enclave")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	rng := tinymlops.NewRNG(*seed)
	fleet, err := tinymlops.NewStandardFleet(tinymlops.FleetSpec{CountPerProfile: *perProfile})
	if err != nil {
		return err
	}
	devs := fleet.Devices()
	for _, d := range devs {
		d.SetNet(tinymlops.WiFi)
	}
	platform, err := tinymlops.NewPlatform(fleet, tinymlops.PlatformConfig{
		VendorKey: []byte("offload-demo-key-0123456789abcdef"), Seed: *seed, Workers: *workers,
	})
	if err != nil {
		return err
	}

	ds := tinymlops.Blobs(rng, 400, 8, 4, 4)
	net := tinymlops.NewNetwork([]int{8},
		tinymlops.Dense(8, 48, rng), tinymlops.ReLU(),
		tinymlops.Dense(48, 24, rng), tinymlops.ReLU(),
		tinymlops.Dense(24, 4, rng))
	if _, err := tinymlops.Train(net, ds.X, ds.Y, tinymlops.TrainConfig{
		Epochs: 4, BatchSize: 32, Optimizer: tinymlops.SGD(0.1), RNG: rng,
	}); err != nil {
		return err
	}
	spec := tinymlops.OptimizationSpec{Evaluate: func(n *tinymlops.Network) float64 {
		return tinymlops.Evaluate(n, ds.X, ds.Y)
	}}
	if _, err := platform.Publish("offload-demo", net, ds, spec); err != nil {
		return err
	}
	ids := make([]string, 0, len(devs))
	for _, d := range devs {
		ids = append(ids, d.ID)
	}
	deploy := tinymlops.DeployConfig{PrepaidQueries: 1 << 16}
	if *enclaved {
		// Each device gets its own watermarked copy; the cloud tier then
		// refuses plaintext suffix hosting and platform.Offload provisions
		// the per-device copies into the vendor enclave instead.
		deploy.Watermark = "offload-demo-customer"
	}
	if _, err := platform.DeployMany(ids, "offload-demo", deploy); err != nil {
		return err
	}

	cloud := tinymlops.NewOffloadCloud()
	defer cloud.Close()
	sessions := make([]*tinymlops.OffloadSession, len(ids))
	for i, id := range ids {
		if sessions[i], err = platform.Offload(id, tinymlops.OffloadConfig{Cloud: cloud, Replan: tinymlops.OffloadReplanConfig{RTT: *rtt}}); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "offload: %d devices, %d queries/device/phase, rtt %v\n", len(ids), *queries, *rtt)
	if *enclaved {
		fmt.Fprintln(w, "enclave: per-device watermarked suffixes attested and sealed into the vendor enclave")
	}
	fmt.Fprintln(w)
	es := ds.X.Size() / ds.Len()
	phases := []struct {
		name string
		net  tinymlops.NetState
	}{
		{"wifi", tinymlops.WiFi},
		{"cellular", tinymlops.Cellular},
		{"offline", tinymlops.Offline},
		{"recovery", tinymlops.WiFi},
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\tsplit\tlocal\tfallback\treplans\tuplink-B\tmean-latency")
	mismatches := 0
	for _, ph := range phases {
		for _, d := range devs {
			d.SetNet(ph.net)
		}
		var split, local, fallback, replans, actBytes int64
		var latSum time.Duration
		var served int64
		for q := 0; q < *queries; q++ {
			for i := range sessions {
				x := ds.X.Data[(q%ds.Len())*es : (q%ds.Len())*es+es]
				out, ierr := sessions[i].Infer(x)
				if ierr != nil {
					continue // a dead battery or exhausted meter; counted nowhere
				}
				served++
				latSum += out.Latency
				switch out.Split.Mode {
				case tinymlops.OffloadSplit:
					split++
				case tinymlops.OffloadLocal:
					local++
				case tinymlops.OffloadFallback:
					fallback++
				}
				if out.Split.Replanned {
					replans++
				}
				actBytes += out.Split.ActivationBytes
				dep, _ := platform.Deployment(ids[i])
				want := dep.ReferenceLogits(x)
				for j, v := range out.Split.Logits {
					if math.Float32bits(v) != math.Float32bits(want[j]) {
						mismatches++
						break
					}
				}
			}
		}
		mean := time.Duration(0)
		if served > 0 {
			mean = latSum / time.Duration(served)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%v\n",
			ph.name, split, local, fallback, replans, actBytes, mean)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w)
	cs := cloud.Stats()
	fmt.Fprintf(w, "cloud: %d suffix requests served, %d shed, peak in flight %d\n",
		cs.Served, cs.Shed, cs.MaxQueueDepth)
	var used uint64
	for _, id := range ids {
		if dep, ok := platform.Deployment(id); ok {
			used += dep.Meter.Used()
		}
	}
	fmt.Fprintf(w, "metering: %d queries charged across the fleet (offloaded queries stay pay-per-query)\n", used)
	if mismatches > 0 {
		return fmt.Errorf("offload: %d answers were not bit-exact with the on-device forward", mismatches)
	}
	fmt.Fprintln(w, "bit-exactness: every answer identical to the on-device forward pass")
	return nil
}
