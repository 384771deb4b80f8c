package core

import (
	"runtime"
	"testing"

	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/nn"
	"tinymlops/internal/registry"
	"tinymlops/internal/rollout"
	"tinymlops/internal/tensor"
)

// newFleetRollout builds an n-device standard fleet (rounded up to the six
// profiles) on one worker, running v1, publishes a head-only fine-tune as
// v2 and returns the three-wave rollout of it — a fixed 16-device canary,
// half the fleet, everyone — registry-direct or through a swarm.
func newFleetRollout(tb testing.TB, n int, viaSwarm bool) (*Platform, *registry.ModelVersion, RolloutConfig) {
	tb.Helper()
	fleet, err := device.NewStandardFleet(device.FleetSpec{CountPerProfile: (n + 5) / 6, Seed: 70})
	if err != nil {
		tb.Fatal(err)
	}
	devs := fleet.Devices()
	for _, d := range devs {
		d.SetBehavior(1, 1, 0)
	}
	fleet.Tick()
	p, err := New(fleet, Config{VendorKey: []byte("pin-swarm-key-0123456789abcdef01"), Seed: 70, MinCohort: 1, Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	rng := tensor.NewRNG(71)
	ds := dataset.Blobs(rng, 240, 4, 3, 5)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 8, rng), nn.NewReLU(), nn.NewDense(8, 3, rng))
	if _, err := nn.Train(net, ds.X, ds.Y, nn.TrainConfig{
		Epochs: 4, BatchSize: 32, Optimizer: nn.NewSGD(0.1), RNG: rng,
	}); err != nil {
		tb.Fatal(err)
	}
	if _, err := p.Publish("swarm-pin", net, ds, registry.OptimizationSpec{}); err != nil {
		tb.Fatal(err)
	}
	ids := make([]string, len(devs))
	for i, d := range devs {
		ids[i] = d.ID
	}
	if _, err := p.DeployMany(ids, "swarm-pin", DeployConfig{PrepaidQueries: 1 << 20, Calibration: ds}); err != nil {
		tb.Fatal(err)
	}
	v2net := net.Clone()
	head := v2net.Layers()[2].(*nn.Dense)
	for i := range head.W.Value.Data {
		head.W.Value.Data[i] += 0.01 * float32(i%5+1)
	}
	v2s, err := p.Publish("swarm-pin", v2net, ds, registry.OptimizationSpec{})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := RolloutConfig{
		Waves: []rollout.Wave{
			{Name: "canary", Fraction: 16 / float64(len(devs))},
			{Name: "cohort", Fraction: 0.5},
			{Name: "fleet", Fraction: 1.0},
		},
		Seed: 72, Calibration: ds,
		Gate: rollout.Gate{MaxDriftFraction: 1, MaxErrorRate: 0.99, MaxLatencyIncrease: 99, MaxUpdateFailures: len(devs)},
	}
	if viaSwarm {
		if cfg.Swarm, err = p.NewSwarm(SwarmOptions{ChunkBytes: 256, Seed: 73}); err != nil {
			tb.Fatal(err)
		}
	}
	return p, v2s[0], cfg
}

func rollOut(tb testing.TB, p *Platform, v2 *registry.ModelVersion, cfg RolloutConfig) *rollout.Result {
	tb.Helper()
	res, err := p.Rollout(v2, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if !res.Completed {
		tb.Fatal("rollout did not complete")
	}
	return res
}

// TestFleetRolloutPins pins a 1002-device rollout both ways: allocations per
// device, the rollout after a warm-up one on a fresh fleet (outside a
// race-detector build), and every byte. Registry-direct ships the 160-byte
// delta to each device; through the swarm the registry funds the canary's 16
// deltas plus one last-resort chunk, and peers carry the rest. The
// 10k-device swarm rollout is measured, not gated:
// BenchmarkFleetRolloutSwarm10k.
func TestFleetRolloutPins(t *testing.T) {
	const n, devices = 1000, 1002
	for _, pin := range []struct {
		name                    string
		viaSwarm                bool
		allocs                  float64
		registry, peer, shipped int64
	}{
		{"registry-direct", false, 50.2, 0, 0, 160 * devices},
		{"swarm", true, 18.3, 2_784, 171_564, 174_348},
	} {
		p, v2, cfg := newFleetRollout(t, n, pin.viaSwarm)
		rollOut(t, p, v2, cfg) // warm-up
		p, v2, cfg = newFleetRollout(t, n, pin.viaSwarm)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := rollOut(t, p, v2, cfg)
		runtime.ReadMemStats(&after)
		got := float64(after.Mallocs-before.Mallocs) / devices
		t.Logf("%s: %.2f allocations per device", pin.name, got)
		if got > pin.allocs && !raceBuild {
			t.Errorf("%s: %.2f allocations per device, pinned at <= %.1f", pin.name, got, pin.allocs)
		}
		if res.TotalRegistryBytes != pin.registry || res.TotalPeerBytes != pin.peer || res.TotalShipBytes != pin.shipped {
			t.Errorf("%s: registry %d B, peers %d B, shipped %d B; pinned at %d, %d, %d", pin.name,
				res.TotalRegistryBytes, res.TotalPeerBytes, res.TotalShipBytes, pin.registry, pin.peer, pin.shipped)
		}
	}
}

// TestUpdateAllocationPins pins what one warm Deployment.Update allocates on
// each transport, at GOMAXPROCS 1, device by device. An earlier device has
// already made the move, so its delta plan, its chunk manifest and the
// target's image exist, and what is left is the device's own. Through a
// swarm that is four: its UpdateReport, the selector's evaluation table,
// the swarm's transferState and its TransferStats; the swarm hands over
// its canonical bytes, so none are copied. The swarm pin is exact on six
// second-wave devices fed by the canary; the wave's first device is not
// among them, because it also makes the swarm's pending-seeder sets.
// Registry-direct updates seal and open the artifact in ipprot (34 of the
// delta's 36), whose random draws now and then cost one more, so those two
// pins are upper bounds at the most measured.
func TestUpdateAllocationPins(t *testing.T) {
	for _, pin := range []struct {
		name           string
		viaSwarm, full bool
		allocs         uint64
		exact          bool
	}{
		{"swarm-delta-from-peers", true, false, 4, true},
		{"registry-delta", false, false, 37, false},
		{"registry-full", false, true, 38, false},
	} {
		t.Run(pin.name, func(t *testing.T) {
			p, v2, cfg := newFleetRollout(t, 12, pin.viaSwarm)
			deps := p.Deployments()
			opts := UpdateOptions{ForceFull: pin.full, Swarm: cfg.Swarm}
			// Two devices go first. Through a swarm the first is the canary,
			// which seeds the next wave, and the second starts that wave's
			// seeder registrations.
			for i, d := range deps[:2] {
				if _, err := d.Update(v2, opts); err != nil {
					t.Fatal(err)
				}
				if i == 0 && cfg.Swarm != nil {
					cfg.Swarm.AdvanceWave()
				}
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			for _, d := range deps[2:8] {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				rep, err := d.Update(v2, opts)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if rep.UsedDelta == pin.full || (pin.viaSwarm && rep.PeerBytes != rep.ShipBytes) {
					t.Fatalf("%s: delta %v, %d of %d B from peers: not the transport pinned", d.DeviceID, rep.UsedDelta, rep.PeerBytes, rep.ShipBytes)
				}
				got := after.Mallocs - before.Mallocs
				if raceBuild {
					continue
				}
				if got > pin.allocs || (pin.exact && got != pin.allocs) {
					t.Errorf("%s: %d allocations, pinned at %d (exact: %v)", d.DeviceID, got, pin.allocs, pin.exact)
				}
			}
		})
	}
}

// BenchmarkFleetRolloutSwarm10k times the same swarm rollout over 10 002
// devices, fleet building excluded, and reports what the vendor and the
// peers ship per device, the swarm's economics at scale, and the
// allocations per device update (its 1k figures are TestFleetRolloutPins):
//
//	go test -run '^$' -bench FleetRolloutSwarm10k -benchmem ./internal/core
func BenchmarkFleetRolloutSwarm10k(b *testing.B) {
	const devices = 10_002
	var registryBytes, peerBytes int64
	var mallocs uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, v2, cfg := newFleetRollout(b, devices, true)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.StartTimer()
		res := rollOut(b, p, v2, cfg)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		registryBytes += res.TotalRegistryBytes
		peerBytes += res.TotalPeerBytes
	}
	b.ReportMetric(float64(registryBytes)/float64(b.N*devices), "registry-B/device")
	b.ReportMetric(float64(peerBytes)/float64(b.N*devices), "peer-B/device")
	b.ReportMetric(float64(mallocs)/float64(b.N*devices), "allocs/device")
}
