package benchsuite

import (
	"fmt"
	"sync"
	"testing"

	"tinymlops/internal/benchfmt"
	"tinymlops/internal/compat"
	"tinymlops/internal/core"
	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/enclave"
	"tinymlops/internal/engine"
	"tinymlops/internal/exec"
	"tinymlops/internal/fed"
	"tinymlops/internal/market"
	"tinymlops/internal/nn"
	"tinymlops/internal/offload"
	"tinymlops/internal/procvm"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/rollout"
	"tinymlops/internal/tensor"
	"tinymlops/internal/verify"
)

// Case is one named benchmark the trajectory tracks.
type Case struct {
	Name  string
	Bench func(b *testing.B)
}

// runRounds is how many times Run repeats each case. Cases run
// round-robin and keep their fastest round: on a shared box, scheduler
// and frequency noise only ever slow a run down, so the per-case minimum
// is the low-variance estimator — one-shot sequential timing can drift
// 2× between cases and would make both the committed baselines and the
// CI regression gate flap. Interleaving the rounds also spreads any
// transient load across all cases instead of sinking one.
const runRounds = 3

// Run executes the cases via testing.Benchmark under tensor.EnterPool and
// returns one benchfmt entry per case (its best of runRounds interleaved
// rounds by ns/op).
func Run(cases []Case) []benchfmt.Entry {
	exit := tensor.EnterPool()
	defer exit()
	entries := make([]benchfmt.Entry, len(cases))
	for round := 0; round < runRounds; round++ {
		for i, c := range cases {
			e := benchfmt.FromBenchmarkResult(c.Name, testing.Benchmark(c.Bench))
			if round == 0 || e.NsPerOp < entries[i].NsPerOp {
				entries[i] = e
			}
		}
	}
	return entries
}

// Report runs the cases and wraps the results as an area report.
func Report(area string, cases []Case) *benchfmt.Report {
	return benchfmt.NewReport(area, Run(cases))
}

// servingFixture mirrors the root BenchmarkInferBatch* fixture: same
// topology, same seed, same batch, so the committed trajectory and the
// ad-hoc `go test -bench` numbers describe the same workload.
func servingFixture() (*nn.Network, *tensor.Tensor) {
	rng := tensor.NewRNG(32)
	net := nn.NewNetwork([]int{64},
		nn.NewDense(64, 128, rng), nn.NewReLU(), nn.NewDense(128, 10, rng))
	return net, tensor.Randn(rng, 1, 16, 64)
}

// settleK/settleN mirror the root settlement benchmarks' proved-layer
// shape: one quantized input row against a k×n weight matrix.
const settleK, settleN = 256, 64

func settleOperands(rng *tensor.RNG) (a, wq []int32) {
	a = make([]int32, settleK)
	wq = make([]int32, settleK*settleN)
	for i := range a {
		a[i] = int32(rng.Intn(255) - 127)
	}
	for i := range wq {
		wq[i] = int32(rng.Intn(255) - 127)
	}
	return a, wq
}

// Serving returns the serving-area suite: the three precision variants of
// the batched inference hot loop plus the settlement prove/verify path.
func Serving() []Case {
	quantCase := func(scheme quant.Scheme) func(b *testing.B) {
		return func(b *testing.B) {
			net, in := servingFixture()
			qm, err := quant.NewQModel(net, scheme)
			if err != nil {
				b.Fatal(err)
			}
			scratch := quant.NewQScratch()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qm.ForwardBatch(in, scratch)
			}
		}
	}
	return []Case{
		{Name: "InferBatchFloat32", Bench: func(b *testing.B) {
			net, in := servingFixture()
			scratch := nn.NewScratch()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.ForwardBatch(in, scratch)
			}
		}},
		{Name: "InferBatchInt8", Bench: quantCase(quant.Int8)},
		{Name: "InferBatchInt4", Bench: quantCase(quant.Int4)},
		{Name: "ProveMatMul", Bench: func(b *testing.B) {
			a, wq := settleOperands(tensor.NewRNG(50))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := verify.ProveMatMul(a, 1, settleK, wq, settleN); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "ProveMatMulPrepared", Bench: func(b *testing.B) {
			a, wq := settleOperands(tensor.NewRNG(50))
			pw, err := verify.PrepareWeights(wq, settleK, settleN)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := verify.ProveMatMulPrepared(nil, a, 1, pw); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "VerifyMatMul", Bench: func(b *testing.B) {
			a, wq := settleOperands(tensor.NewRNG(51))
			c, proof, _, err := verify.ProveMatMul(a, 1, settleK, wq, settleN)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, _, verr := verify.VerifyMatMul(a, 1, settleK, wq, settleN, c, proof)
				if verr != nil || !ok {
					b.Fatalf("verify failed: %v %v", ok, verr)
				}
			}
		}},
		{Name: "BatchVerifySettlement16", Bench: func(b *testing.B) {
			const window = 16
			rng := tensor.NewRNG(52)
			_, wq := settleOperands(rng)
			bv := verify.NewBatchVerifier(engine.Default())
			if err := bv.Prepare("bench-class", wq, settleK, settleN); err != nil {
				b.Fatal(err)
			}
			items := make([]verify.BatchItem, window)
			for i := range items {
				a := make([]int32, settleK)
				for j := range a {
					a[j] = int32(rng.Intn(255) - 127)
				}
				c, proof, _, err := verify.ProveMatMul(a, 1, settleK, wq, settleN)
				if err != nil {
					b.Fatal(err)
				}
				items[i] = verify.BatchItem{ClassID: "bench-class", A: a, M: 1, C: c, Proof: proof}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, _, err := bv.VerifyBatch(items)
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if !r.OK {
						b.Fatalf("batch rejected an honest proof: %v", r.Err)
					}
				}
			}
		}},
	}
}

// offloadModel mirrors the offload package's benchmark model.
func offloadModel(rng *tensor.RNG) *nn.Network {
	return nn.NewNetwork([]int{32},
		nn.NewDense(32, 128, rng), nn.NewReLU(),
		nn.NewDense(128, 128, rng), nn.NewReLU(),
		nn.NewDense(128, 64, rng), nn.NewTanh(),
		nn.NewDense(64, 8, rng))
}

// registerFloat registers model with the cloud as the "bench" version on
// the float executor, enclave-hosted when slowdown exceeds 1.
func registerFloat(b *testing.B, cloud *offload.CloudTier, model *nn.Network, slowdown float64) {
	ex, err := exec.Float(model, 32)
	if err != nil {
		b.Fatal(err)
	}
	if slowdown > 1 {
		ex = exec.Hosted(ex, slowdown)
	}
	if err := cloud.Register("bench", ex); err != nil {
		b.Fatal(err)
	}
}

func offloadSession(b *testing.B, cut int, cloud *offload.CloudTier, model *nn.Network, id string) *offload.Session {
	caps, _ := device.ProfileByName("phone")
	dev := device.NewDevice(id, caps, tensor.NewRNG(1))
	dev.SetNet(device.WiFi)
	plan := market.SplitPlan{Cut: cut}
	s, err := offload.NewSession(offload.SessionConfig{
		Tenant: id, VersionID: "bench", Device: dev, Model: model.Clone(),
		Cloud: cloud, Plan: &plan, Replan: offload.ReplanConfig{Disabled: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func offloadInput() []float32 {
	rng := tensor.NewRNG(4)
	x := make([]float32, 32)
	for i := range x {
		x[i] = rng.NormFloat32()
	}
	return x
}

// Offload returns the offload-area suite: monolithic on-device execution,
// a batch-1 split round trip, and 16 concurrent sessions coalescing
// through one cloud tier.
func Offload() []Case {
	return []Case{
		{Name: "OffloadMonolithic", Bench: func(b *testing.B) {
			model := offloadModel(tensor.NewRNG(2))
			cloud := offload.NewCloud(offload.CloudConfig{})
			registerFloat(b, cloud, model, 1)
			cloud.Start()
			defer cloud.Close()
			s := offloadSession(b, len(model.Layers()), cloud, model, "mono")
			x := offloadInput()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(x); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "OffloadSplit", Bench: func(b *testing.B) {
			model := offloadModel(tensor.NewRNG(2))
			cloud := offload.NewCloud(offload.CloudConfig{})
			registerFloat(b, cloud, model, 1)
			cloud.Start()
			defer cloud.Close()
			s := offloadSession(b, 2, cloud, model, "split")
			x := offloadInput()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(x); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "OffloadBatchedCloud16", Bench: func(b *testing.B) {
			model := offloadModel(tensor.NewRNG(2))
			cloud := offload.NewCloud(offload.CloudConfig{MaxBatch: 32, QueueCap: 1024, Dispatchers: 2})
			registerFloat(b, cloud, model, 1)
			cloud.Start()
			defer cloud.Close()
			const sessions = 16
			ss := make([]*offload.Session, sessions)
			for i := range ss {
				ss[i] = offloadSession(b, 2, cloud, model, fmt.Sprintf("batch-%02d", i))
			}
			x := offloadInput()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/sessions + 1
			for i := 0; i < sessions; i++ {
				wg.Add(1)
				go func(s *offload.Session) {
					defer wg.Done()
					for q := 0; q < per; q++ {
						if _, err := s.Exec(x); err != nil {
							b.Error(err)
							return
						}
					}
				}(ss[i])
			}
			wg.Wait()
		}},
	}
}

// fedClients/fedAggregators shape the fed suite's fleet: 1600 clients in
// 100 cohorts gives the hierarchical round a 16× cloud fan-in over flat.
// The root bench_test.go benchmarks mirror this fixture exactly.
const fedClients, fedAggregators = 1600, 100

// FedFixture builds the fed-area fleet: fedClients two-example shards cut
// from one blob pool, a small linear global, and a test split. Shared by
// the committed trajectory and the root `go test -bench` benchmarks.
func FedFixture() (*nn.Network, []*fed.Client, *dataset.Dataset) {
	rng := tensor.NewRNG(90)
	pool, test := dataset.Blobs(rng, 3600, 4, 3, 4).Split(0.9, rng)
	clients := make([]*fed.Client, fedClients)
	for i := range clients {
		lo := (2 * i) % (pool.Len() - 2)
		clients[i] = &fed.Client{
			ID:   fmt.Sprintf("bench-%05d", i),
			Data: pool.Subset([]int{lo, lo + 1}),
		}
	}
	global := nn.NewNetwork([]int{4}, nn.NewDense(4, 3, rng))
	return global, clients, test
}

// FedRound runs one benchmarked round and reports the cloud-tier uplink as
// a tracked metric. hier selects the two-tier masked topology; flat is the
// single-tier reference whose cloud uplink is the whole fleet's traffic.
func FedRound(b *testing.B, hier bool) {
	cfg := fed.Config{
		Rounds: 1, LocalEpochs: 1, LocalBatch: 4, LR: 0.1, Seed: 92,
		Engine: engine.Default(),
	}
	var cloudUplink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		global, clients, test := FedFixture()
		b.StartTimer()
		var s fed.RoundStats
		var err error
		if hier {
			hc, herr := fed.NewHierCoordinator(global, clients, test.X, test.Y, fed.HierConfig{
				Config: cfg, Aggregators: fedAggregators, SecureAgg: true,
			})
			if herr != nil {
				b.Fatal(herr)
			}
			s, err = hc.RunRound()
		} else {
			co, cerr := fed.NewCoordinator(global, clients, test.X, test.Y, cfg)
			if cerr != nil {
				b.Fatal(cerr)
			}
			s, err = co.RunRound()
		}
		if err != nil {
			b.Fatal(err)
		}
		cloudUplink += s.CloudUplinkBytes
	}
	b.ReportMetric(float64(cloudUplink)/float64(b.N), "cloud-uplink-B/op")
}

// Fed returns the fed-area suite: one flat reference round and one
// hierarchical masked round over the same 1600-client fleet. The tracked
// cloud-uplink-B/op metric is the tentpole's headline — the hierarchical
// round's cloud tier hears 100 compact partials instead of 1600 updates.
func Fed() []Case {
	return []Case{
		{Name: "FlatRound", Bench: func(b *testing.B) { FedRound(b, false) }},
		{Name: "HierRound100Aggregators", Bench: func(b *testing.B) { FedRound(b, true) }},
	}
}

// swarmCanary is the fixed canary head-count for the swarm suite: every
// fleet size seeds the same 16 devices from the registry, so the
// registry-egress-B/device metric falls as the fleet grows — the swarm's
// headline economics.
const swarmCanary = 16

// swarmWaves is the fixed-canary progression: 16 devices regardless of
// fleet size, then half the fleet, then everyone.
func swarmWaves(n int) []rollout.Wave {
	return []rollout.Wave{
		{Name: "canary", Fraction: float64(swarmCanary) / float64(n)},
		{Name: "cohort", Fraction: 0.5},
		{Name: "fleet", Fraction: 1.0},
	}
}

// swarmFleetSize is the actual device count for a requested n (the
// standard fleet rounds up to a multiple of its six profiles).
func swarmFleetSize(n int) int {
	return ((n + 5) / 6) * 6
}

// SwarmFixture builds the swarm-area fleet: n devices (rounded up to the
// six standard profiles) running a published v1 with a head-only
// fine-tuned v2 ready to roll out. Shared by the committed trajectory and
// the root `go test -bench` benchmarks.
func SwarmFixture(b *testing.B, n int) (*core.Platform, *registry.ModelVersion, *dataset.Dataset) {
	b.Helper()
	fleet, err := device.NewStandardFleet(device.FleetSpec{CountPerProfile: (n + 5) / 6, Seed: 70})
	if err != nil {
		b.Fatal(err)
	}
	devs := fleet.Devices()
	for _, d := range devs {
		d.SetBehavior(1, 1, 0)
	}
	fleet.Tick()
	p, err := core.New(fleet, core.Config{
		VendorKey: []byte("bench-swarm-key-0123456789abcdef"), Seed: 70, MinCohort: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := tensor.NewRNG(71)
	ds := dataset.Blobs(rng, 240, 4, 3, 5)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 8, rng), nn.NewReLU(), nn.NewDense(8, 3, rng))
	if _, err := nn.Train(net, ds.X, ds.Y, nn.TrainConfig{
		Epochs: 4, BatchSize: 32, Optimizer: nn.NewSGD(0.1), RNG: rng,
	}); err != nil {
		b.Fatal(err)
	}
	// Base-only publish: the suite measures distribution, not variant
	// derivation.
	if _, err := p.Publish("swarm-bench", net, ds, registry.OptimizationSpec{}); err != nil {
		b.Fatal(err)
	}
	ids := make([]string, len(devs))
	for i, d := range devs {
		ids[i] = d.ID
	}
	if _, err := p.DeployMany(ids, "swarm-bench", core.DeployConfig{
		PrepaidQueries: 1 << 20, Calibration: ds,
	}); err != nil {
		b.Fatal(err)
	}
	v2net := net.Clone()
	head := v2net.Layers()[2].(*nn.Dense)
	for i := range head.W.Value.Data {
		head.W.Value.Data[i] += 0.01 * float32(i%5+1)
	}
	v2s, err := p.Publish("swarm-bench", v2net, ds, registry.OptimizationSpec{})
	if err != nil {
		b.Fatal(err)
	}
	return p, v2s[0], ds
}

// SwarmRollout runs one benchmarked fleet-wide OTA rollout and reports the
// registry's egress per device as a tracked metric. viaSwarm switches the
// transport: registry-direct ships every byte from the vendor; swarm mode
// seeds the fixed 16-device canary from the registry and lets later waves
// fetch hash-verified chunks from already-updated peers, so the metric
// falls as n grows instead of staying flat.
func SwarmRollout(b *testing.B, n int, viaSwarm bool) {
	fleetSize := swarmFleetSize(n)
	var registryEgress, peerBytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p, v2, ds := SwarmFixture(b, n)
		cfg := core.RolloutConfig{
			Waves: swarmWaves(fleetSize), Seed: 72, Calibration: ds,
			Gate: rollout.Gate{
				MaxDriftFraction: 1, MaxErrorRate: 0.99,
				MaxLatencyIncrease: 99, MaxUpdateFailures: fleetSize,
			},
		}
		if viaSwarm {
			sw, err := p.NewSwarm(core.SwarmOptions{ChunkBytes: 256, Seed: 73})
			if err != nil {
				b.Fatal(err)
			}
			cfg.Swarm = sw
		}
		b.StartTimer()
		res, err := p.Rollout(v2, cfg)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal("rollout did not complete")
		}
		if viaSwarm {
			registryEgress += res.TotalRegistryBytes
			peerBytes += res.TotalPeerBytes
		} else {
			registryEgress += res.TotalShipBytes
		}
		b.StartTimer()
	}
	perDevice := func(total int64) float64 {
		return float64(total) / float64(b.N) / float64(fleetSize)
	}
	b.ReportMetric(perDevice(registryEgress), "registry-egress-B/device")
	if viaSwarm {
		b.ReportMetric(perDevice(peerBytes), "peer-B/device")
	}
}

// Swarm returns the swarm-area suite: a registry-direct 1k rollout as the
// reference, and swarm rollouts at 1k and 10k devices. The tracked
// registry-egress-B/device metric is the tentpole's headline — with a
// fixed 16-device canary, the vendor's per-device cost drops roughly 10×
// as the fleet grows 1k → 10k, while registry-direct pays full freight on
// every device.
func Swarm() []Case {
	return []Case{
		{Name: "RolloutRegistryDirect1k", Bench: func(b *testing.B) { SwarmRollout(b, 1000, false) }},
		{Name: "RolloutSwarm1k", Bench: func(b *testing.B) { SwarmRollout(b, 1000, true) }},
		{Name: "RolloutSwarm10k", Bench: func(b *testing.B) { SwarmRollout(b, 10_000, true) }},
	}
}

// Protect returns the protected-execution suite: the enclave-hosted split
// suffix against the plain split it shadows (the price of trusted
// offload), and the compiled procvm module against the native forward it
// lowered from (the interpretation tax of portability). The root
// bench_test.go benchmarks in offload and compat mirror these fixtures.
func Protect() []Case {
	return []Case{
		{Name: "OffloadEnclaveSuffix", Bench: func(b *testing.B) {
			model := offloadModel(tensor.NewRNG(2))
			enc, err := enclave.New("bench-enclave", []byte("bench-manufacturer-root-key-00001"), 1.2)
			if err != nil {
				b.Fatal(err)
			}
			esess := enclave.NewSession(enc)
			blob, err := model.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			sealed, err := enc.Seal(blob)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := esess.LoadSealedNetwork("bench-art", sealed); err != nil {
				b.Fatal(err)
			}
			cloud := offload.NewCloud(offload.CloudConfig{})
			inside, err := esess.Network("bench-art")
			if err != nil {
				b.Fatal(err)
			}
			registerFloat(b, cloud, inside, esess.Enclave().Slowdown)
			cloud.Start()
			defer cloud.Close()
			s := offloadSession(b, 2, cloud, model, "enclave")
			x := offloadInput()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(x); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "ProcVMForward", Bench: func(b *testing.B) {
			net := offloadModel(tensor.NewRNG(2))
			m, err := compat.CompileProcVM(net, compat.CompileOptions{Name: "bench"})
			if err != nil {
				b.Fatal(err)
			}
			rt := procvm.NewRuntime(m.Caps)
			rt.MaxGas = m.GasLimit
			x := tensor.Randn(tensor.NewRNG(4), 1, 1, 32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.Run(m, x.Data); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "ProcVMNativeForward", Bench: func(b *testing.B) {
			net := offloadModel(tensor.NewRNG(2))
			x := tensor.Randn(tensor.NewRNG(4), 1, 1, 32)
			// One scratch outside the loop, as every serving path holds
			// one: a nil scratch compiles a fresh program per call, and the
			// entry would time the allocator, not the kernel procvm's
			// interpretation tax is measured against.
			scratch := nn.NewScratch()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.ForwardBatch(x, scratch)
			}
		}},
	}
}

// Areas maps area names to their suites — the registry `tinymlops bench`
// iterates.
func Areas() map[string][]Case {
	return map[string][]Case{
		"serving": Serving(),
		"offload": Offload(),
		"fed":     Fed(),
		"swarm":   Swarm(),
		"protect": Protect(),
	}
}
