// Benchmarks: one per experiment (E1–E11, DESIGN.md §3), measuring the
// kernel each experiment's table is built on. Run with:
//
//	go test -bench=. -benchmem
package tinymlops_test

import (
	"fmt"
	"io"
	"testing"

	"tinymlops/internal/benchsuite"
	"tinymlops/internal/compat"
	"tinymlops/internal/core"
	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/engine"
	"tinymlops/internal/experiments"
	"tinymlops/internal/fed"
	"tinymlops/internal/ipprot"
	"tinymlops/internal/market"
	"tinymlops/internal/metering"
	"tinymlops/internal/nn"
	"tinymlops/internal/observe"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/selector"
	"tinymlops/internal/tensor"
	"tinymlops/internal/verify"
)

// --- E1: platform end-to-end query path -------------------------------

func BenchmarkE1PlatformInfer(b *testing.B) {
	rng := tensor.NewRNG(1)
	ds := dataset.Blobs(rng, 600, 4, 3, 5)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 16, rng), nn.NewReLU(), nn.NewDense(16, 3, rng))
	if _, err := nn.Train(net, ds.X, ds.Y, nn.TrainConfig{
		Epochs: 5, BatchSize: 32, Optimizer: nn.NewSGD(0.1), RNG: rng,
	}); err != nil {
		b.Fatal(err)
	}
	fleet, _ := device.NewStandardFleet(device.FleetSpec{CountPerProfile: 1, Seed: 1})
	for _, d := range fleet.Devices() {
		d.SetBehavior(1, 1, 0)
	}
	fleet.Tick()
	p, err := core.New(fleet, core.Config{VendorKey: []byte("bench-vendor-key-0123456789abcd0"), Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Publish("bench", net, ds, core.DefaultOptimizationSpec(ds)); err != nil {
		b.Fatal(err)
	}
	dep, err := p.Deploy("edge-gateway-00", "bench", core.DeployConfig{
		PrepaidQueries: uint64(1<<62) - 1, Calibration: ds,
	})
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float32, 4)
	for f := range x {
		x[f] = ds.X.At2(0, f)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dep.Infer(x); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2: variant selection ---------------------------------------------

func BenchmarkE2VariantSelection(b *testing.B) {
	rng := tensor.NewRNG(2)
	reg := registry.New()
	net := nn.NewNetwork([]int{64}, nn.NewDense(64, 128, rng), nn.NewReLU(), nn.NewDense(128, 4, rng))
	vs, err := reg.RegisterWithVariants("bench", net, 0.95, registry.OptimizationSpec{
		Schemes:  []quant.Scheme{quant.Int8, quant.Int4, quant.Ternary, quant.Binary},
		Evaluate: func(*nn.Network) float64 { return 0.9 },
	})
	if err != nil {
		b.Fatal(err)
	}
	caps, _ := device.ProfileByName("m4-wearable")
	d := device.NewDevice("bench", caps, tensor.NewRNG(3))
	d.SetBehavior(1, 1, 0)
	d.Tick()
	policy := selector.DefaultPolicy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := selector.Select(d, vs, policy); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: drift detectors -------------------------------------------------

func driftRef(rng *tensor.RNG) []float64 {
	ref := make([]float64, 1000)
	for i := range ref {
		ref[i] = rng.NormFloat64()
	}
	return ref
}

func BenchmarkE4DriftKS(b *testing.B) {
	rng := tensor.NewRNG(7)
	det, err := observe.NewKSDetector(driftRef(rng), 100, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Observe(rng.NormFloat64())
	}
}

func BenchmarkE4DriftPSI(b *testing.B) {
	rng := tensor.NewRNG(8)
	det, err := observe.NewPSIDetector(driftRef(rng), 10, 200, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Observe(rng.NormFloat64())
	}
}

func BenchmarkE4DriftCUSUM(b *testing.B) {
	rng := tensor.NewRNG(9)
	det, err := observe.NewCUSUMDetector(0, 1, 0.5, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Observe(rng.NormFloat64())
	}
}

// --- E5: metering --------------------------------------------------------

func BenchmarkE5MeterCharge(b *testing.B) {
	issuer, _ := metering.NewIssuer([]byte("bench-key-0123456789abcdef012345"))
	v, _ := issuer.Issue("dev", "model", uint64(1<<62))
	m := metering.NewMeter(v)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Charge(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: federated round ---------------------------------------------------

func BenchmarkE6FederatedRound(b *testing.B) {
	rng := tensor.NewRNG(10)
	ds := dataset.Blobs(rng, 800, 4, 3, 4)
	shards := dataset.PartitionDirichlet(rng, ds, 4, 1)
	global := nn.NewNetwork([]int{4}, nn.NewDense(4, 16, rng), nn.NewReLU(), nn.NewDense(16, 3, rng))
	co, err := fed.NewCoordinator(global, fed.MakeClients(ds, shards, "c"), nil, nil, fed.Config{
		Rounds: 1, LocalEpochs: 1, LocalBatch: 32, LR: 0.1, Seed: 11, Codec: fed.TernaryCodec{},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := co.RunRound(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: compatibility + split search --------------------------------------

func BenchmarkE7SplitSearch(b *testing.B) {
	rng := tensor.NewRNG(12)
	net := nn.NewNetwork([]int{64},
		nn.NewDense(64, 256, rng), nn.NewReLU(),
		nn.NewDense(256, 256, rng), nn.NewReLU(),
		nn.NewDense(256, 8, rng))
	costs, err := net.Summary()
	if err != nil {
		b.Fatal(err)
	}
	dev, _ := device.ProfileByName("m0-sensor")
	cloud, _ := device.ProfileByName("edge-gateway")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := market.BestSplit(costs, dev, cloud, 32, 125e3, 5e6, 256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7LoweringFoldBN(b *testing.B) {
	rng := tensor.NewRNG(13)
	build := nn.NewNetwork([]int{32},
		nn.NewDense(32, 64, rng), nn.NewBatchNorm1D(64), nn.NewReLU(), nn.NewDense(64, 4, rng))
	data, err := build.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := nn.UnmarshalNetwork(data)
		if err != nil {
			b.Fatal(err)
		}
		caps, _ := device.ProfileByName("npu-board")
		if _, err := compat.Lower(net, caps); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: watermark embedding -------------------------------------------------

func BenchmarkE8WatermarkEmbed(b *testing.B) {
	rng := tensor.NewRNG(14)
	base := nn.NewNetwork([]int{16}, nn.NewDense(16, 64, rng), nn.NewReLU(), nn.NewDense(64, 4, rng))
	data, _ := base.MarshalBinary()
	bits := ipprot.KeyedBits("bench-owner", 64)
	cfg := ipprot.DefaultStaticWMConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := nn.UnmarshalNetwork(data)
		if err != nil {
			b.Fatal(err)
		}
		if err := ipprot.EmbedStatic(net, "bench-owner", bits, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: prediction poisoning -------------------------------------------------

func BenchmarkE9DefenseDeceptive(b *testing.B) {
	rng := tensor.NewRNG(15)
	probs := nn.SoftmaxRows(tensor.Randn(rng, 1, 256, 10))
	d := ipprot.DeceptiveDefense{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Apply(probs)
	}
}

func BenchmarkE9QueryDetector(b *testing.B) {
	rng := tensor.NewRNG(16)
	det := ipprot.DefaultQueryDetector()
	rows := make([][]float32, 512)
	for i := range rows {
		row := make([]float32, 8)
		for f := range row {
			row[f] = rng.NormFloat32()
		}
		rows[i] = row
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Observe(rows[i%len(rows)])
	}
}

// --- E10: verifiable execution -------------------------------------------------

func e10Operands(rng *tensor.RNG, m, k, n int) ([]int32, []int32) {
	a := make([]int32, m*k)
	bb := make([]int32, k*n)
	for i := range a {
		a[i] = int32(rng.Intn(255) - 127)
	}
	for i := range bb {
		bb[i] = int32(rng.Intn(255) - 127)
	}
	return a, bb
}

func BenchmarkE10Prove(b *testing.B) {
	a, bb := e10Operands(tensor.NewRNG(17), 64, 64, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := verify.ProveMatMul(a, 64, 64, bb, 32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10Verify(b *testing.B) {
	a, bb := e10Operands(tensor.NewRNG(18), 64, 64, 32)
	c, proof, _, err := verify.ProveMatMul(a, 64, 64, bb, 32)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, _, err := verify.VerifyMatMul(a, 64, 64, bb, 32, c, proof)
		if err != nil || !ok {
			b.Fatalf("verify failed: %v %v", ok, err)
		}
	}
}

func BenchmarkE10DirectReexecution(b *testing.B) {
	a, bb := e10Operands(tensor.NewRNG(19), 64, 64, 32)
	out := make([]int64, 64*32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := range out {
			out[p] = 0
		}
		for r := 0; r < 64; r++ {
			for p := 0; p < 64; p++ {
				av := int64(a[r*64+p])
				for j := 0; j < 32; j++ {
					out[r*32+j] += av * int64(bb[p*32+j])
				}
			}
		}
	}
}

// --- verified settlement: prove, verify, batch-amortized verify --------------

// settleK/settleN mirror a deployment's proved layer at settlement
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

func BenchmarkProveMatMul(b *testing.B) {
	a, wq := settleOperands(tensor.NewRNG(50))
	var proofBytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, proof, _, err := verify.ProveMatMul(a, 1, settleK, wq, settleN)
		if err != nil {
			b.Fatal(err)
		}
		proofBytes = proof.SizeBytes()
	}
	b.ReportMetric(float64(proofBytes), "proof-bytes/op")
}

// BenchmarkProveMatMulPrepared is the settlement prover: the weight
// encoding is prepared once per model version, so a proof pays only for
// what depends on its own input row.
func BenchmarkProveMatMulPrepared(b *testing.B) {
	a, wq := settleOperands(tensor.NewRNG(50))
	pw, err := verify.PrepareWeights(wq, settleK, settleN)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := verify.ProveMatMulPrepared(nil, a, 1, pw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyMatMul is the naive per-proof path: every verification
// re-digests the full weight matrix into its transcript.
func BenchmarkVerifyMatMul(b *testing.B) {
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
	b.ReportMetric(float64(proof.SizeBytes()), "proof-bytes/op")
}

// BenchmarkBatchVerifySettlement amortizes a 16-proof settlement window
// through the BatchVerifier: the weight encoding is prepared once per
// class, so per-proof cost drops below BenchmarkVerifyMatMul's —
// divide ns/op by proofs/op to compare.
func BenchmarkBatchVerifySettlement(b *testing.B) {
	const window = 16
	rng := tensor.NewRNG(52)
	_, wq := settleOperands(rng)
	bv := verify.NewBatchVerifier(engine.Default())
	if err := bv.Prepare("bench-class", wq, settleK, settleN); err != nil {
		b.Fatal(err)
	}
	items := make([]verify.BatchItem, window)
	proofBytes := 0
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
		proofBytes += proof.SizeBytes()
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
	b.ReportMetric(window, "proofs/op")
	b.ReportMetric(float64(proofBytes)/window, "proof-bytes/proof")
}

// --- E11: encryption -------------------------------------------------------------

func BenchmarkE11EncryptModel(b *testing.B) {
	rng := tensor.NewRNG(20)
	net := nn.NewNetwork([]int{64}, nn.NewDense(64, 256, rng), nn.NewReLU(), nn.NewDense(256, 10, rng))
	artifact, err := net.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	key := []byte("bench-vendor-key-0123456789abcd0")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ipprot.EncryptModel(key, "bench", artifact); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11DecryptModel(b *testing.B) {
	rng := tensor.NewRNG(21)
	net := nn.NewNetwork([]int{64}, nn.NewDense(64, 256, rng), nn.NewReLU(), nn.NewDense(256, 10, rng))
	artifact, _ := net.MarshalBinary()
	key := []byte("bench-vendor-key-0123456789abcd0")
	em, err := ipprot.EncryptModel(key, "bench", artifact)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ipprot.DecryptModel(key, em); err != nil {
			b.Fatal(err)
		}
	}
}

// --- engine: parallel fleet execution + batched forward ----------------------

// deviceState is the per-device reusable buffers of the fleet-round
// benchmarks: a steady-state fleet allocates per round only what the
// harness itself needs.
type deviceState struct {
	in      *tensor.Tensor
	scratch *nn.Scratch
}

// fleetRoundWork is the per-device work both fleet-round benchmarks run: a
// batch-16 inference burst on a shared model plus cost-model accounting.
// The serial and parallel benchmarks execute exactly this, so their ratio
// is the engine's scheduling speedup (≈1 on one core; the gain appears at
// GOMAXPROCS ≥ 2 because per-device work is independent by construction).
func fleetRoundWork(net *nn.Network, d *device.Device, rng *tensor.RNG, st *deviceState) uint64 {
	for i := range st.in.Data {
		st.in.Data[i] = -1 + 2*rng.Float32()
	}
	out := net.ForwardBatch(st.in, st.scratch)
	if _, err := d.RunInference(27000, 32); err != nil {
		return 0
	}
	return uint64(out.ArgMaxRows()[0])
}

func fleetBenchSetup(b *testing.B) (*nn.Network, *device.Fleet, map[string]*deviceState) {
	rng := tensor.NewRNG(30)
	net := nn.NewNetwork([]int{16},
		nn.NewDense(16, 64, rng), nn.NewReLU(), nn.NewDense(64, 10, rng))
	fleet, err := device.NewStandardFleet(device.FleetSpec{CountPerProfile: 167, Seed: 1}) // 1002 devices
	if err != nil {
		b.Fatal(err)
	}
	states := make(map[string]*deviceState, fleet.Size())
	for _, d := range fleet.Devices() {
		states[d.ID] = &deviceState{in: tensor.New(16, 16), scratch: nn.NewScratch()}
	}
	return net, fleet, states
}

func BenchmarkFleetRoundSerial(b *testing.B) {
	net, fleet, states := fleetBenchSetup(b)
	devs := fleet.Devices()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i, d := range devs {
			fleetRoundWork(net, d, engine.RNGFor(1, uint64(it+1), i), states[d.ID])
		}
	}
}

func BenchmarkFleetRoundParallel(b *testing.B) {
	net, fleet, states := fleetBenchSetup(b)
	runner := engine.NewFleetRunner(engine.Default(), fleet, 1)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		engine.RunRound(runner, func(d *device.Device, rng *tensor.RNG) (uint64, error) {
			return fleetRoundWork(net, d, rng, states[d.ID]), nil
		})
	}
}

func batchBenchNet() (*nn.Network, *tensor.Tensor) {
	rng := tensor.NewRNG(31)
	net := nn.NewNetwork([]int{64},
		nn.NewDense(64, 128, rng), nn.NewReLU(), nn.NewDense(128, 10, rng))
	return net, tensor.Randn(rng, 1, 16, 64)
}

// BenchmarkForwardSingle16 is the per-sample baseline: 16 examples, 16
// Forward calls per iteration.
func BenchmarkForwardSingle16(b *testing.B) {
	net, in := batchBenchNet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < 16; r++ {
			net.Forward(in.RowSlice(r, r+1), false)
		}
	}
}

// BenchmarkForwardBatch16 runs the same 16 examples as one ForwardBatch
// call with reused scratch buffers (bit-identical outputs, see
// internal/nn batch tests).
func BenchmarkForwardBatch16(b *testing.B) {
	net, in := batchBenchNet()
	scratch := nn.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(in, scratch)
	}
}

// --- integer serving: batched QModel vs batched float -----------------------

// precisionBenchFixture builds the shared topology and batch of the
// integer-vs-float serving benchmarks: identical model, identical input,
// so the ratio isolates the kernels.
func precisionBenchFixture() (*nn.Network, *tensor.Tensor) {
	rng := tensor.NewRNG(32)
	net := nn.NewNetwork([]int{64},
		nn.NewDense(64, 128, rng), nn.NewReLU(), nn.NewDense(128, 10, rng))
	return net, tensor.Randn(rng, 1, 16, 64)
}

// BenchmarkInferBatchFloat32 is the float serving baseline: one batch-16
// ForwardBatch per iteration with reused scratch.
func BenchmarkInferBatchFloat32(b *testing.B) {
	net, in := precisionBenchFixture()
	scratch := nn.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardBatch(in, scratch)
	}
}

// BenchmarkInferBatchInt8 runs the same topology and batch through the
// integer runtime (dynamic per-example activation quantization + blocked
// int8 matmul) with reused QScratch — the hot path an NPU-class
// deployment serves.
func BenchmarkInferBatchInt8(b *testing.B) {
	net, in := precisionBenchFixture()
	qm, err := quant.NewQModel(net, quant.Int8)
	if err != nil {
		b.Fatal(err)
	}
	scratch := quant.NewQScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qm.ForwardBatch(in, scratch)
	}
}

// BenchmarkInferBatchInt4 is the same topology and batch through the
// packed-int4 runtime: weights stored two codes per byte, nibbles decoded
// inside the blocked matmul. The point of comparison is
// BenchmarkInferBatchFloat32 — native int4 must beat the fake-quantized
// float path it replaces on 4-bit-capable hardware.
func BenchmarkInferBatchInt4(b *testing.B) {
	net, in := precisionBenchFixture()
	qm, err := quant.NewQModel(net, quant.Int4)
	if err != nil {
		b.Fatal(err)
	}
	scratch := quant.NewQScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qm.ForwardBatch(in, scratch)
	}
}

// --- staged OTA rollout: delta vs full transfer ------------------------------

// rolloutBenchSetup builds a platform over 8 wall-powered gateways, all
// running v1 of a model line whose v2 differs only in the head layer —
// the sparse-update case staged rollouts are optimized for.
func rolloutBenchSetup(b *testing.B) (*core.Platform, *registry.ModelVersion) {
	rng := tensor.NewRNG(40)
	ds := dataset.Blobs(rng, 400, 4, 3, 5)
	spec := registry.OptimizationSpec{Evaluate: func(n *nn.Network) float64 {
		return nn.Evaluate(n, ds.X, ds.Y)
	}}
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 16, rng), nn.NewReLU(), nn.NewDense(16, 3, rng))
	fleet := device.NewFleet()
	caps, _ := device.ProfileByName("edge-gateway")
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = fmt.Sprintf("gw-%02d", i)
		if err := fleet.Add(device.NewDevice(ids[i], caps, tensor.NewRNG(uint64(i)))); err != nil {
			b.Fatal(err)
		}
	}
	p, err := core.New(fleet, core.Config{VendorKey: []byte("bench-vendor-key-0123456789abcd0"), Seed: 40})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Publish("ota", net, ds, spec); err != nil {
		b.Fatal(err)
	}
	if _, err := p.DeployMany(ids, "ota", core.DeployConfig{PrepaidQueries: 10}); err != nil {
		b.Fatal(err)
	}
	v2 := net.Clone()
	head := v2.Layers()[2].(*nn.Dense)
	for i := range head.W.Value.Data {
		head.W.Value.Data[i] += 0.01
	}
	v2s, err := p.Publish("ota", v2, ds, spec)
	if err != nil {
		b.Fatal(err)
	}
	return p, v2s[0]
}

// benchRolloutTransfer measures one full-fleet staged rollout per
// iteration (waves, gates, transfer, hot-swap), rolling every device back
// between iterations so each rollout ships the same update. The reported
// bytes/op metric is what moved over the simulated radios.
func benchRolloutTransfer(b *testing.B, forceFull bool) {
	p, v2 := rolloutBenchSetup(b)
	var shipped int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := p.Rollout(v2, core.RolloutConfig{Seed: 1, ForceFull: forceFull})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatalf("rollout gate failed: %+v", res.Waves)
		}
		shipped += res.TotalShipBytes
		b.StopTimer()
		for _, dep := range p.Deployments() {
			if _, err := dep.Rollback(); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(shipped)/float64(b.N), "ship-bytes/op")
}

func BenchmarkRolloutFullTransfer(b *testing.B) { benchRolloutTransfer(b, true) }

func BenchmarkRolloutDeltaTransfer(b *testing.B) { benchRolloutTransfer(b, false) }

// --- full experiment harness (guarded: heavyweight) -------------------------

// BenchmarkExperimentsE2Table regenerates a full experiment table per
// iteration, demonstrating the harness is benchmarkable end to end.
func BenchmarkExperimentsE2Table(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunE2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Federated plane: flat vs hierarchical cloud fan-in ----------------

// BenchmarkFlatRound and BenchmarkHierRound100Aggregators mirror the
// committed BENCH_fed.json trajectory (internal/benchsuite.Fed): one
// round over the same 1600-client fleet, flat versus two-tier masked.
// The tracked cloud-uplink-B/op metric is the tentpole's headline — the
// hierarchical cloud tier hears 100 compact partials, not 1600 updates.
func BenchmarkFlatRound(b *testing.B) { benchsuite.FedRound(b, false) }

func BenchmarkHierRound100Aggregators(b *testing.B) { benchsuite.FedRound(b, true) }

// --- Swarm OTA distribution: registry-direct vs peer-to-peer -----------

// BenchmarkRolloutRegistryDirect and BenchmarkRolloutSwarm mirror the
// committed BENCH_swarm.json trajectory (internal/benchsuite.Swarm): one
// fleet-wide OTA rollout over a 1k-device standard fleet with a fixed
// 16-device canary, registry-direct versus peer-to-peer chunk swarm. The
// tracked registry-egress-B/device metric is the tentpole's headline —
// in swarm mode the registry funds only the canary (plus last-resort
// chunks), so its per-device cost collapses as the fleet grows.
func BenchmarkRolloutRegistryDirect(b *testing.B) { benchsuite.SwarmRollout(b, 1000, false) }

func BenchmarkRolloutSwarm(b *testing.B) { benchsuite.SwarmRollout(b, 1000, true) }
