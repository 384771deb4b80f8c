package tinymlops_test

import (
	"errors"
	"net"
	"testing"

	"tinymlops"
)

// TestPublicAPIEndToEnd exercises the full Fig. 1 flow strictly through
// the public package: train → publish → deploy → metered inference →
// telemetry → settlement → protection → verifiable execution.
func TestPublicAPIEndToEnd(t *testing.T) {
	rng := tinymlops.NewRNG(1)
	ds := tinymlops.Blobs(rng, 900, 4, 3, 5)
	train, test := ds.Split(0.8, rng)
	model := tinymlops.NewNetwork([]int{4},
		tinymlops.Dense(4, 16, rng), tinymlops.ReLU(), tinymlops.Dense(16, 3, rng))
	if _, err := tinymlops.Train(model, train.X, train.Y, tinymlops.TrainConfig{
		Epochs: 8, BatchSize: 32, Optimizer: tinymlops.SGD(0.1).WithMomentum(0.9), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	if acc := tinymlops.Evaluate(model, test.X, test.Y); acc < 0.9 {
		t.Fatalf("model accuracy %v", acc)
	}

	fleet, err := tinymlops.NewStandardFleet(tinymlops.FleetSpec{CountPerProfile: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fleet.Devices() {
		d.SetBehavior(1, 1, 0)
	}
	fleet.Tick()
	platform, err := tinymlops.NewPlatform(fleet, tinymlops.PlatformConfig{
		VendorKey: []byte("api-test-vendor-key-0123456789ab"), Seed: 3, MinCohort: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	versions, err := platform.Publish("api", model, test, tinymlops.DefaultOptimizationSpec(test))
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 5 {
		t.Fatalf("published %d versions", len(versions))
	}
	dep, err := platform.Deploy("phone-00", "api", tinymlops.DeployConfig{
		PrepaidQueries: 5, Calibration: train,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 4)
	for i := 0; i < 5; i++ {
		for f := 0; f < 4; f++ {
			x[f] = test.X.At2(i, f)
		}
		if _, err := dep.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dep.Infer(x); !errors.Is(err, tinymlops.ErrQueryDenied) {
		t.Fatalf("quota not enforced: %v", err)
	}

	if _, _, err := platform.SyncTelemetry(); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := tinymlops.ServeSettlement(l, platform)
	defer srv.Close()
	for id, err := range platform.SettleAll(srv.Addr()) {
		if err != nil {
			t.Fatalf("settle %s: %v", id, err)
		}
	}
}

// TestPublicAPIQuantization checks the compression knobs the facade keeps:
// fake-quantized copies, the packed-size model, and the publish pipeline
// deriving a quantized variant per scheme.
func TestPublicAPIQuantization(t *testing.T) {
	rng := tinymlops.NewRNG(4)
	net := tinymlops.NewNetwork([]int{8},
		tinymlops.Dense(8, 16, rng), tinymlops.ReLU(), tinymlops.Dense(16, 2, rng))
	fq, err := tinymlops.FakeQuantize(net, tinymlops.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if fq.ParamCount() != net.ParamCount() {
		t.Fatal("fake quantization changed parameter count")
	}
	if f32, i8, i4 := tinymlops.QuantizedSize(net, tinymlops.Float32), tinymlops.QuantizedSize(net, tinymlops.Int8),
		tinymlops.QuantizedSize(net, tinymlops.Int4); !(f32 > i8 && i8 > i4) {
		t.Fatalf("packed sizes not monotone in bit width: %d, %d, %d", f32, i8, i4)
	}

	fleet, err := tinymlops.NewStandardFleet(tinymlops.FleetSpec{CountPerProfile: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	platform, err := tinymlops.NewPlatform(fleet, tinymlops.PlatformConfig{
		VendorKey: []byte("api-test-vendor-key-0123456789ab"), Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := tinymlops.Blobs(rng, 200, 8, 2, 4)
	versions, err := platform.Publish("compress", net, ds, tinymlops.OptimizationSpec{
		Schemes: []tinymlops.Scheme{tinymlops.Int8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 2 || versions[0].Scheme != tinymlops.Float32 || versions[1].Scheme != tinymlops.Int8 {
		t.Fatalf("published %d versions, want the float base and one int8 variant", len(versions))
	}
}

func TestPublicAPIProtectionSurface(t *testing.T) {
	rng := tinymlops.NewRNG(5)
	ds := tinymlops.Blobs(rng, 600, 6, 3, 4)
	net := tinymlops.NewNetwork([]int{6},
		tinymlops.Dense(6, 24, rng), tinymlops.ReLU(), tinymlops.Dense(24, 3, rng))
	if _, err := tinymlops.Train(net, ds.X, ds.Y, tinymlops.TrainConfig{
		Epochs: 6, BatchSize: 32, Optimizer: tinymlops.SGD(0.1), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	// Watermark.
	bits := tinymlops.WatermarkBits("owner", 24)
	if err := tinymlops.EmbedWatermark(net, "owner", bits, tinymlops.DefaultStaticWatermarkConfig()); err != nil {
		t.Fatal(err)
	}
	got, err := tinymlops.ExtractWatermark(net, "owner", 24, tinymlops.DefaultStaticWatermarkConfig())
	if err != nil || tinymlops.BitErrorRate(bits, got) != 0 {
		t.Fatalf("watermark: %v BER=%v", err, tinymlops.BitErrorRate(bits, got))
	}
	// Extraction + defense.
	bb := tinymlops.Defend(tinymlops.ModelBlackBox(net), tinymlops.Top1Defense{})
	student := tinymlops.NewNetwork([]int{6},
		tinymlops.Dense(6, 24, rng), tinymlops.ReLU(), tinymlops.Dense(24, 3, rng))
	if _, err := tinymlops.ExtractModel(bb, student, ds.X.RowSlice(0, 100), rng); err != nil {
		t.Fatal(err)
	}
	if a := tinymlops.Agreement(tinymlops.ModelBlackBox(net), tinymlops.ModelBlackBox(student), ds.X.RowSlice(100, 300)); a < 0.5 {
		t.Fatalf("clone agreement %v unexpectedly low", a)
	}
	// Verifiable inference.
	proof, err := tinymlops.ProveInference(net, ds.X.RowSlice(0, 8))
	if err != nil {
		t.Fatal(err)
	}
	ok, _, err := tinymlops.VerifyInference(net, ds.X.RowSlice(0, 8), proof)
	if err != nil || !ok {
		t.Fatalf("verifiable inference: ok=%v err=%v", ok, err)
	}
	// Scramble / unscramble.
	if err := tinymlops.ScrambleModel(net, "key"); err != nil {
		t.Fatal(err)
	}
	if err := tinymlops.UnscrambleModel(net, "key"); err != nil {
		t.Fatal(err)
	}
	got2, _ := tinymlops.ExtractWatermark(net, "owner", 24, tinymlops.DefaultStaticWatermarkConfig())
	if tinymlops.BitErrorRate(bits, got2) != 0 {
		t.Fatal("scramble round trip destroyed the watermark")
	}
}

func TestPublicAPIFederated(t *testing.T) {
	rng := tinymlops.NewRNG(6)
	ds := tinymlops.Blobs(rng, 800, 4, 3, 4)
	train, test := ds.Split(0.8, rng)
	shards := tinymlops.PartitionDirichlet(rng, train, 4, 1)
	clients := tinymlops.MakeFederatedClients(train, shards, "c")
	global := tinymlops.NewNetwork([]int{4},
		tinymlops.Dense(4, 16, rng), tinymlops.ReLU(), tinymlops.Dense(16, 3, rng))
	co, err := tinymlops.NewFederatedCoordinator(global, clients, test.X, test.Y,
		tinymlops.FederatedConfig{Rounds: 4, LocalEpochs: 2, LocalBatch: 16, LR: 0.1, Seed: 7,
			Codec: tinymlops.TernaryCodec{}})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := co.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats[len(stats)-1].TestAccuracy < 0.8 {
		t.Fatalf("federated accuracy %v", stats[len(stats)-1].TestAccuracy)
	}
}
