package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"

	"tinymlops/internal/dataset"
	"tinymlops/internal/engine"
	"tinymlops/internal/fed"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// fedModel is the federated model: small, so a round is dominated by the
// per-client machinery around the training kernels, as on a real fleet.
var fedModel = modelSpec{name: "fed-mlp", widths: []int{16, 32, 4}}

const (
	fedExamples    = 16 // per client
	fedTestRows    = 400
	fedAccuracyMin = 0.8
)

// fedRound is one HierCoordinator.RunRound per op: local training on every
// client, update codec, fixed-point masking, two-tier aggregation. The only
// workload where the training kernels matter. Each harness client owns one
// coordinator over its own fleet of federated clients.
type fedRound struct {
	sz    sizing
	in    *inputs
	fleet []*fedFleet

	// Count-pass accounting.
	last         []fed.RoundStats
	cloudUp      int64
	edgeUp       int64
	participants int
}

// fedFleet is one coordinator with the flat twin the count pass checks it
// against: same initial global, same shards, same seed.
type fedFleet struct {
	hier    *fed.HierCoordinator
	flat    *fed.Coordinator
	clients []*fed.Client
	cfg     fed.Config
}

func newFedRound(in *inputs, sz sizing) *fedRound { return &fedRound{sz: sz, in: in} }

func (f *fedRound) setup() error {
	n := f.sz.fedClients
	var eng *engine.Engine
	if f.sz.workers > 0 {
		eng = engine.New(engine.Config{Workers: f.sz.workers})
	}
	for c := 0; c < f.sz.clients; c++ {
		ds := dataset.Blobs(f.in.rng, fedExamples*n+fedTestRows, fedModel.features(), 4, 4)
		f.in.noteFloats(ds.X.Data)
		f.in.noteInts(ds.Y)
		train, test := ds.Split(float64(fedExamples*n)/float64(ds.Len()), f.in.rng)
		shards := dataset.PartitionIID(f.in.rng, train, n)
		for _, s := range shards {
			f.in.noteInts(s)
		}
		global := fedModel.build(f.in.rng)
		cfg := fed.Config{LocalEpochs: 1, LocalBatch: 8, LR: 0.1, Seed: f.in.seed + uint64(c), Engine: eng}
		fl := &fedFleet{clients: fed.MakeClients(train, shards, "client"), cfg: cfg}
		var err error
		fl.hier, err = fed.NewHierCoordinator(global.Clone(), fl.clients, test.X, test.Y,
			fed.HierConfig{Config: cfg, Aggregators: f.sz.fedAggs, SecureAgg: true})
		if err != nil {
			return err
		}
		fl.flat, err = fed.NewCoordinator(global.Clone(), fed.MakeClients(train, shards, "client"), test.X, test.Y, cfg)
		if err != nil {
			return err
		}
		f.fleet = append(f.fleet, fl)
	}
	f.last = make([]fed.RoundStats, f.sz.clients)
	return nil
}

func (f *fedRound) close()            {}
func (f *fedRound) group() int        { return 1 }
func (f *fedRound) kind(i int) string { return "" }

func paramsDigest(net *nn.Network) [32]byte {
	h := sha256.New()
	var b [4]byte
	for _, v := range net.FlatParams() {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func (f *fedRound) round(c int) (fed.RoundStats, error) {
	st, err := f.fleet[c].hier.RunRound()
	if err == nil && st.Participants != len(f.fleet[c].clients) {
		err = fmt.Errorf("round %d: %d participants of %d", st.Round, st.Participants, len(f.fleet[c].clients))
	}
	return st, err
}

func (f *fedRound) step(c, i int) stepResult {
	st, err := f.round(c)
	return stepResult{units: st.Participants, err: err}
}

func (f *fedRound) count(c int, t *tally) {
	fl := f.fleet[c]
	for r := 0; r < f.sz.fedRounds; r++ {
		t.ops++
		t.units += float64(len(fl.clients))
		st, err := f.round(c)
		if err != nil {
			t.fail(err)
			continue
		}
		// The vendor's link is the cloud tier's: one partial up and one
		// broadcast down per aggregator. Client ↔ aggregator traffic stays
		// at the edge.
		t.vendorBytes += float64(st.CloudUplinkBytes + st.CloudDownlinkBytes)
		f.cloudUp += st.CloudUplinkBytes
		f.edgeUp += st.EdgeUplinkBytes
		f.participants += st.Participants
		f.last[c] = st
	}
	// Masked two-tier aggregation must equal flat unmasked FedAvg over the
	// same clients and seed, bit for bit.
	for r := 0; r < f.sz.fedRounds; r++ {
		if _, err := fl.flat.RunRound(); err != nil {
			t.fail(err)
			return
		}
	}
	if paramsDigest(fl.hier.Global) != paramsDigest(fl.flat.Global) {
		t.fail(fmt.Errorf("hierarchical global differs from the flat global after %d rounds", f.sz.fedRounds))
	}
	if acc := f.last[c].TestAccuracy; acc < fedAccuracyMin {
		t.fail(fmt.Errorf("test accuracy %.3f below %.2f", acc, fedAccuracyMin))
	}
}

func (f *fedRound) layers(lr *layerRun) {
	fl := f.fleet[0]
	n := float64(len(fl.clients))
	global := fl.hier.Global
	flat := global.FlatParams()

	client := fl.clients[0]
	var local *nn.Network
	trainUS := lr.probe("nn.train_client", 1, func() {
		local = global.Clone()
		_, err := nn.Train(local, client.Data.X, client.Data.Y, nn.TrainConfig{
			Epochs: fl.cfg.LocalEpochs, BatchSize: fl.cfg.LocalBatch,
			Optimizer: nn.NewSGD(fl.cfg.LR), RNG: tensor.NewRNG(f.in.seed),
		})
		must(err)
	})
	lr.set("nn.train_client_us", trainUS)

	update := local.FlatParams()
	for i := range update {
		update[i] -= flat[i]
	}
	codecUS := lr.probe("fed.codec", 8, func() {
		payload, err := fed.NoneCodec{}.Encode(update)
		must(err)
		_, err = fed.NoneCodec{}.Decode(payload, len(update))
		must(err)
	})
	lr.set("fed.codec_us", codecUS)

	cohort := len(fl.clients) / f.sz.fedAggs
	if cohort < 2 {
		cohort = 2
	}
	seeds := fed.NewPairwiseSeeds(tensor.NewRNG(f.in.seed), cohort)
	contrib := make([]int64, len(update))
	for i, v := range update {
		contrib[i] = int64(v * (1 << 24))
	}
	maskUS := lr.probe("fed.mask", 4, func() {
		_, err := fed.MaskFixed(contrib, 0, seeds)
		must(err)
	})
	lr.set("fed.mask_us", maskUS)

	var flatMS []float64
	for r := 0; r < 5; r++ {
		id := lr.beginOp("fed.flat_round")
		_, err := fl.flat.RunRound()
		lr.end(id)
		must(err)
		flatMS = append(flatMS, lr.spans[id].us()/1e3)
	}
	lr.set("fed.flat_round_ms", median(flatMS))
	opUS := lr.op[""]
	lr.set("fed.hier_over_flat", ratio(opUS/1e3, median(flatMS)))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := f.round(0)
	runtime.ReadMemStats(&after)
	must(err)
	lr.set("fed.allocs_per_client", float64(after.Mallocs-before.Mallocs)/n)

	lr.set("fed.cloud_uplink_bytes_per_client", ratio(float64(f.cloudUp), float64(f.participants)))
	lr.set("fed.edge_uplink_bytes_per_client", ratio(float64(f.edgeUp), float64(f.participants)))
	lr.set("fed.test_accuracy", f.last[0].TestAccuracy)

	// Federated clients train in parallel on the engine's workers, so a
	// round's share of a layer is the layer's per-client time × clients ÷
	// the processors the round had: its workers, or its part of the machine
	// when the harness's clients run their rounds side by side.
	par := float64(runtime.GOMAXPROCS(0)) / float64(f.sz.clients)
	if f.sz.workers > 0 {
		par = min(par, float64(f.sz.workers))
	}
	par = max(par, 1)
	if opUS > 0 {
		lr.set("harness.kernel_share", trainUS*n/par/opUS)
		lr.set("core.self_us", clampSelf(opUS-(trainUS+codecUS+maskUS)*n/par))
	}
}
