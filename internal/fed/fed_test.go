package fed

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// quantizeFixed maps a decoded update vector into the fixed-point ring: the
// weight-one form of weighFixed.
func quantizeFixed(update []float32) []int64 {
	q := make([]int64, len(update))
	weighFixed(q, update, 1)
	return q
}

func codecRoundTrip(t *testing.T, c Codec, update []float32) []float32 {
	t.Helper()
	payload, err := c.Encode(update)
	if err != nil {
		t.Fatalf("%s encode: %v", c.Name(), err)
	}
	out, err := c.Decode(payload, len(update))
	if err != nil {
		t.Fatalf("%s decode: %v", c.Name(), err)
	}
	return out
}

func TestNoneCodecLossless(t *testing.T) {
	rng := tensor.NewRNG(1)
	u := make([]float32, 257)
	for i := range u {
		u[i] = rng.NormFloat32()
	}
	got := codecRoundTrip(t, NoneCodec{}, u)
	for i := range u {
		if got[i] != u[i] {
			t.Fatalf("none codec lossy at %d", i)
		}
	}
}

func TestInt8CodecBoundedError(t *testing.T) {
	rng := tensor.NewRNG(2)
	u := make([]float32, 1000)
	var absMax float32
	for i := range u {
		u[i] = rng.NormFloat32() * 0.01
		if a := float32(math.Abs(float64(u[i]))); a > absMax {
			absMax = a
		}
	}
	got := codecRoundTrip(t, Int8Codec{}, u)
	bound := absMax/127/2 + 1e-9
	for i := range u {
		if math.Abs(float64(got[i]-u[i])) > float64(bound) {
			t.Fatalf("int8 error %g exceeds half-step %g", got[i]-u[i], bound)
		}
	}
}

func TestTernaryCodecSignsAndCompression(t *testing.T) {
	u := []float32{0.9, -0.8, 0.001, -0.002, 1.2, 0, -1.1, 0.003}
	c := TernaryCodec{}
	payload, err := c.Encode(u)
	if err != nil {
		t.Fatal(err)
	}
	// 4 bytes scale + ceil(8/4)=2 bytes codes.
	if len(payload) != 6 {
		t.Fatalf("ternary payload %dB, want 6", len(payload))
	}
	got, err := c.Decode(payload, len(u))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range u {
		switch {
		case v > 0.5 && got[i] <= 0:
			t.Fatalf("large positive at %d decoded to %v", i, got[i])
		case v < -0.5 && got[i] >= 0:
			t.Fatalf("large negative at %d decoded to %v", i, got[i])
		case math.Abs(float64(v)) < 0.01 && got[i] != 0:
			t.Fatalf("near-zero at %d decoded to %v", i, got[i])
		}
	}
}

func TestTopKCodecKeepsLargest(t *testing.T) {
	u := []float32{0.01, -5, 0.02, 3, -0.03, 0.5}
	c := TopKCodec{Ratio: 0.34} // keep ceil(0.34*6)=3
	got := codecRoundTrip(t, c, u)
	if got[1] != -5 || got[3] != 3 || got[5] != 0.5 {
		t.Fatalf("topk lost large entries: %v", got)
	}
	if got[0] != 0 || got[2] != 0 || got[4] != 0 {
		t.Fatalf("topk kept small entries: %v", got)
	}
	if _, err := (TopKCodec{Ratio: 0}).Encode(u); err == nil {
		t.Fatal("accepted ratio 0")
	}
}

func TestCodecCompressionRatios(t *testing.T) {
	rng := tensor.NewRNG(3)
	n := 10000
	u := make([]float32, n)
	for i := range u {
		u[i] = rng.NormFloat32()
	}
	raw, _ := NoneCodec{}.Encode(u)
	i8, _ := Int8Codec{}.Encode(u)
	tern, _ := TernaryCodec{}.Encode(u)
	topk, _ := TopKCodec{Ratio: 0.01}.Encode(u)
	if len(raw) != 4*n {
		t.Fatalf("raw = %dB", len(raw))
	}
	if r := float64(len(raw)) / float64(len(i8)); r < 3.9 {
		t.Fatalf("int8 ratio %v < 3.9", r)
	}
	if r := float64(len(raw)) / float64(len(tern)); r < 15 {
		t.Fatalf("ternary ratio %v < 15", r)
	}
	if r := float64(len(raw)) / float64(len(topk)); r < 40 {
		t.Fatalf("topk(1%%) ratio %v < 40", r)
	}
}

// Property: every codec round-trips without error and preserves vector
// length for arbitrary sizes.
func TestCodecRoundTripProperty(t *testing.T) {
	codecs := []Codec{NoneCodec{}, Int8Codec{}, TernaryCodec{}, TopKCodec{Ratio: 0.1}}
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 1 + rng.Intn(500)
		u := make([]float32, n)
		for i := range u {
			u[i] = rng.NormFloat32()
		}
		for _, c := range codecs {
			payload, err := c.Encode(u)
			if err != nil {
				return false
			}
			out, err := c.Decode(payload, n)
			if err != nil || len(out) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// fedFixture builds a small non-IID federated problem.
func fedFixture(t *testing.T, alpha float64, seed uint64) (*nn.Network, []*Client, *dataset.Dataset) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	ds := dataset.Blobs(rng, 1200, 4, 3, 4)
	train, test := ds.Split(0.8, rng)
	shards := dataset.PartitionDirichlet(rng, train, 8, alpha)
	clients := MakeClients(train, shards, "c")
	global := nn.NewNetwork([]int{4}, nn.NewDense(4, 16, rng), nn.NewReLU(), nn.NewDense(16, 3, rng))
	return global, clients, test
}

func TestFedAvgLearns(t *testing.T) {
	global, clients, test := fedFixture(t, 10, 4) // near-IID
	co, err := NewCoordinator(global, clients, test.X, test.Y, Config{
		Rounds: 8, LocalEpochs: 2, LocalBatch: 16, LR: 0.1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := co.Run()
	if err != nil {
		t.Fatal(err)
	}
	final := stats[len(stats)-1].TestAccuracy
	if final < 0.85 {
		t.Fatalf("FedAvg final accuracy %v < 0.85", final)
	}
	if stats[0].UplinkBytes == 0 || stats[0].DownlinkBytes == 0 {
		t.Fatalf("communication not accounted: %+v", stats[0])
	}
	if stats[0].Participants != 8 {
		t.Fatalf("participants = %d, want 8", stats[0].Participants)
	}
}

func TestFedAvgWithCompressionStillLearnsAndSavesBytes(t *testing.T) {
	globalRaw, clientsRaw, test := fedFixture(t, 10, 6)
	coRaw, _ := NewCoordinator(globalRaw, clientsRaw, test.X, test.Y, Config{
		Rounds: 6, LocalEpochs: 1, LocalBatch: 16, LR: 0.1, Seed: 7,
	})
	rawStats, err := coRaw.Run()
	if err != nil {
		t.Fatal(err)
	}
	globalT, clientsT, testT := fedFixture(t, 10, 6)
	coT, _ := NewCoordinator(globalT, clientsT, testT.X, testT.Y, Config{
		Rounds: 6, LocalEpochs: 1, LocalBatch: 16, LR: 0.1, Seed: 7,
		Codec: TernaryCodec{},
	})
	ternStats, err := coT.Run()
	if err != nil {
		t.Fatal(err)
	}
	var rawUp, ternUp int64
	for i := range rawStats {
		rawUp += rawStats[i].UplinkBytes
		ternUp += ternStats[i].UplinkBytes
	}
	if ratio := float64(rawUp) / float64(ternUp); ratio < 10 {
		t.Fatalf("ternary saved only %.1f×", ratio)
	}
	if acc := ternStats[len(ternStats)-1].TestAccuracy; acc < 0.75 {
		t.Fatalf("ternary-compressed FedAvg accuracy %v < 0.75", acc)
	}
}

func TestFedProxHelpsOnPathologicalNonIID(t *testing.T) {
	// With by-class shards FedAvg drifts; FedProx should not be (much)
	// worse and the run must complete. We assert both configurations
	// train and report accuracy above chance.
	for _, mu := range []float32{0, 0.1} {
		global, clients, test := fedFixture(t, 0.1, 8)
		co, _ := NewCoordinator(global, clients, test.X, test.Y, Config{
			Rounds: 6, LocalEpochs: 2, LocalBatch: 16, LR: 0.1, Seed: 9, ProximalMu: mu,
		})
		stats, err := co.Run()
		if err != nil {
			t.Fatal(err)
		}
		if acc := stats[len(stats)-1].TestAccuracy; acc < 0.5 {
			t.Fatalf("mu=%v accuracy %v < 0.5", mu, acc)
		}
	}
}

func TestEligibilityGate(t *testing.T) {
	global, clients, test := fedFixture(t, 10, 12)
	// Attach devices: half are never charging.
	caps, _ := device.ProfileByName("phone")
	for i, c := range clients {
		d := device.NewDevice(c.ID, caps, nil)
		if i%2 == 0 {
			d.SetNet(device.WiFi)
			d.SetCharging(true)
		}
		c.Device = d
	}
	co, _ := NewCoordinator(global, clients, test.X, test.Y, Config{
		Rounds: 1, LocalEpochs: 1, LocalBatch: 16, LR: 0.1, Seed: 13,
	})
	s, err := co.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if s.Participants != len(clients)/2 {
		t.Fatalf("participants = %d, want %d", s.Participants, len(clients)/2)
	}
	// Upload bytes charged to participating devices.
	var tx int64
	for _, c := range clients {
		tx += c.Device.Snapshot().TxBytes
	}
	if tx != s.UplinkBytes {
		t.Fatalf("device tx %d != uplink %d", tx, s.UplinkBytes)
	}
}

func TestNoEligibleClientsSkipsRound(t *testing.T) {
	global, clients, test := fedFixture(t, 10, 14)
	caps, _ := device.ProfileByName("phone")
	for _, c := range clients {
		// A fresh device is offline and not charging: never eligible.
		c.Device = device.NewDevice(c.ID, caps, nil)
	}
	co, _ := NewCoordinator(global, clients, test.X, test.Y, Config{Rounds: 1, Seed: 15})
	s, err := co.RunRound()
	if err != nil {
		t.Fatal(err)
	}
	if s.Participants != 0 || s.UplinkBytes != 0 {
		t.Fatalf("skipped round stats = %+v", s)
	}
}

func TestSecureAggregationMasksCancelExactly(t *testing.T) {
	rng := tensor.NewRNG(16)
	n, dim := 5, 200
	seeds := NewPairwiseSeeds(rng, n)
	agg, err := NewAggregator("t", seeds, dim)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int64, dim)
	for i := 0; i < n; i++ {
		update := make([]float32, dim)
		for k := range update {
			update[k] = rng.NormFloat32() * 0.01
		}
		q := quantizeFixed(update)
		addInto(want, q)
		m, err := MaskFixed(q, i, seeds)
		if err != nil {
			t.Fatal(err)
		}
		// Privacy: the masked upload must be nothing like the raw one. An
		// update this small leaves the top 32 bits of every raw word all
		// zeros or all ones; a uniform mask leaves almost none that way.
		plain := 0
		for _, w := range m {
			if top := int32(w >> 32); top == 0 || top == -1 {
				plain++
			}
		}
		if plain > dim/10 {
			t.Fatalf("client %d: %d of %d masked words still look like small integers", i, plain, dim)
		}
		if err := agg.Submit(i, m, 1); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := agg.Unmask()
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("masked sum differs at %d: %v vs %v", k, got[k], want[k])
		}
	}
}

func TestPersonalizationImprovesLocalAccuracy(t *testing.T) {
	rng := tensor.NewRNG(18)
	// Global model trained on standard pitch; local user has shifted pitch.
	globalData := dataset.KeywordSeq(rng, 1500, 32, 3, 0.1, 0)
	global := nn.NewNetwork([]int{32}, nn.NewDense(32, 24, rng), nn.NewReLU(), nn.NewDense(24, 3, rng))
	if _, err := nn.Train(global, globalData.X, globalData.Y, nn.TrainConfig{
		Epochs: 10, BatchSize: 32, Optimizer: nn.NewSGD(0.1).WithMomentum(0.9), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	localData := dataset.KeywordSeq(rng, 400, 32, 3, 0.1, 0.35)
	localTrain, localTest := localData.Split(0.7, rng)
	before := nn.Evaluate(global, localTest.X, localTest.Y)
	personal, err := Personalize(global, localTrain, PersonalizeConfig{
		Epochs: 8, RNG: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	after := nn.Evaluate(personal, localTest.X, localTest.Y)
	if after < before {
		t.Fatalf("personalization hurt: %v -> %v", before, after)
	}
	if after < 0.6 {
		t.Fatalf("personalized accuracy %v too low", after)
	}
	// Frozen layers must be unchanged.
	g0 := global.Layers()[0].(*nn.Dense).W.Value
	p0 := personal.Layers()[0].(*nn.Dense).W.Value
	if !slices.Equal(g0.Data, p0.Data) {
		t.Fatal("frozen layer was modified")
	}
}

func TestPersonalizeValidation(t *testing.T) {
	rng := tensor.NewRNG(19)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 2, rng))
	ds := dataset.Blobs(rng, 50, 4, 2, 3)
	if _, err := Personalize(net, ds, PersonalizeConfig{RNG: nil}); err == nil {
		t.Fatal("accepted nil RNG")
	}
	if _, err := Personalize(net, ds, PersonalizeConfig{RNG: rng}); err == nil {
		t.Fatal("accepted a model with fewer layers than Personalize freezes")
	}
}

func TestPseudoLabelConfidenceThreshold(t *testing.T) {
	rng := tensor.NewRNG(20)
	ds := dataset.Blobs(rng, 600, 4, 3, 6)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 16, rng), nn.NewReLU(), nn.NewDense(16, 3, rng))
	if _, err := nn.Train(net, ds.X, ds.Y, nn.TrainConfig{
		Epochs: 10, BatchSize: 32, Optimizer: nn.NewSGD(0.1).WithMomentum(0.9), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	idxLow, _ := PseudoLabel(net, ds.X, 0.5)
	idxHigh, labelsHigh := PseudoLabel(net, ds.X, 0.99)
	if len(idxHigh) > len(idxLow) {
		t.Fatal("higher threshold kept more examples")
	}
	// Confident pseudo-labels should be mostly correct.
	correct := 0
	for i, src := range idxHigh {
		if labelsHigh[i] == ds.Y[src] {
			correct++
		}
	}
	if len(idxHigh) > 0 && float64(correct)/float64(len(idxHigh)) < 0.9 {
		t.Fatalf("confident pseudo-labels only %.2f correct", float64(correct)/float64(len(idxHigh)))
	}
}

func TestSemiSupervisedRoundUsesConfidentExamples(t *testing.T) {
	rng := tensor.NewRNG(21)
	ds := dataset.Blobs(rng, 800, 4, 3, 6)
	train, test := ds.Split(0.5, rng)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 16, rng), nn.NewReLU(), nn.NewDense(16, 3, rng))
	if _, err := nn.Train(net, train.X, train.Y, nn.TrainConfig{
		Epochs: 6, BatchSize: 32, Optimizer: nn.NewSGD(0.1).WithMomentum(0.9), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	local, used, err := SemiSupervisedRound(net, test.X, 0.9, PersonalizeConfig{
		Epochs: 3, RNG: rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if used == 0 {
		t.Fatal("no confident examples found")
	}
	if acc := nn.Evaluate(local, test.X, test.Y); acc < 0.85 {
		t.Fatalf("semi-supervised model accuracy %v", acc)
	}
}

// TestCoordinatorValidation table-drives the flat constructor: it refuses
// what the two-tier one refuses, before a round can panic on it or train a
// client twice.
func TestCoordinatorValidation(t *testing.T) {
	rng := tensor.NewRNG(22)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 2, rng))
	ds := dataset.Blobs(rng, 20, 4, 2, 3)
	clients := MakeClients(ds, dataset.PartitionIID(rng, ds, 2), "v")
	cases := []struct {
		name    string
		global  *nn.Network
		clients []*Client
		testX   *tensor.Tensor
		testY   []int
	}{
		{"no clients", net, nil, nil, nil},
		{"nil global", nil, clients, nil, nil},
		{"nil client", net, []*Client{clients[0], nil}, nil, nil},
		{"nil client data", net, []*Client{clients[0], {ID: "v-empty"}}, nil, nil},
		{"duplicate client IDs", net, []*Client{clients[0], clients[1], clients[0]}, nil, nil},
		// Both used to pass, and the round's evaluation then panicked the
		// process (shape) or indexed past the labels (count).
		{"mis-shaped test set", net, clients, tensor.New(10, 5), make([]int, 10)},
		{"test rows without labels", net, clients, tensor.New(10, 4), make([]int, 9)},
	}
	for _, c := range cases {
		if _, err := NewCoordinator(c.global, c.clients, c.testX, c.testY, Config{}); err == nil {
			t.Fatalf("%s: constructor accepted it", c.name)
		}
	}
	// An empty shard used to pass, and the round then failed as a whole on
	// an integer divide by zero in the client's training.
	empty := &Client{ID: "v-none", Data: ds.Subset([]int{})}
	if _, err := NewCoordinator(net, []*Client{clients[0], empty}, nil, nil, Config{}); err == nil || !strings.Contains(err.Error(), empty.ID) {
		t.Fatalf("a client with no examples: constructor returned %v, want an error naming %s", err, empty.ID)
	}
	// With no edge tier there is no aggregator to mask for or to fail.
	for name, cfg := range map[string]HierConfig{
		"flat secure aggregation": {SecureAgg: true},
		"flat aggregator faults":  {AggFaults: func(int, string) ClientFault { return ClientFault{} }},
	} {
		if _, err := newCoordinator(net, clients, nil, nil, cfg); err == nil {
			t.Fatalf("%s: constructor accepted it", name)
		}
	}
}

// TestClientFaultsDropoutsAndStragglers pins the fault-hook semantics:
// dropouts are excluded from training and uplink, late stragglers train
// and upload but are excluded from the aggregate, and the global model
// still converges from the survivors.
func TestClientFaultsDropoutsAndStragglers(t *testing.T) {
	global, clients, test := fedFixture(t, 10, 11)
	faults := func(round int, clientID string) ClientFault {
		switch clientID {
		case "c-000":
			return ClientFault{Dropout: true}
		case "c-001":
			return ClientFault{SlowFactor: 8} // past the deadline: late
		case "c-002":
			return ClientFault{SlowFactor: 2} // slow but in time
		}
		return ClientFault{}
	}
	co, err := NewCoordinator(global, clients, test.X, test.Y, Config{
		Rounds: 6, LocalEpochs: 2, LocalBatch: 16, LR: 0.1, Seed: 5,
		Faults: faults, StragglerDeadline: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := co.Run()
	if err != nil {
		t.Fatal(err)
	}
	s0 := stats[0]
	if s0.Dropouts != 1 || s0.Stragglers != 2 || s0.Late != 1 {
		t.Fatalf("fault counts = dropouts %d stragglers %d late %d", s0.Dropouts, s0.Stragglers, s0.Late)
	}
	if s0.Participants != 8 {
		t.Fatalf("participants = %d", s0.Participants)
	}
	final := stats[len(stats)-1].TestAccuracy
	if final < 0.8 {
		t.Fatalf("global accuracy %v under faults < 0.8", final)
	}
}

// TestClientFaultsUplinkAccounting distinguishes the radio cost of a
// dropout (nothing uploaded) from a late straggler (upload wasted).
func TestClientFaultsUplinkAccounting(t *testing.T) {
	run := func(faults func(int, string) ClientFault) RoundStats {
		global, clients, test := fedFixture(t, 10, 13)
		co, err := NewCoordinator(global, clients, test.X, test.Y, Config{
			Rounds: 1, LocalEpochs: 1, LocalBatch: 16, LR: 0.1, Seed: 5,
			Faults: faults, StragglerDeadline: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := co.Run()
		if err != nil {
			t.Fatal(err)
		}
		return stats[0]
	}
	clean := run(nil)
	drop := run(func(_ int, id string) ClientFault { return ClientFault{Dropout: id == "c-000"} })
	late := run(func(_ int, id string) ClientFault {
		if id == "c-000" {
			return ClientFault{SlowFactor: 100}
		}
		return ClientFault{}
	})
	if drop.UplinkBytes >= clean.UplinkBytes {
		t.Fatalf("dropout uplink %d not below clean %d", drop.UplinkBytes, clean.UplinkBytes)
	}
	if late.UplinkBytes != clean.UplinkBytes {
		t.Fatalf("late straggler uplink %d, want %d (the upload happened, just too late)", late.UplinkBytes, clean.UplinkBytes)
	}
	if drop.UplinkBytes >= late.UplinkBytes {
		t.Fatalf("dropout uplink %d must be below late-straggler uplink %d", drop.UplinkBytes, late.UplinkBytes)
	}
}
