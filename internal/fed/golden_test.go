package fed

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"tinymlops/internal/dataset"
	"tinymlops/internal/engine"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// goldenWeather is the "weather" pattern of TestHierMaskedEqualsFlatUnmasked:
// a fifth of the clients drop, a fifth arrive past the deadline, a fifth are
// slow but in time.
func goldenWeather(round int, id string) ClientFault {
	switch engine.SeedForID(77, uint64(round), id) % 5 {
	case 0:
		return ClientFault{Dropout: true}
	case 1:
		return ClientFault{SlowFactor: 16}
	case 2:
		return ClientFault{SlowFactor: 2}
	}
	return ClientFault{}
}

// goldenProblem builds the 32-client problem of one golden row. "mlp" is a
// dense 16→12→3 network; "conv" puts a convolution, batch norm (running
// statistics that are not Params) and dropout (an RNG that is per-clone
// state) in front of the head — the two kinds of state a params-only copy of
// the global gets wrong.
func goldenProblem(model string) (*nn.Network, []*Client, *dataset.Dataset) {
	const nClients = 32
	rng := tensor.NewRNG(61)
	ds := dataset.Blobs(rng, 6*nClients+120, 16, 3, 4)
	var global *nn.Network
	if model == "conv" {
		ds.X = ds.X.Reshape(ds.Len(), 1, 4, 4)
		bn := nn.NewBatchNorm1D(8)
		for j := range bn.RunMean.Data {
			bn.RunMean.Data[j] = 0.5 + 0.1*rng.NormFloat32()
			bn.RunVar.Data[j] = 1.5 + rng.Float32()
		}
		global = nn.NewNetwork([]int{1, 4, 4},
			nn.NewConv2D(1, 2, 3, 3, 1, 1, rng), nn.NewReLU(), nn.NewFlatten(),
			nn.NewDense(32, 8, rng), bn, nn.NewDropout(0.25, rng), nn.NewDense(8, 3, rng))
	} else {
		global = nn.NewNetwork([]int{16}, nn.NewDense(16, 12, rng), nn.NewReLU(), nn.NewDense(12, 3, rng))
	}
	train, test := ds.Split(float64(6*nClients)/float64(ds.Len()), rng)
	return global, MakeClients(train, dataset.PartitionIID(rng, train, nClients), "gc"), test
}

// goldenRun runs three rounds of one topology and renders what the round
// produced: a digest of the global's exact weight bits, then every
// RoundStats field of every round (%+v prints a float64 so that it reads
// back exactly).
func goldenRun(t *testing.T, topology, model string, codec Codec, mu float32, workers int) string {
	t.Helper()
	global, clients, test := goldenProblem(model)
	cfg := Config{
		Rounds: 3, LocalEpochs: 1, LocalBatch: 4, LR: 0.1, Seed: 63, Codec: codec, ProximalMu: mu,
		Faults: goldenWeather, StragglerDeadline: 4,
		Engine: engine.New(engine.Config{Workers: workers}),
	}
	var stats []RoundStats
	var err error
	var final *nn.Network
	if topology == "flat" {
		var co *Coordinator
		if co, err = NewCoordinator(global, clients, test.X, test.Y, cfg); err == nil {
			stats, err = co.Run()
			final = co.Global
		}
	} else {
		var hc *HierCoordinator
		hcfg := HierConfig{Config: cfg, Aggregators: 4, SecureAgg: topology == "hier-masked", AggStragglerDeadline: 4}
		if hc, err = NewHierCoordinator(global, clients, test.X, test.Y, hcfg); err == nil {
			stats, err = hc.Run()
			final = hc.Global
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [4]byte
	for _, v := range final.FlatParams() {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	var sb strings.Builder
	sb.WriteString("params=" + hex.EncodeToString(h.Sum(nil)))
	for _, s := range stats {
		fmt.Fprintf(&sb, " %+v", s)
	}
	return sb.String()
}

// TestRoundGoldens pins three rounds of every topology × codec × model
// against testdata/rounds.golden, recorded at commit 5a8c1b0 — before the
// per-worker training workspace, when every client cloned the global through
// the wire format and masked alone. Each row must read the same at 1, 4 and
// 16 workers. The weights and every RoundStats field are in the row, so the
// uplink byte counts of all four codecs on both tiers are pinned too.
func TestRoundGoldens(t *testing.T) {
	data, err := os.ReadFile("testdata/rounds.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, rest, _ := strings.Cut(line, " ")
		want[name] = rest
	}
	type row struct {
		topology, model string
		codec           Codec
		mu              float32
	}
	var rows []row
	for _, topology := range []string{"flat", "hier-masked", "hier-plain"} {
		for _, codec := range []Codec{NoneCodec{}, Int8Codec{}, TopKCodec{Ratio: 0.25}, TernaryCodec{}} {
			for _, model := range []string{"mlp", "conv"} {
				rows = append(rows, row{topology, model, codec, 0})
			}
		}
	}
	rows = append(rows, row{"hier-masked", "mlp", NoneCodec{}, 0.1}, row{"flat", "conv", NoneCodec{}, 0.1})
	if len(want) != len(rows) {
		t.Fatalf("testdata/rounds.golden has %d rows, the matrix %d", len(want), len(rows))
	}
	for _, r := range rows {
		name := fmt.Sprintf("%s/%s/%s/mu=%v", r.topology, r.codec.Name(), r.model, r.mu)
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 4, 16} {
				if got := goldenRun(t, r.topology, r.model, r.codec, r.mu, workers); got != want[name] {
					t.Fatalf("workers=%d:\n got %s\nwant %s", workers, got, want[name])
				}
			}
		})
	}
}
