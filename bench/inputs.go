package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"

	"tinymlops/internal/dataset"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// Everything a workload feeds the platform is generated here from the
// seed; the platform never sees the seed's RNG, only the generated inputs.
// The digest over those inputs is printed with every result, so two runs
// can show they measured the same thing.

// vendorKey provisions every platform the harness builds. It is not an
// input: it only has to be the same on every run.
var vendorKey = []byte("tinymlops-bench-vendor-key-0123456789")

// inputs is the seed-derived material of one run.
type inputs struct {
	seed   uint64
	rng    *tensor.RNG
	digest hash.Hash
}

func newInputs(seed uint64) *inputs {
	return &inputs{seed: seed, rng: tensor.NewRNG(seed), digest: sha256.New()}
}

func (in *inputs) noteFloats(v []float32) {
	var b [4]byte
	for _, x := range v {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		in.digest.Write(b[:])
	}
}

func (in *inputs) noteInts(v []int) {
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		in.digest.Write(b[:])
	}
}

func (in *inputs) sum() string { return fmt.Sprintf("%x", in.digest.Sum(nil)[:12]) }

// modelSpec is one of the two benchmark models.
type modelSpec struct {
	name    string
	widths  []int // input, hidden..., classes
	samples int
	epochs  int
}

var (
	// kwsMLP is the keyword-spotting shape: ≈50k MACs, 200 KB in float.
	kwsMLP = modelSpec{name: "kws-mlp", widths: []int{64, 256, 128, 10}, samples: 512, epochs: 2}
	// sensorMLP is the quickstart shape: the kernel is a small part of a
	// query, so the platform around it sets the cost.
	sensorMLP = modelSpec{name: "sensor-mlp", widths: []int{4, 16, 3}, samples: 512, epochs: 6}
)

func (m modelSpec) features() int { return m.widths[0] }

// build draws the model's initial weights.
func (m modelSpec) build(rng *tensor.RNG) *nn.Network {
	var layers []nn.Layer
	for i := 0; i+1 < len(m.widths); i++ {
		if i > 0 {
			layers = append(layers, nn.NewReLU())
		}
		layers = append(layers, nn.NewDense(m.widths[i], m.widths[i+1], rng))
	}
	return nn.NewNetwork([]int{m.widths[0]}, layers...)
}

// trained generates the model's blobs dataset, standardizes it when asked
// (returning the raw copy and the moments, for a Normalize pre-module),
// and trains the model on it.
func (in *inputs) trained(m modelSpec, standardize bool) (net *nn.Network, ds, raw *dataset.Dataset, means, stds []float32, err error) {
	classes := m.widths[len(m.widths)-1]
	ds = dataset.Blobs(in.rng, m.samples, m.features(), classes, 4)
	raw = ds
	if standardize {
		raw = ds.Clone()
		means, stds = ds.Standardize()
	}
	in.noteFloats(raw.X.Data)
	in.noteInts(raw.Y)
	net = m.build(in.rng)
	_, err = nn.Train(net, ds.X, ds.Y, nn.TrainConfig{
		Epochs: m.epochs, BatchSize: 32, Optimizer: nn.NewSGD(0.01), RNG: in.rng,
	})
	return net, ds, raw, means, stds, err
}

// rows cuts n feature rows for one client out of the dataset, drawn from
// the seed.
func (in *inputs) rows(ds *dataset.Dataset, n int) [][]float32 {
	es := ds.X.Size() / ds.Len()
	out := make([][]float32, n)
	for i := range out {
		j := in.rng.Intn(ds.Len())
		out[i] = append([]float32(nil), ds.X.Data[j*es:(j+1)*es]...)
		in.noteInts([]int{j})
	}
	return out
}

func argMax(v []float32) int {
	best := 0
	for i := range v {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
