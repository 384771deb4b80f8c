package fed

import (
	"fmt"

	"tinymlops/internal/engine"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// workspace is one worker's client-training scratch. A round borrows it from
// the coordinator's engine.ArenaPool as serving borrows its scratch, so a
// coordinator keeps as many as it has had clients training at once — its
// worker count — however many clients a round trains. What is resident per
// worker: one copy of the model with its training plan — the gathered batch
// and each layer's training-mode outputs and gradients, a few batches of
// activations, carried from client to client — three vectors of the model's
// dimension, and under SecureAgg the masked vectors of the one cohort the
// worker is running, cohort × dimension words, reused from cohort to cohort.
// A client keeps nothing between rounds but its shard and its (seed, round,
// ID) stream.
type workspace struct {
	// net is the scratch network every client trains in, reset from the
	// global before each one.
	net *nn.Network
	opt nn.SGD
	rng tensor.RNG
	// delta is the trained client's update before the codec, contrib its
	// sample-weighted fixed-point contribution after.
	delta   []float32
	contrib []int64
	// rows are a masked cohort's lifted contributions, by participant index
	// (nil for a participant the aggregator will not sum), cut from slab.
	rows [][]uint64
	slab []uint64
}

func newWorkspace() any { return new(workspace) }

// fit sizes the workspace's vectors for a model of dim parameters.
func (ws *workspace) fit(dim int) {
	if len(ws.delta) != dim {
		ws.delta, ws.contrib = make([]float32, dim), make([]int64, dim)
	}
}

// reset makes ws.net indistinguishable from a fresh global.Clone(), but for
// the training plan it keeps. The first client of a worker pays the clone
// and the plan, and so does the first after the global was replaced by a
// model of another topology — which ResetFrom reports as it copies, so no
// round compares signatures.
func (ws *workspace) reset(global *nn.Network) {
	if ws.net == nil || ws.net.ResetFrom(global) != nil {
		ws.net = global.Clone()
	}
}

// cohortRows returns n empty row slots and makes room for up to n rows of
// dim words in the slab; row cuts the next one.
func (ws *workspace) cohortRows(n, dim int) [][]uint64 {
	if cap(ws.rows) < n {
		ws.rows = make([][]uint64, n)
	}
	if cap(ws.slab) < n*dim {
		ws.slab = make([]uint64, n*dim)
	}
	ws.rows, ws.slab = ws.rows[:n], ws.slab[:0]
	clear(ws.rows)
	return ws.rows
}

// row cuts the next dim-word row from the slab and lifts contrib into it.
func (ws *workspace) row(contrib []int64) []uint64 {
	lo := len(ws.slab)
	ws.slab = ws.slab[:lo+len(contrib)]
	r := ws.slab[lo:]
	for k, v := range contrib {
		r[k] = uint64(v)
	}
	return r
}

// clientUpdate is what one client sent: the update as the server decodes it,
// the shard size it is weighted by and the codec payload's length.
type clientUpdate struct {
	delta   []float32
	samples int
	bytes   int
}

// localTrain trains one client from the global weights in the worker's
// workspace and returns its encoded-then-decoded (i.e. lossy, as the server
// would see it) delta. The client's training stream derives from (cfg.Seed,
// round, client ID) alone, so the same client produces a bit-identical
// update under any topology, on any worker, after any other client.
func localTrain(cfg *Config, ws *workspace, global *nn.Network, globalFlat []float32, c *Client, round int) (clientUpdate, error) {
	ws.reset(global)
	ws.fit(len(globalFlat))
	ws.opt.LR = cfg.LR
	ws.rng.Seed(engine.SeedForID(cfg.Seed, uint64(round), "train|"+c.ID))
	tc := nn.TrainConfig{
		Epochs:    cfg.LocalEpochs,
		BatchSize: cfg.LocalBatch,
		Optimizer: &ws.opt,
		RNG:       &ws.rng,
	}
	if cfg.ProximalMu > 0 {
		mu := cfg.ProximalMu
		tc.ExtraGrad = func(net *nn.Network) {
			// ∇(μ/2·‖w−w_g‖²) = μ(w−w_g), applied parameter-wise.
			off := 0
			for _, p := range net.Params() {
				n := p.Value.Size()
				for k := 0; k < n; k++ {
					p.Grad.Data[k] += mu * (p.Value.Data[k] - globalFlat[off+k])
				}
				off += n
			}
		}
	}
	if _, err := nn.Train(ws.net, c.Data.X, c.Data.Y, tc); err != nil {
		return clientUpdate{}, fmt.Errorf("fed: client %s: %w", c.ID, err)
	}
	off := 0
	for _, p := range ws.net.Params() {
		for k, v := range p.Value.Data {
			ws.delta[off+k] = v - globalFlat[off+k]
		}
		off += p.Value.Size()
	}
	payload, err := cfg.Codec.Encode(ws.delta)
	if err != nil {
		return clientUpdate{}, fmt.Errorf("fed: client %s encode: %w", c.ID, err)
	}
	decoded, err := cfg.Codec.Decode(payload, len(ws.delta))
	if err != nil {
		return clientUpdate{}, fmt.Errorf("fed: client %s decode: %w", c.ID, err)
	}
	return clientUpdate{delta: decoded, samples: c.Data.Len(), bytes: len(payload)}, nil
}
