package exec

import (
	"fmt"
	"slices"

	"tinymlops/internal/engine"
	"tinymlops/internal/nn"
	"tinymlops/internal/quant"
	"tinymlops/internal/tensor"
	"tinymlops/internal/wire"
)

// Executor runs one deployed model, whole or split at a step boundary. A
// model is n = Steps() steps; every query path executes a range of them
// and moves activations across a cut only through the executor's own
// codec, so no caller knows which kernels or wire format a variant kind
// uses. Executors are read-only after construction and safe for concurrent
// use; all per-call state lives in the arena the caller lends, a decoded
// boundary included.
type Executor interface {
	// Run executes steps [lo, hi) on a batch x of activations entering
	// step lo (lo == hi returns x). The result aliases arena storage until
	// the next call with that arena. A batch that does not fit step lo is
	// an error, never a panic.
	Run(x *tensor.Tensor, lo, hi int, ar *engine.Arena) (*tensor.Tensor, error)
	Steps() int
	// Costs is the per-step cost list planners and cost models consume.
	Costs() []nn.LayerCost
	// InputShape is the per-example input shape; every executor declares
	// one, so every batch and boundary is checked against it.
	InputShape() []int
	// Scheme is the weight precision of the kernels that execute, and its
	// width is what the device cost model charges.
	Scheme() quant.Scheme
	// Slowdown is the latency factor of the hosting world: 1 outside an
	// enclave.
	Slowdown() float64
	// SnapCut maps a planned cut onto the largest legal boundary ≤ cut, or
	// n (all-local) when there is none. Idempotent.
	SnapCut(cut int) int
	// EncodeBoundary serializes what Run(x, 0, cut, ar) returned for the
	// wire; the bytes alias arena storage. DecodeBoundary parses one
	// example's payload into arena storage the payload never aliases and
	// checks it against the geometry entering cut; the boundary is valid
	// until the next EncodeBoundary or DecodeBoundary with that arena.
	EncodeBoundary(act *tensor.Tensor, cut int, ar *engine.Arena) ([]byte, error)
	DecodeBoundary(payload []byte, cut int, ar *engine.Arena) (*Boundary, error)
	// Resume runs steps [cut, n) on one decoded boundary, bit-identically
	// to Run(x, 0, n, ar) on the example it came from. The result aliases
	// arena storage and the boundary.
	Resume(b *Boundary, cut int, ar *engine.Arena) (*tensor.Tensor, error)
}

// Boundary is one example's decoded boundary activation — a float
// activation, or QAB1 codes and their scale, which an integer EncodeBoundary
// quantizes into the same slot — in an arena slot of the executor that
// decoded it; only that executor can read it. A payload is never in it (an
// encoding lives in the arena's encode buffer), so a decode never writes the
// bytes it reads, and Run touches none of it.
type Boundary struct {
	act tensor.Tensor // [1, shape entering the cut...]
	codeBuf
}

// boundary returns the executor's boundary slot in ar.
func (g *graph) boundary(ar *engine.Arena) *Boundary {
	return ar.Slot(g, func() any { return new(Boundary) }).(*Boundary)
}

// Width is the element count of a per-example shape (0 for nil).
func Width(shape []int) int {
	if len(shape) == 0 {
		return 0
	}
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// graph is the step geometry every executor embeds, with the defaults two
// of the three share: float kernels, a cut at any step boundary, and the
// float tensor codec on the wire. It is the network's own plan, read when
// the executor is built: a network was admitted when it was made, so every
// step has a cost and a shape.
type graph struct {
	in    []int
	costs []nn.LayerCost // one per step
}

func (g *graph) init(net *nn.Network) error {
	if net == nil || len(net.Layers()) == 0 {
		return fmt.Errorf("exec: model has no layers")
	}
	g.in = net.InputShape
	g.costs, _ = net.Summary() // the kept plan; it cannot fail
	return nil
}

func (g *graph) Steps() int            { return len(g.costs) }
func (g *graph) Costs() []nn.LayerCost { return g.costs }
func (g *graph) InputShape() []int     { return g.in }
func (g *graph) Slowdown() float64     { return 1 }
func (g *graph) Scheme() quant.Scheme  { return quant.Float32 }
func (g *graph) SnapCut(cut int) int   { return min(max(cut, 0), len(g.costs)) }

// shapeAt is the per-example shape entering step i: the declared input
// shape at step 0, the output shape of step i-1 after it.
func (g *graph) shapeAt(i int) ([]int, error) {
	if i == 0 {
		return g.in, nil
	}
	if i < 0 || i > len(g.costs) {
		return nil, fmt.Errorf("exec: no shape at step %d of %d", i, len(g.costs))
	}
	return g.costs[i-1].Info.OutShape, nil
}

// enter checks a Run request and returns x in the declared shape entering
// step lo (a flat feature row becomes the image a conv step expects).
func (g *graph) enter(x *tensor.Tensor, lo, hi int) (*tensor.Tensor, error) {
	if lo < 0 || hi > g.Steps() || lo > hi {
		return nil, fmt.Errorf("exec: step range [%d,%d) out of [0,%d]", lo, hi, g.Steps())
	}
	shape, err := g.shapeAt(lo)
	if err != nil {
		return nil, err
	}
	rows := x.Dim(0)
	if rows < 1 || x.Size() != rows*Width(shape) {
		return nil, fmt.Errorf("exec: input shape %v does not fit step %d, which wants [n %v]", x.Shape(), lo, shape)
	}
	if !slices.Equal(x.Shape()[1:], shape) {
		x = tensor.FromSlice(x.Data, append([]int{rows}, shape...)...)
	}
	return x, nil
}

// EncodeBoundary appends act's TMLT1 encoding to the arena's buffer.
func (g *graph) EncodeBoundary(act *tensor.Tensor, cut int, ar *engine.Arena) ([]byte, error) {
	buf := ar.Buffer()
	buf.Write(act.AppendBinary(buf.AvailableBuffer()))
	return buf.Bytes(), nil
}

// DecodeBoundary parses a one-example float boundary, which must fill the
// payload exactly, into the arena and checks it against the shape entering
// step cut.
func (g *graph) DecodeBoundary(payload []byte, cut int, ar *engine.Arena) (*Boundary, error) {
	shape, err := g.shapeAt(cut)
	if err != nil || cut >= g.Steps() {
		return nil, fmt.Errorf("exec: cut %d out of range [0,%d)", cut, g.Steps())
	}
	if isQAB(payload) {
		return nil, fmt.Errorf("exec: this model does not accept quantized boundary payloads")
	}
	b := g.boundary(ar)
	r := wire.NewReader(payload)
	if err = b.act.Decode(r); err == nil {
		err = r.Done()
	}
	if err != nil {
		return nil, fmt.Errorf("exec: decode activation: %w", err)
	}
	if got := b.act.Shape(); got[0] != 1 || !slices.Equal(got[1:], shape) {
		return nil, fmt.Errorf("exec: activation shape %v, want [1 %v]", got, shape)
	}
	return b, nil
}

// hosted is an executor running inside a protected world.
type hosted struct {
	Executor
	slowdown float64
}

// Hosted wraps an executor whose artifact lives in an enclave: execution is
// the inner executor's, charged the protected world's slowdown factor.
func Hosted(inner Executor, slowdown float64) Executor {
	return hosted{Executor: inner, slowdown: slowdown}
}

func (h hosted) Slowdown() float64 { return h.slowdown }
