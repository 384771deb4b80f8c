package nn

import "tinymlops/internal/tensor"

// This file implements the compiled batch program behind
// Network.ForwardBatch: the layer list is lowered once per batch size into
// a list of steps whose buffers, workspace headers and fusion
// decisions are all resolved ahead of time, so running the program in the
// steady state allocates nothing. Dense layers absorb a following
// BatchNorm1D (frozen statistics) and elementwise activations into a
// single fused step; Conv2D absorbs elementwise activations. An absorbed
// layer runs as its own kernel, in place over the step's output
// — each of these kernels reads only the element (for batch norm, the
// column) it writes — so a compiled program's output is bit-identical to
// running every layer's own kernel in turn, by construction.

// stepKind identifies the executable form of one compiled step.
type stepKind int

const (
	stepFlatten stepKind = iota
	stepDense
	stepConv
	stepPlain
)

// bstep is one compiled step: its output buffer, any hoisted workspace
// headers, and the kernels of the layers fused into it.
type bstep struct {
	kind  stepKind
	dst   *tensor.Tensor
	tail  []kernel // absorbed layers, run in place over dst
	plain kernel   // stepPlain

	dense *Dense

	conv    *Conv2D
	win     tensor.Window  // conv geometry (fixed per program)
	cols    []float32      // conv im2col workspace
	flatHdr *tensor.Tensor // stepFlatten: [b, per] view, data rebound per run
}

// program is a network lowered for one batch size. It is owned by a
// Scratch, so one program serves one goroutine.
type program struct {
	batch int
	steps []*bstep
}

// absorbTail fuses into st the layers after layers[i] that can run in place
// over its output — elementwise activations, a batch norm over width
// features (width 0: none) — skips identity dropout, and returns the index
// of the last layer it consumed.
func absorbTail(st *bstep, layers []Layer, i, width int) int {
	for ; i+1 < len(layers); i++ {
		switch l := layers[i+1].(type) {
		case *ReLU, *Tanh, *Sigmoid:
			st.tail = append(st.tail, l.(kernel))
		case *BatchNorm1D:
			if l.F != width {
				return i
			}
			st.tail = append(st.tail, l)
		case *Dropout:
			// Inverted dropout is the identity at inference time.
		default:
			return i
		}
	}
	return i
}

// compileBatch lowers the network for a batch of b examples. Every shape
// and window it sizes a buffer by is read off the plan Assemble kept, which
// is also why a compiled program cannot hit a shape panic inside a kernel.
// Every kind of the table runs: fused below, or as a plain step through its
// kernel.
func (n *Network) compileBatch(b int) *program {
	p := &program{batch: b}
	cur := n.InputShape
	layers := n.layers
	for i := 0; i < len(layers); i++ {
		out := n.plan[i].Info.OutShape
		switch l := layers[i].(type) {
		case *Dropout:
			// Inverted dropout is the identity at inference time.
		case *Flatten:
			p.steps = append(p.steps, &bstep{kind: stepFlatten, flatHdr: tensor.New(b, out[0])})
		case *Dense:
			st := &bstep{kind: stepDense, dense: l, dst: tensor.New(b, l.Out)}
			i = absorbTail(st, layers, i, l.Out)
			p.steps = append(p.steps, st)
		case *Conv2D:
			g := l.window(cur[1], cur[2])
			positions := out[1] * out[2]
			st := &bstep{
				kind: stepConv, conv: l, win: g,
				dst:  tensor.New(append([]int{b}, out...)...),
				cols: make([]float32, g.Taps()*positions),
			}
			i = absorbTail(st, layers, i, 0)
			p.steps = append(p.steps, st)
		default:
			p.steps = append(p.steps, &bstep{
				kind: stepPlain, plain: l.(kernel),
				dst: tensor.New(append([]int{b}, out...)...),
			})
		}
		cur = n.plan[i].Info.OutShape
	}
	return p
}

// runTail runs the step's absorbed layers in place over its output.
func (st *bstep) runTail() {
	for _, k := range st.tail {
		k.inferInto(st.dst, st.dst)
	}
}

// run executes the compiled program. The returned tensor aliases program
// storage (or, after a trailing Flatten, the input's data) and is valid
// until the next run.
func (p *program) run(x *tensor.Tensor) *tensor.Tensor {
	for _, st := range p.steps {
		switch st.kind {
		case stepFlatten:
			st.flatHdr.Data = x.Data
			x = st.flatHdr
		case stepDense:
			d := st.dense
			tensor.MatMulInto(st.dst, x, d.W.Value)
			st.dst.AddRowVector(d.B.Value)
			st.runTail()
			x = st.dst
		case stepConv:
			for n := 0; n < p.batch; n++ {
				st.conv.convolve(st.dst, x, n, st.win, st.cols)
			}
			st.runTail()
			x = st.dst
		case stepPlain:
			st.plain.inferInto(st.dst, x)
			x = st.dst
		}
	}
	return x
}
