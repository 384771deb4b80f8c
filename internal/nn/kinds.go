package nn

import (
	"fmt"
	"slices"

	"tinymlops/internal/tensor"
)

// LayerSpec is a layer taken apart into what the model formats carry: its
// kind, its config ints and floats, and its state tensors (trainable
// parameters, then running statistics), each in TMLN1 order. SpecOf and
// NewLayer convert in the two directions, and every model codec — TMLN1,
// the TMLD1 delta, the exchange document — goes through them, so what a
// layer kind is gets stated once, in the table below.
type LayerSpec struct {
	Kind    string
	Ints    []int
	Floats  []float32
	Tensors []*tensor.Tensor
}

// kindRow is one layer kind: the exchange-document attribute names of its
// config and tensors in TMLN1 order, how to take a layer of the kind apart
// (appending to a cleared spec; false when l is some other type), the
// validation a spec must pass, and the constructor that puts a valid one
// back together. check and build may assume the three counts are right and
// no tensor is nil; build keeps the tensors but none of the spec's slices.
type kindRow struct {
	kind                  string
	ints, floats, tensors []string
	open                  func(l Layer, s *LayerSpec) bool
	check                 func(s LayerSpec) error
	build                 func(s LayerSpec) Layer
}

// row fills a kindRow for the concrete layer type T.
func row[T Layer](kind string, ints, floats, tensors []string,
	open func(T, *LayerSpec), check func(LayerSpec) error, build func(LayerSpec) Layer) kindRow {
	return kindRow{kind: kind, ints: ints, floats: floats, tensors: tensors, check: check, build: build,
		open: func(l Layer, s *LayerSpec) bool {
			v, ok := l.(T)
			if ok {
				open(v, s)
			}
			return ok
		}}
}

// bare is the row of a kind with no config and no state.
func bare[T Layer](kind string, build func() T) kindRow {
	return row(kind, nil, nil, nil, func(T, *LayerSpec) {},
		func(LayerSpec) error { return nil }, func(LayerSpec) Layer { return build() })
}

// kindRows is the layer-kind table. A new kind is one row here, its
// Describe, and a kernel case in each backend that can run it.
var kindRows = []kindRow{
	row("dense", []string{"in", "out"}, nil, []string{"weight", "bias"},
		func(d *Dense, s *LayerSpec) {
			s.Ints = append(s.Ints, d.In, d.Out)
			s.Tensors = append(s.Tensors, d.W.Value, d.B.Value)
		},
		func(s LayerSpec) error {
			in, out := s.Ints[0], s.Ints[1]
			return s.check(in >= 1 && out >= 1, []int{in, out}, []int{out})
		},
		func(s LayerSpec) Layer {
			return &Dense{In: s.Ints[0], Out: s.Ints[1], W: newParam("weight", s.Tensors[0]), B: newParam("bias", s.Tensors[1])}
		}),
	row("conv2d", []string{"in_c", "out_c", "kh", "kw", "stride", "pad"}, nil, []string{"weight", "bias"},
		func(c *Conv2D, s *LayerSpec) {
			s.Ints = append(s.Ints, c.InC, c.OutC, c.KH, c.KW, c.Stride, c.Pad)
			s.Tensors = append(s.Tensors, c.W.Value, c.B.Value)
		},
		func(s LayerSpec) error {
			inC, outC, kh, kw, stride, pad := s.Ints[0], s.Ints[1], s.Ints[2], s.Ints[3], s.Ints[4], s.Ints[5]
			ok := geometry(1, inC, outC, kh, kw, stride) && geometry(0, pad)
			return s.check(ok, []int{outC, inC * kh * kw}, []int{outC})
		},
		func(s LayerSpec) Layer {
			return &Conv2D{InC: s.Ints[0], OutC: s.Ints[1], KH: s.Ints[2], KW: s.Ints[3], Stride: s.Ints[4], Pad: s.Ints[5],
				W: newParam("weight", s.Tensors[0]), B: newParam("bias", s.Tensors[1])}
		}),
	row("maxpool2d", []string{"k", "stride"}, nil, nil,
		func(p *MaxPool2D, s *LayerSpec) { s.Ints = append(s.Ints, p.K, p.Stride) },
		func(s LayerSpec) error { return s.check(geometry(1, s.Ints...)) },
		func(s LayerSpec) Layer { return &MaxPool2D{K: s.Ints[0], Stride: s.Ints[1]} }),
	// Eps and Momentum are config, not state: a TMLD1 delta cannot patch
	// them, so they are part of the topology signature.
	row("batchnorm1d", []string{"features"}, []string{"eps", "momentum"}, []string{"gamma", "beta", "mean", "var"},
		func(bn *BatchNorm1D, s *LayerSpec) {
			s.Ints = append(s.Ints, bn.F)
			s.Floats = append(s.Floats, bn.Eps, bn.Momentum)
			s.Tensors = append(s.Tensors, bn.Gamma.Value, bn.Beta.Value, bn.RunMean, bn.RunVar)
		},
		func(s LayerSpec) error {
			f := []int{s.Ints[0]}
			return s.check(f[0] >= 1, f, f, f, f)
		},
		func(s LayerSpec) Layer {
			return &BatchNorm1D{F: s.Ints[0], Eps: s.Floats[0], Momentum: s.Floats[1],
				Gamma: newParam("gamma", s.Tensors[0]), Beta: newParam("beta", s.Tensors[1]),
				RunMean: s.Tensors[2], RunVar: s.Tensors[3]}
		}),
	row("dropout", nil, []string{"p"}, nil,
		func(d *Dropout, s *LayerSpec) { s.Floats = append(s.Floats, d.P) },
		func(s LayerSpec) error { return s.check(s.Floats[0] >= 0 && s.Floats[0] < 1) },
		func(s LayerSpec) Layer {
			d := &Dropout{P: s.Floats[0]}
			d.resetDecodeState()
			return d
		}),
	bare("flatten", NewFlatten),
	bare("relu", NewReLU),
	bare("sigmoid", NewSigmoid),
	bare("tanh", NewTanh),
	bare("softmax", NewSoftmax),
}

// kinds indexes kindRows by kind. It is filled by init and read-only after:
// an initializer expression would be an initialization cycle, because the
// constructors in kindRows name their tensors through it.
var kinds map[string]*kindRow

func init() {
	kinds = make(map[string]*kindRow, len(kindRows))
	for i := range kindRows {
		kinds[kindRows[i].kind] = &kindRows[i]
	}
}

// geometry reports whether every conv/pool dimension lies in [lo, 1<<20]:
// the cap keeps products of three of them inside an int64.
func geometry(lo int, vs ...int) bool {
	for _, v := range vs {
		if v < lo || v > 1<<20 {
			return false
		}
	}
	return true
}

// check is the shape validation every constructor shares: the config must
// be in range and tensor i must have exactly the shape the config implies.
func (s LayerSpec) check(configOK bool, shapes ...[]int) error {
	if !configOK {
		return fmt.Errorf("nn: %s: config ints %v floats %v out of range", s.Kind, s.Ints, s.Floats)
	}
	for i, want := range shapes {
		if got := s.Tensors[i].Shape(); !slices.Equal(got, want) {
			// Cloned so that the shapes of the passing case stay on the stack.
			return fmt.Errorf("nn: %s %v: %s has shape %v, config wants %v",
				s.Kind, s.Ints, kinds[s.Kind].tensors[i], got, slices.Clone(want))
		}
	}
	return nil
}

// reset empties s for a layer of the given kind, keeping its slices'
// capacity: the codecs reload one spec per layer instead of allocating one.
func (s *LayerSpec) reset(kind string) {
	*s = LayerSpec{Kind: kind, Ints: s.Ints[:0], Floats: s.Floats[:0], Tensors: s.Tensors[:0]}
}

// load resets s and fills it from l, and reports whether l is a layer of a
// kind in the table; when it is not, s carries only the kind. Assemble
// admits no other layer, so the codecs, which walk admitted networks, ignore
// the result.
func (s *LayerSpec) load(l Layer) bool {
	s.reset(l.Kind())
	row, ok := kinds[s.Kind]
	return ok && row.open(l, s)
}

// errForeign refuses a layer outside the kind table.
func errForeign(l Layer) error {
	return fmt.Errorf("nn: %T is not a layer of a known kind (%q)", l, l.Kind())
}

// SpecOf takes a layer apart. The spec shares the layer's tensors. For a
// layer outside the kind table it returns an error and a spec that carries
// only the kind.
func SpecOf(l Layer) (LayerSpec, error) {
	var s LayerSpec
	if !s.load(l) {
		return s, errForeign(l)
	}
	return s, nil
}

// NewLayer is the one shape-validating constructor behind every model
// decoder: it rejects an unknown kind, a wrong number of config values or
// tensors, config out of range, and any tensor whose shape disagrees with
// the config. The layer keeps the spec's tensors (it does not copy them)
// but none of its slices.
func NewLayer(s LayerSpec) (Layer, error) {
	row, ok := kinds[s.Kind]
	if !ok {
		return nil, fmt.Errorf("nn: unknown layer kind %q", s.Kind)
	}
	if len(s.Ints) != len(row.ints) || len(s.Floats) != len(row.floats) || len(s.Tensors) != len(row.tensors) {
		return nil, fmt.Errorf("nn: %s: takes %d ints, %d floats and %d tensors, got %d, %d and %d", s.Kind,
			len(row.ints), len(row.floats), len(row.tensors), len(s.Ints), len(s.Floats), len(s.Tensors))
	}
	for i, t := range s.Tensors {
		if t == nil {
			return nil, fmt.Errorf("nn: %s: tensor %q is missing", s.Kind, row.tensors[i])
		}
	}
	if err := row.check(s); err != nil {
		return nil, err
	}
	return row.build(s), nil
}

// AttrNames returns the exchange-document attribute names of a kind's
// config ints, config floats and state tensors, each in LayerSpec order.
// The slices are the table's own; callers must not modify them.
func AttrNames(kind string) (ints, floats, tensors []string, ok bool) {
	row, ok := kinds[kind]
	if !ok {
		return nil, nil, nil, false
	}
	return row.ints, row.floats, row.tensors, true
}
