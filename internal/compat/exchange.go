package compat

import (
	"encoding/json"
	"fmt"

	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// The exchange format is this reproduction's ONNX/NNEF: a versioned,
// self-describing graph document that different "frameworks" (here: the
// nn engine and any external tool) can produce and consume. The paper
// notes these formats are young and incomplete — "not all operations are
// readily supported... not trivial to use them for more exotic models" —
// which the importer reproduces faithfully: unknown ops and newer format
// versions are hard errors, not best-effort guesses.

// ExchangeVersion is the current format version.
const ExchangeVersion = 1

// GraphDoc is the interchange document.
type GraphDoc struct {
	FormatVersion int    `json:"format_version"`
	Producer      string `json:"producer"`
	InputShape    []int  `json:"input_shape"`
	Nodes         []Node `json:"nodes"`
}

// Node is one operator instance with its attributes and weights.
type Node struct {
	Op string `json:"op"`
	// IntAttrs carries shape/hyper-parameters (in, out, kernel, stride...).
	IntAttrs map[string]int `json:"int_attrs,omitempty"`
	// FloatAttrs carries scalar attributes (eps, momentum, p).
	FloatAttrs map[string]float64 `json:"float_attrs,omitempty"`
	// Tensors carries named weight payloads as flat values plus shapes.
	Tensors map[string]TensorDoc `json:"tensors,omitempty"`
}

// TensorDoc is an embedded weight tensor.
type TensorDoc struct {
	Shape []int     `json:"shape"`
	Data  []float32 `json:"data"`
}

func tensorDoc(t *tensor.Tensor) TensorDoc {
	return TensorDoc{Shape: append([]int(nil), t.Shape()...), Data: append([]float32(nil), t.Data...)}
}

func (td TensorDoc) tensor() (*tensor.Tensor, error) {
	n := 1
	for _, d := range td.Shape {
		if d < 0 {
			return nil, fmt.Errorf("compat: negative dimension in %v", td.Shape)
		}
		n *= d
	}
	if n != len(td.Data) {
		return nil, fmt.Errorf("compat: tensor shape %v does not match %d values", td.Shape, len(td.Data))
	}
	return tensor.FromSlice(append([]float32(nil), td.Data...), td.Shape...), nil
}

// attrMap names vals with the kind table's attribute names; a kind without
// such attributes gets no map, so the field is omitted from the document.
func attrMap[V, D any](names []string, vals []V, doc func(V) D) map[string]D {
	if len(names) == 0 {
		return nil
	}
	m := make(map[string]D, len(names))
	for i, name := range names {
		m[name] = doc(vals[i])
	}
	return m
}

// Export converts a network to the exchange document. What each op carries,
// and under which attribute names, is read from nn's layer-kind table.
func Export(net *nn.Network) (*GraphDoc, error) {
	doc := &GraphDoc{
		FormatVersion: ExchangeVersion,
		Producer:      "tinymlops-nn",
		InputShape:    append([]int(nil), net.InputShape...),
	}
	for i, l := range net.Layers() {
		spec, err := nn.SpecOf(l)
		if err != nil {
			return nil, fmt.Errorf("compat: layer %d: op %q has no exchange mapping: %w", i, l.Kind(), err)
		}
		ints, floats, tensors, _ := nn.AttrNames(spec.Kind)
		doc.Nodes = append(doc.Nodes, Node{
			Op:         spec.Kind,
			IntAttrs:   attrMap(ints, spec.Ints, func(v int) int { return v }),
			FloatAttrs: attrMap(floats, spec.Floats, func(v float32) float64 { return float64(v) }),
			Tensors:    attrMap(tensors, spec.Tensors, tensorDoc),
		})
	}
	return doc, nil
}

// Import reconstructs a network from an exchange document. Unknown ops,
// future format versions and a graph whose shapes do not chain (nn.Assemble
// refuses it) are errors.
func Import(doc *GraphDoc) (*nn.Network, error) {
	if doc.FormatVersion > ExchangeVersion {
		return nil, fmt.Errorf("compat: document format v%d is newer than supported v%d", doc.FormatVersion, ExchangeVersion)
	}
	if doc.FormatVersion < 1 {
		return nil, fmt.Errorf("compat: invalid format version %d", doc.FormatVersion)
	}
	layers := make([]nn.Layer, len(doc.Nodes))
	for i, node := range doc.Nodes {
		l, err := importNode(node)
		if err != nil {
			return nil, fmt.Errorf("compat: node %d: %w", i, err)
		}
		layers[i] = l
	}
	net, err := nn.Assemble(doc.InputShape, layers)
	if err != nil {
		return nil, fmt.Errorf("compat: imported graph: %w", err)
	}
	return net, nil
}

// optionalFloats are the float attributes exchange v1 lets a producer
// omit, with the value an absent one takes; any other absent attribute
// reads as zero and is left to the layer constructor to reject.
var optionalFloats = map[string]float32{"eps": 1e-5, "momentum": 0.1}

// importNode gathers the attributes nn's layer-kind table lists for the op
// and hands them to nn.NewLayer, the constructor behind the binary decoder
// too: both reject a config that disagrees with a tensor's shape the same
// way.
func importNode(node Node) (nn.Layer, error) {
	ints, floats, tensors, ok := nn.AttrNames(node.Op)
	if !ok {
		return nil, fmt.Errorf("op %q is not supported by exchange format v%d", node.Op, ExchangeVersion)
	}
	spec := nn.LayerSpec{Kind: node.Op}
	for _, name := range ints {
		spec.Ints = append(spec.Ints, node.IntAttrs[name])
	}
	for _, name := range floats {
		f := optionalFloats[name]
		if v, ok := node.FloatAttrs[name]; ok {
			f = float32(v)
		}
		spec.Floats = append(spec.Floats, f)
	}
	for _, name := range tensors {
		td, ok := node.Tensors[name]
		if !ok {
			spec.Tensors = append(spec.Tensors, nil) // NewLayer names the missing tensor
			continue
		}
		t, err := td.tensor()
		if err != nil {
			return nil, err
		}
		spec.Tensors = append(spec.Tensors, t)
	}
	return nn.NewLayer(spec)
}

// MarshalJSON / UnmarshalGraph are the on-the-wire forms.

// EncodeJSON serializes the document.
func (d *GraphDoc) EncodeJSON() ([]byte, error) {
	return json.Marshal(d)
}

// DecodeJSON parses a document.
func DecodeJSON(data []byte) (*GraphDoc, error) {
	var d GraphDoc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("compat: parse exchange document: %w", err)
	}
	return &d, nil
}
