package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"tinymlops/internal/tensor"
	"tinymlops/internal/wire"
)

// netMagic identifies the network serialization format. The format is
// stable little-endian binary: magic, input shape, layer count, then per
// layer the kind string followed by what the kind table (kinds.go) lists
// for it — config ints, config floats, state tensors. It is the artifact
// format the model registry stores and hashes.
const netMagic = "TMLN1\n"

// MarshalBinary serializes the network (architecture, weights and, for
// batch norm, running statistics). The error, encoding.BinaryMarshaler's,
// is always nil: every layer of an admitted network is a kind of the table.
func (n *Network) MarshalBinary() ([]byte, error) {
	// One spec is reloaded per layer, twice over: first to size the buffer,
	// then to fill it.
	var s LayerSpec
	size := len(netMagic) + 8 + 4*len(n.InputShape)
	for _, l := range n.layers {
		s.load(l)
		size += 4 + len(s.Kind) + 4*(len(s.Ints)+len(s.Floats))
		for _, t := range s.Tensors {
			size += 16 + 4*(t.Rank()+t.Size()) // an upper bound on the TMLT1 header
		}
	}
	w := bytes.NewBuffer(make([]byte, 0, size))
	le := binary.LittleEndian
	b := append(w.AvailableBuffer(), netMagic...)
	b = le.AppendUint32(b, uint32(len(n.InputShape)))
	for _, d := range n.InputShape {
		b = le.AppendUint32(b, uint32(d))
	}
	w.Write(le.AppendUint32(b, uint32(len(n.layers))))
	for _, l := range n.layers {
		s.load(l)
		b = le.AppendUint32(w.AvailableBuffer(), uint32(len(s.Kind)))
		b = append(b, s.Kind...)
		for _, v := range s.Ints {
			b = le.AppendUint32(b, uint32(v))
		}
		for _, v := range s.Floats {
			b = le.AppendUint32(b, math.Float32bits(v))
		}
		w.Write(b)
		for _, t := range s.Tensors {
			t.WriteTo(w) //nolint:errcheck // bytes.Buffer writes cannot fail
		}
	}
	return w.Bytes(), nil
}

// UnmarshalNetwork parses a network serialized by MarshalBinary. Every
// layer is built by NewLayer, so an artifact whose declared config
// disagrees with its tensors is rejected here, and the network is made by
// Assemble, so one whose shapes do not chain is rejected here too: a network
// that decodes is a network that runs.
func UnmarshalNetwork(data []byte) (*Network, error) {
	r := wire.NewReader(data)
	r.Magic(netMagic)
	inShape := make([]int, r.Count(8, 4))
	for i := range inShape {
		inShape[i] = int(r.U32())
	}
	count := r.Count(4096, 4) // a layer is at least its kind's length prefix
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("nn: decode network header: %w", err)
	}
	layers := make([]Layer, count)
	var s LayerSpec // reused: NewLayer keeps none of its slices
	for i := range layers {
		l, err := decodeLayer(r, &s)
		if err != nil {
			return nil, fmt.Errorf("nn: decode layer %d: %w", i, err)
		}
		layers[i] = l
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("nn: decode network: %w", err)
	}
	return assemble(inShape, layers)
}

// decodeLayer reads one layer: its kind, then as many ints, floats and
// tensors as the kind table lists for it.
func decodeLayer(r *wire.Reader, s *LayerSpec) (Layer, error) {
	kind := r.String(1024)
	if err := r.Err(); err != nil {
		return nil, err
	}
	row, ok := kinds[kind]
	if !ok {
		return nil, fmt.Errorf("unknown layer kind %q", kind)
	}
	s.reset(row.kind)
	for range row.ints {
		s.Ints = append(s.Ints, int(r.U32()))
	}
	for range row.floats {
		s.Floats = append(s.Floats, r.F32())
	}
	for range row.tensors {
		t := new(tensor.Tensor)
		if _, err := t.ReadFrom(r); err != nil {
			return nil, err
		}
		s.Tensors = append(s.Tensors, t)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return NewLayer(*s)
}
