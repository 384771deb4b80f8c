package nn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"tinymlops/internal/tensor"
)

// netMagic identifies the network serialization format. The format is
// stable little-endian binary: magic, input shape, layer count, then per
// layer the kind string followed by what the kind table (kinds.go) lists
// for it — config ints, config floats, state tensors. It is the artifact
// format the model registry stores and hashes.
const netMagic = "TMLN1\n"

// MarshalBinary serializes the network (architecture, weights and, for
// batch norm, running statistics).
func (n *Network) MarshalBinary() ([]byte, error) {
	// One spec is reloaded per layer, twice over: first to size the buffer,
	// then to fill it.
	var s LayerSpec
	size := len(netMagic) + 8 + 4*len(n.InputShape)
	for i, l := range n.layers {
		if err := s.load(l); err != nil {
			return nil, fmt.Errorf("nn: encode layer %d: %w", i, err)
		}
		size += 4 + len(s.Kind) + 4*(len(s.Ints)+len(s.Floats))
		for _, t := range s.Tensors {
			size += 16 + 4*(t.Rank()+t.Size()) // an upper bound on the TMLT1 header
		}
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	buf.WriteString(netMagic)
	writeU32(buf, uint32(len(n.InputShape)))
	for _, d := range n.InputShape {
		writeU32(buf, uint32(d))
	}
	writeU32(buf, uint32(len(n.layers)))
	for _, l := range n.layers {
		s.load(l) //nolint:errcheck // loaded without error above
		writeString(buf, s.Kind)
		for _, v := range s.Ints {
			writeU32(buf, uint32(v))
		}
		for _, v := range s.Floats {
			writeF32(buf, v)
		}
		for _, t := range s.Tensors {
			t.WriteTo(buf) //nolint:errcheck // bytes.Buffer writes cannot fail
		}
	}
	return buf.Bytes(), nil
}

// UnmarshalNetwork parses a network serialized by MarshalBinary. Every
// layer is built by NewLayer, so an artifact whose declared config
// disagrees with its tensors is rejected here, not in a serving kernel.
func UnmarshalNetwork(data []byte) (*Network, error) {
	if !bytes.HasPrefix(data, []byte(netMagic)) {
		return nil, errors.New("nn: not a TMLN1 model stream")
	}
	r := bytes.NewReader(data[len(netMagic):])
	rank, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if rank == 0 || rank > 8 {
		return nil, fmt.Errorf("nn: implausible input rank %d", rank)
	}
	inShape := make([]int, rank)
	for i := range inShape {
		d, err := readU32(r)
		if err != nil {
			return nil, err
		}
		inShape[i] = int(d)
	}
	count, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if count > 4096 {
		return nil, fmt.Errorf("nn: implausible layer count %d", count)
	}
	net := &Network{InputShape: inShape}
	var s LayerSpec // reused: NewLayer keeps none of its slices
	for i := uint32(0); i < count; i++ {
		l, err := decodeLayer(r, &s)
		if err != nil {
			return nil, fmt.Errorf("nn: decode layer %d: %w", i, err)
		}
		net.Add(l)
	}
	return net, nil
}

// decodeLayer reads one layer: its kind, then as many ints, floats and
// tensors as the kind table lists for it.
func decodeLayer(r *bytes.Reader, s *LayerSpec) (Layer, error) {
	kind, err := readString(r, 1024)
	if err != nil {
		return nil, err
	}
	row, ok := kinds[kind]
	if !ok {
		return nil, fmt.Errorf("unknown layer kind %q", kind)
	}
	s.reset(row.kind)
	for range row.ints {
		v, err := readU32(r)
		if err != nil {
			return nil, err
		}
		s.Ints = append(s.Ints, int(v))
	}
	for range row.floats {
		v, err := readU32(r)
		if err != nil {
			return nil, err
		}
		s.Floats = append(s.Floats, math.Float32frombits(v))
	}
	for range row.tensors {
		t := new(tensor.Tensor)
		if _, err := t.ReadFrom(r); err != nil {
			return nil, err
		}
		s.Tensors = append(s.Tensors, t)
	}
	return NewLayer(*s)
}

func writeU32(w *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

func readU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, fmt.Errorf("nn: read u32: %w", err)
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func writeF32(w *bytes.Buffer, v float32) { writeU32(w, math.Float32bits(v)) }

func writeString(w *bytes.Buffer, s string) {
	writeU32(w, uint32(len(s)))
	w.WriteString(s)
}

// readString reads a length-prefixed string of at most limit bytes.
func readString(r io.Reader, limit uint32) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > limit {
		return "", fmt.Errorf("nn: implausible string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", fmt.Errorf("nn: read string: %w", err)
	}
	return string(b), nil
}
