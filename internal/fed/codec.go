package fed

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Codec compresses model updates for the uplink. Encode must produce the
// actual wire bytes so experiments measure real communication cost;
// Decode reconstructs the (lossy) update.
type Codec interface {
	// Name identifies the codec in experiment tables.
	Name() string
	// Encode compresses an update vector.
	Encode(update []float32) ([]byte, error)
	// Decode reconstructs an update of length n from payload.
	Decode(payload []byte, n int) ([]float32, error)
}

// NoneCodec ships raw float32 — the 4-bytes-per-parameter baseline.
type NoneCodec struct{}

// Name implements Codec.
func (NoneCodec) Name() string { return "none" }

// Encode implements Codec.
func (NoneCodec) Encode(update []float32) ([]byte, error) {
	out := make([]byte, 4*len(update))
	for i, v := range update {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out, nil
}

// Decode implements Codec.
func (NoneCodec) Decode(payload []byte, n int) ([]float32, error) {
	if len(payload) != 4*n {
		return nil, fmt.Errorf("fed: none codec payload %dB for %d params", len(payload), n)
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
	}
	return out, nil
}

// Int8Codec quantizes the update to int8 with one global symmetric scale —
// 4× smaller than raw with minimal convergence impact.
type Int8Codec struct{}

// Name implements Codec.
func (Int8Codec) Name() string { return "int8" }

// Encode implements Codec.
func (Int8Codec) Encode(update []float32) ([]byte, error) {
	var absMax float32
	for _, v := range update {
		if v < 0 {
			v = -v
		}
		if v > absMax {
			absMax = v
		}
	}
	scale := absMax / 127
	if scale == 0 {
		scale = 1
	}
	out := make([]byte, 4+len(update))
	binary.LittleEndian.PutUint32(out, math.Float32bits(scale))
	for i, v := range update {
		c := v / scale
		if c > 127 {
			c = 127
		} else if c < -127 {
			c = -127
		}
		if c >= 0 {
			out[4+i] = byte(int8(c + 0.5))
		} else {
			out[4+i] = byte(int8(c - 0.5))
		}
	}
	return out, nil
}

// Decode implements Codec.
func (Int8Codec) Decode(payload []byte, n int) ([]float32, error) {
	if len(payload) != 4+n {
		return nil, fmt.Errorf("fed: int8 codec payload %dB for %d params", len(payload), n)
	}
	scale := math.Float32frombits(binary.LittleEndian.Uint32(payload))
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(int8(payload[4+i])) * scale
	}
	return out, nil
}

// TernaryCodec is TernGrad-style compression: each coordinate becomes
// {-1, 0, +1} packed two bits each, scaled by the mean magnitude of the
// non-zero coordinates — a 16× reduction. A coordinate whose magnitude is
// at most ternaryThreshold × mean |update| drops to zero.
type TernaryCodec struct{}

// ternaryThreshold is TernaryCodec's zero band, in units of mean |update|.
const ternaryThreshold = 0.5

// Name implements Codec.
func (TernaryCodec) Name() string { return "ternary" }

// Encode implements Codec.
func (TernaryCodec) Encode(update []float32) ([]byte, error) {
	var meanAbs float64
	for _, v := range update {
		meanAbs += math.Abs(float64(v))
	}
	if len(update) > 0 {
		meanAbs /= float64(len(update))
	}
	cut := float32(meanAbs) * ternaryThreshold
	var scaleSum float64
	var scaleN int
	codes := make([]int8, len(update))
	for i, v := range update {
		switch {
		case v > cut:
			codes[i] = 1
			scaleSum += float64(v)
			scaleN++
		case v < -cut:
			codes[i] = -1
			scaleSum += -float64(v)
			scaleN++
		}
	}
	scale := float32(1)
	if scaleN > 0 {
		scale = float32(scaleSum / float64(scaleN))
	}
	var buf bytes.Buffer
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], math.Float32bits(scale))
	buf.Write(tmp[:])
	// Pack 4 ternary codes per byte: 00=0, 01=+1, 10=-1.
	for i := 0; i < len(codes); i += 4 {
		var b byte
		for j := 0; j < 4 && i+j < len(codes); j++ {
			var bits byte
			switch codes[i+j] {
			case 1:
				bits = 1
			case -1:
				bits = 2
			}
			b |= bits << (2 * j)
		}
		buf.WriteByte(b)
	}
	return buf.Bytes(), nil
}

// Decode implements Codec.
func (TernaryCodec) Decode(payload []byte, n int) ([]float32, error) {
	want := 4 + (n+3)/4
	if len(payload) != want {
		return nil, fmt.Errorf("fed: ternary codec payload %dB, want %d for %d params", len(payload), want, n)
	}
	scale := math.Float32frombits(binary.LittleEndian.Uint32(payload))
	out := make([]float32, n)
	for i := range out {
		b := payload[4+i/4]
		bits := (b >> (2 * (i % 4))) & 3
		switch bits {
		case 1:
			out[i] = scale
		case 2:
			out[i] = -scale
		}
	}
	return out, nil
}

// TopKCodec keeps only the Ratio·n largest-magnitude coordinates as
// (index, value) pairs — gradient sparsification.
type TopKCodec struct {
	// Ratio in (0,1] of coordinates to keep.
	Ratio float64
}

// Name implements Codec.
func (c TopKCodec) Name() string { return fmt.Sprintf("topk(%.2g)", c.Ratio) }

// Encode implements Codec.
func (c TopKCodec) Encode(update []float32) ([]byte, error) {
	if c.Ratio <= 0 || c.Ratio > 1 {
		return nil, fmt.Errorf("fed: topk ratio %v out of (0,1]", c.Ratio)
	}
	k := int(math.Ceil(c.Ratio * float64(len(update))))
	if k > len(update) {
		k = len(update)
	}
	idx := make([]int, len(update))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		va, vb := update[idx[a]], update[idx[b]]
		if va < 0 {
			va = -va
		}
		if vb < 0 {
			vb = -vb
		}
		return va > vb
	})
	kept := idx[:k]
	sort.Ints(kept)
	out := make([]byte, 4+8*k)
	binary.LittleEndian.PutUint32(out, uint32(k))
	for i, j := range kept {
		binary.LittleEndian.PutUint32(out[4+8*i:], uint32(j))
		binary.LittleEndian.PutUint32(out[8+8*i:], math.Float32bits(update[j]))
	}
	return out, nil
}

// Decode implements Codec.
func (c TopKCodec) Decode(payload []byte, n int) ([]float32, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("fed: topk payload too short")
	}
	k := int(binary.LittleEndian.Uint32(payload))
	if len(payload) != 4+8*k {
		return nil, fmt.Errorf("fed: topk payload %dB for k=%d", len(payload), k)
	}
	out := make([]float32, n)
	for i := 0; i < k; i++ {
		j := int(binary.LittleEndian.Uint32(payload[4+8*i:]))
		if j >= n {
			return nil, fmt.Errorf("fed: topk index %d out of range %d", j, n)
		}
		out[j] = math.Float32frombits(binary.LittleEndian.Uint32(payload[8+8*i:]))
	}
	return out, nil
}
