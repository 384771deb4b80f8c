// Package quant implements the model-optimization pipeline of §III-A of the
// TinyMLOps paper: post-training quantization at 8/4/2(ternary)/1(binary)
// bits, an int8 inference engine and magnitude pruning. The registry uses it
// to derive per-device variants from a base model; experiment E2 sweeps its
// schemes.
package quant

import (
	"fmt"
	"math"

	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// Scheme selects a weight precision.
type Scheme int

// Supported quantization schemes, from full precision down to binary.
const (
	Float32 Scheme = iota
	Int8
	Int4
	Ternary // 2-bit {-1, 0, +1} with a learned scale (TWN-style)
	Binary  // 1-bit {-1, +1} with a mean-magnitude scale (BWN-style)
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case Float32:
		return "float32"
	case Int8:
		return "int8"
	case Int4:
		return "int4"
	case Ternary:
		return "ternary"
	case Binary:
		return "binary"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// Bits returns the storage width in bits per weight.
func (s Scheme) Bits() int {
	switch s {
	case Float32:
		return 32
	case Int8:
		return 8
	case Int4:
		return 4
	case Ternary:
		return 2
	case Binary:
		return 1
	default:
		return 32
	}
}

// QTensor is a quantized weight matrix with per-output-channel symmetric
// scales: w ≈ Data[k,j] * Scales[j].
type QTensor struct {
	Rows, Cols int
	// Data holds the quantized integer codes row-major, one int8 per code.
	// For sub-int8 schemes the codes occupy the low bits of each int8; size
	// accounting always uses the scheme's nominal width. Data is nil once
	// the tensor is in its kernel form, Wide.
	Data []int8
	// Wide is the dense serving form of every integer scheme, int8 and int4
	// alike: the codes widened to int16 and interleaved along rows
	// (tensor.InterleaveK layout), the operand tensor.MatMulInterleaved
	// reads; NewQModel converts to it. Exactly one of Data and Wide is
	// non-nil. Wide spends 16 bits of RAM per code whatever the scheme:
	// kws-mlp's three dense layers hold 100,864 bytes, against 50,432 as
	// int8 codes and 25,216 packed as int4 (sensor-mlp 224, 112 and 64),
	// the price of one kernel that runs four columns' pair products per
	// instruction. NetworkSizeBytes still counts the nominal width.
	Wide   []int16
	Scales []float32 // length Cols (per output channel)
}

// maxCode returns the largest magnitude representable by the scheme.
func maxCode(s Scheme) float32 {
	switch s {
	case Int8:
		return 127
	case Int4:
		return 7
	default:
		return 1
	}
}

// roundCode rounds a scaled weight half away from zero and saturates it at
// ±mc; NaN quantizes to zero. Inside the clamp |x| < 128 and x carries a
// float32's 24 significant bits, so x ± 0.5 is exact in float64 and the
// truncating conversion is math.Round without its bit manipulation. The
// sign of a weight is a coin flip, so it is copied, not branched on.
func roundCode(x, mc float32) int8 {
	switch {
	case x != x:
		return 0
	case x >= mc:
		return int8(mc)
	case x <= -mc:
		return -int8(mc)
	}
	f := float64(x)
	return int8(int32(f + math.Copysign(0.5, f)))
}

// QuantizeMatrix quantizes a [rows, cols] float32 matrix with
// per-output-channel (column) scales under the given scheme.
func QuantizeMatrix(w *tensor.Tensor, scheme Scheme) (*QTensor, error) {
	if w.Rank() != 2 {
		return nil, fmt.Errorf("quant: QuantizeMatrix needs 2D tensor, got %v", w.Shape())
	}
	if scheme == Float32 {
		return nil, fmt.Errorf("quant: QuantizeMatrix called with float32 scheme")
	}
	rows, cols := w.Dim(0), w.Dim(1)
	q := &QTensor{Rows: rows, Cols: cols, Data: make([]int8, rows*cols),
		Scales: make([]float32, cols)}
	switch scheme {
	case Int8, Int4:
		// The matrix is row-major, so both sweeps walk w.Data in storage
		// order: the first folds each column's largest magnitude into
		// q.Scales, the second writes the codes.
		mc := maxCode(scheme)
		scales := q.Scales
		for i := 0; i < rows; i++ {
			for j, v := range w.Data[i*cols : (i+1)*cols] {
				// |v| by clearing the sign bit: branching on a weight's sign
				// mispredicts every other element.
				v = math.Float32frombits(math.Float32bits(v) &^ (1 << 31))
				if v > scales[j] { // NaN compares false: ignored for the scale
					scales[j] = v
				}
			}
		}
		for j, absMax := range scales {
			scale := absMax / mc
			// All-zero columns and non-finite magnitudes fall back to
			// scale 1: codes stay deterministic (zeros, or saturated ±mc).
			if !(scale > 0) || math.IsInf(float64(scale), 0) {
				scale = 1
			}
			scales[j] = scale
		}
		for i := 0; i < rows; i++ {
			codes := q.Data[i*cols : (i+1)*cols]
			for j, v := range w.Data[i*cols : (i+1)*cols] {
				codes[j] = roundCode(v/scales[j], mc)
			}
		}
	case Ternary:
		// TWN: threshold Δ = 0.7·mean(|w|) per channel; scale = mean |w|
		// over entries above the threshold.
		for j := 0; j < cols; j++ {
			var meanAbs float64
			for i := 0; i < rows; i++ {
				meanAbs += math.Abs(float64(w.At2(i, j)))
			}
			meanAbs /= float64(rows)
			delta := 0.7 * meanAbs
			var sum float64
			var count int
			for i := 0; i < rows; i++ {
				v := float64(w.At2(i, j))
				if math.Abs(v) > delta {
					sum += math.Abs(v)
					count++
				}
			}
			scale := 1.0
			if count > 0 {
				scale = sum / float64(count)
			}
			q.Scales[j] = float32(scale)
			for i := 0; i < rows; i++ {
				v := float64(w.At2(i, j))
				switch {
				case v > delta:
					q.Data[i*cols+j] = 1
				case v < -delta:
					q.Data[i*cols+j] = -1
				default:
					q.Data[i*cols+j] = 0
				}
			}
		}
	case Binary:
		// BWN: w ≈ sign(w)·mean(|w|) per channel.
		for j := 0; j < cols; j++ {
			var meanAbs float64
			for i := 0; i < rows; i++ {
				meanAbs += math.Abs(float64(w.At2(i, j)))
			}
			meanAbs /= float64(rows)
			if meanAbs == 0 {
				meanAbs = 1
			}
			q.Scales[j] = float32(meanAbs)
			for i := 0; i < rows; i++ {
				if w.At2(i, j) >= 0 {
					q.Data[i*cols+j] = 1
				} else {
					q.Data[i*cols+j] = -1
				}
			}
		}
	default:
		return nil, fmt.Errorf("quant: unsupported scheme %v", scheme)
	}
	return q, nil
}

// Dequantize reconstructs the float32 approximation of the matrix from
// its codes, Data.
func (q *QTensor) Dequantize() *tensor.Tensor {
	out := tensor.New(q.Rows, q.Cols)
	for i := 0; i < q.Rows; i++ {
		for j := 0; j < q.Cols; j++ {
			out.Set2(i, j, float32(q.Data[i*q.Cols+j])*q.Scales[j])
		}
	}
	return out
}

// FakeQuantizeNetwork returns a deep copy of net whose weight matrices —
// every parameter nn's kind table names "weight", the same ones
// NetworkSizeBytes counts at the scheme's width — are replaced by their
// quantize-dequantize approximation under the scheme, per output channel as
// NewQModel quantizes them (biases stay float32, the standard practice).
// The copy runs on the float engine, which makes it ideal for accuracy
// evaluation of low-bit variants; use NewQModel for integer-kernel
// execution.
func FakeQuantizeNetwork(net *nn.Network, scheme Scheme) (*nn.Network, error) {
	clone := net.Clone()
	if scheme == Float32 {
		return clone, nil
	}
	for _, l := range clone.Layers() {
		w, q, transposed, err := quantizeWeight(l, scheme)
		if err != nil {
			return nil, err
		}
		switch {
		case transposed:
			copy(w.Data, transpose(q.Dequantize().Data, q.Rows, q.Cols))
		case w != nil:
			w.CopyFrom(q.Dequantize())
		}
	}
	return clone, nil
}

// NetworkSizeBytes returns the serialized weight footprint of net if its
// weight matrices were stored at the scheme's bit width with a scale per
// output channel, the first dimension of the layer's output (biases at
// float32).
func NetworkSizeBytes(net *nn.Network, scheme Scheme) int {
	costs, _ := net.Summary()
	total := 0
	for i, l := range net.Layers() {
		for _, p := range l.Params() {
			if p.Name == "weight" && scheme != Float32 {
				total += (p.Value.Size()*scheme.Bits()+7)/8 + 4*costs[i].Info.OutShape[0]
			} else {
				total += 4 * p.Value.Size()
			}
		}
	}
	return total
}
