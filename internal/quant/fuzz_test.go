package quant

import (
	"encoding/binary"
	"math"
	"testing"

	"tinymlops/internal/tensor"
)

// floatsFrom reinterprets the fuzz input as raw IEEE-754 bit patterns:
// every pattern — NaNs, infinities, signed zeros, denormals — is a legal
// activation or weight.
func floatsFrom(raw []byte) []float32 {
	out := make([]float32, 0, len(raw)/4)
	for i := 0; i+4 <= len(raw); i += 4 {
		out = append(out, math.Float32frombits(binary.LittleEndian.Uint32(raw[i:i+4])))
	}
	return out
}

// FuzzQuantizeActivations feeds arbitrary bit patterns to the dynamic
// activation quantizer and checks its serving-path contract: codes stay
// in the symmetric int8 range, scales stay positive and finite, NaN maps
// to the zero code, rounding error is bounded by half a step, and — the
// property the batched admission path rests on — quantizing a batch row
// by row is bit-identical to quantizing each row alone.
func FuzzQuantizeActivations(f *testing.F) {
	nan := math.Float32bits(float32(math.NaN()))
	negZero := math.Float32bits(float32(math.Copysign(0, -1)))
	inf := math.Float32bits(float32(math.Inf(1)))
	seed := func(vals ...uint32) []byte {
		out := make([]byte, 0, 4*len(vals))
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint32(out, v)
		}
		return out
	}
	f.Add(seed(0x3f800000, 0xbf800000, 0x3f000000, 0x3f800000), uint8(2)) // ±1, 0.5
	f.Add(seed(nan, negZero, inf, 0x00000001), uint8(1))                  // NaN, -0, +Inf, denormal
	f.Add(seed(0, 0, 0, 0, 0, 0), uint8(3))                               // all-zero rows
	f.Add([]byte{}, uint8(0))

	f.Fuzz(func(t *testing.T, raw []byte, rowsByte uint8) {
		vals := floatsFrom(raw)
		if len(vals) == 0 {
			vals = []float32{0}
		}
		rows := int(rowsByte%8) + 1
		if rows > len(vals) {
			rows = 1
		}
		k := len(vals) / rows
		vals = vals[:rows*k]
		x := tensor.FromSlice(vals, rows, k)
		codes := make([]int8, rows*k)
		scales := make([]float32, rows)
		QuantizeActivationsRows(x, codes, scales)

		for r := 0; r < rows; r++ {
			s := scales[r]
			if !(s > 0) || math.IsInf(float64(s), 0) || s != s {
				t.Fatalf("row %d: scale %v not positive finite", r, s)
			}
			inv := 1 / s
			for i := 0; i < k; i++ {
				v := vals[r*k+i]
				c := codes[r*k+i]
				if c < -127 || c > 127 {
					t.Fatalf("code %d outside symmetric range", c)
				}
				if v != v && c != 0 {
					t.Fatalf("NaN quantized to %d, want 0", c)
				}
				if scaled := v * inv; scaled == scaled && scaled >= -127 && scaled <= 127 {
					if diff := math.Abs(float64(c) - float64(scaled)); diff > 0.5 {
						t.Fatalf("row %d elem %d: code %d for %v (scaled %v), error %v > 0.5", r, i, c, v, scaled, diff)
					}
				}
			}
			// Row independence: a row quantized alone must reproduce the
			// batch result bit for bit.
			alone := tensor.FromSlice(vals[r*k:(r+1)*k], 1, k)
			aCodes := make([]int8, k)
			aScale := make([]float32, 1)
			QuantizeActivationsRows(alone, aCodes, aScale)
			if math.Float32bits(aScale[0]) != math.Float32bits(s) {
				t.Fatalf("row %d: solo scale %v != batch scale %v", r, aScale[0], s)
			}
			for i := range aCodes {
				if aCodes[i] != codes[r*k+i] {
					t.Fatalf("row %d elem %d: solo code %d != batch code %d", r, i, aCodes[i], codes[r*k+i])
				}
			}
		}
		// The per-tensor quantizer is the one-row special case.
		if rows == 1 {
			tCodes, tScale := QuantizeActivations(x)
			if math.Float32bits(tScale) != math.Float32bits(scales[0]) {
				t.Fatalf("per-tensor scale %v != per-row scale %v", tScale, scales[0])
			}
			for i := range tCodes {
				if tCodes[i] != codes[i] {
					t.Fatalf("per-tensor code %d != per-row code %d at %d", tCodes[i], codes[i], i)
				}
			}
		}
	})
}

// FuzzQTensorRoundTrip feeds arbitrary bit-pattern weight matrices to
// QuantizeMatrix under every scheme: codes must stay inside the scheme's
// range (binary never zero) with positive finite scales, and — the
// property integer serving rests on, since deployments re-quantize the
// fake-quantized registry artifact — for finite inputs a
// dequantize→requantize round trip must reproduce the int8/int4 codes
// exactly.
func FuzzQTensorRoundTrip(f *testing.F) {
	nan := math.Float32bits(float32(math.NaN()))
	negZero := math.Float32bits(float32(math.Copysign(0, -1)))
	inf := math.Float32bits(float32(math.Inf(-1)))
	seed := func(vals ...uint32) []byte {
		out := make([]byte, 0, 4*len(vals))
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint32(out, v)
		}
		return out
	}
	f.Add(seed(0x3f800000, 0xbf800000, 0x3e99999a, 0x40490fdb), uint8(2), uint8(2), uint8(0))
	f.Add(seed(nan, negZero, inf, 0x7f7fffff), uint8(2), uint8(2), uint8(1))
	f.Add(seed(0, 0, 0, 0), uint8(4), uint8(1), uint8(3))
	f.Add([]byte{1, 2, 3}, uint8(0), uint8(0), uint8(2))

	schemes := []Scheme{Int8, Int4, Ternary, Binary}
	f.Fuzz(func(t *testing.T, raw []byte, rowsByte, colsByte, schemeByte uint8) {
		rows := int(rowsByte%8) + 1
		cols := int(colsByte%8) + 1
		scheme := schemes[int(schemeByte)%len(schemes)]
		vals := floatsFrom(raw)
		w := tensor.New(rows, cols)
		finite := true
		for i := range w.Data {
			if len(vals) > 0 {
				w.Data[i] = vals[i%len(vals)]
			}
			if f64 := float64(w.Data[i]); math.IsNaN(f64) || math.IsInf(f64, 0) {
				finite = false
			}
		}
		q, err := QuantizeMatrix(w, scheme)
		if err != nil {
			t.Fatalf("QuantizeMatrix(%v): %v", scheme, err)
		}
		mc := int8(maxCode(scheme))
		for i, c := range q.Data {
			if c > mc || c < -mc {
				t.Fatalf("%v code %d at %d outside ±%d", scheme, c, i, mc)
			}
			if scheme == Binary && c == 0 {
				t.Fatal("binary scheme produced a zero code")
			}
		}
		if !finite || (scheme != Int8 && scheme != Int4) {
			return
		}
		for j, s := range q.Scales {
			if !(s > 0) || math.IsInf(float64(s), 0) {
				t.Fatalf("column %d: scale %v not positive finite", j, s)
			}
		}
		// Requantizing the dequantized matrix reproduces the codes and the
		// scales bit for bit: this is why a QModel built from the fake-quantized registry artifact
		// carries the artifact's exact integer weights. The property holds
		// for scales inside the normal float32 range with headroom: a
		// denormal scale loses mantissa bits in the division, and a scale
		// within 127× of overflow can dequantize to ±Inf — no physical
		// weight lives at either extreme, so both ends are exempt.
		again, err := QuantizeMatrix(q.Dequantize(), scheme)
		if err != nil {
			t.Fatal(err)
		}
		const minNormal = 1.1754944e-38
		const maxSafe = math.MaxFloat32 / 128
		safe := func(s float32) bool { return s >= minNormal && s <= maxSafe }
		for i, c := range q.Data {
			if !safe(q.Scales[i%cols]) {
				continue
			}
			if again.Data[i] != c {
				t.Fatalf("code %d changed across dequantize→requantize: %d -> %d", i, c, again.Data[i])
			}
		}
		for j, s := range q.Scales {
			if !safe(s) {
				continue
			}
			if math.Float32bits(again.Scales[j]) != math.Float32bits(s) {
				t.Fatalf("scale %d changed across dequantize→requantize: %v -> %v", j, s, again.Scales[j])
			}
		}
	})
}
