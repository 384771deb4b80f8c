package fed

import (
	"encoding/binary"
	"fmt"
	"math"

	"tinymlops/internal/wire"
)

// Fixed-point aggregation substrate. Federated averaging in float32 is not
// associative: (a+b)+c differs from a+(b+c) in the last bits, so a
// two-tier topology that groups the same client updates differently —
// or a masked sum whose masks only cancel to rounding error — cannot be
// bit-identical to the flat reference. Aggregation therefore happens in
// int64 fixed point: each decoded update is quantized once at the client
// (Q44.20, far below the float32 resolution that survives a codec round
// trip), contributions are summed with wrapping integer addition (exactly
// associative and commutative), and the cloud converts back to float32
// once. Pairwise masks live in the same ring (uniform uint64 words added
// mod 2^64), so mask cancellation is exact, not approximate.

const (
	// fixedShift is the binary point: 20 fractional bits ≈ 1e-6
	// resolution, well under any useful learning-rate step.
	fixedShift = 20
	// fixedOne is 1.0 in fixed point.
	fixedOne = 1 << fixedShift
	// fixedMax clamps a single quantized coordinate to ±2^42 (±4.2e6 in
	// float units) so sample-weighted cohort sums stay far from int64
	// wraparound on any realistic fleet.
	fixedMax = int64(1) << 42
)

// weighFixed writes a client's sample-weighted fixed-point contribution
// samples·q(update) into dst, quantizing and weighting in one pass.
// Non-finite coordinates are defined away deterministically — NaN becomes
// 0, ±Inf saturates — so a poisoned update cannot make two aggregation
// orders disagree. Pre-scaling at the client is what lets a masked
// aggregator compute a weighted average without learning any individual
// weight.
func weighFixed(dst []int64, update []float32, samples int) {
	s := int64(samples)
	for k, v := range update {
		f := float64(v) * fixedOne
		var q int64
		switch {
		case math.IsNaN(f):
			// q stays 0
		case f >= float64(fixedMax):
			q = fixedMax
		case f <= -float64(fixedMax):
			q = -fixedMax
		default:
			q = int64(math.RoundToEven(f))
		}
		dst[k] = s * q
	}
}

// addInto accumulates src into dst with wrapping int64 addition.
func addInto(dst, src []int64) {
	for k, v := range src {
		dst[k] += v
	}
}

// applyFixed converts an aggregated fixed-point total back to float32
// weights: next = global + total/(totalSamples·2^shift). This is the one
// float conversion in the whole aggregation path, performed once by the
// cloud at any edge-tier width.
func applyFixed(globalFlat []float32, total []int64, totalSamples int64) []float32 {
	next := make([]float32, len(globalFlat))
	denom := float64(totalSamples) * fixedOne
	for j := range next {
		next[j] = globalFlat[j] + float32(float64(total[j])/denom)
	}
	return next
}

// encodePartial serializes one aggregator's cohort partial for the cloud
// uplink: varint sample count, varint dimension, then one zigzag varint
// per fixed-point coordinate. Varints are exact (no float re-rounding on
// the wire) and small for the near-zero coordinates that dominate a
// compressed update, which is where the hierarchical fan-in saving at the
// cloud tier comes from.
func encodePartial(samples int64, q []int64) []byte {
	buf := make([]byte, 0, 2*binary.MaxVarintLen64+len(q)*3)
	buf = binary.AppendVarint(buf, samples)
	buf = binary.AppendUvarint(buf, uint64(len(q)))
	for _, v := range q {
		buf = binary.AppendVarint(buf, v)
	}
	return buf
}

// decodePartial reverses encodePartial. The partial is an edge
// aggregator's uplink, not the cloud's own bytes: the declared dimension is
// checked against the payload (a coordinate is at least one byte) before
// anything is allocated for it.
func decodePartial(payload []byte) (samples int64, q []int64, err error) {
	r := wire.NewReader(payload)
	samples = r.Varint()
	q = make([]int64, r.UvarintCount(math.MaxInt32, 1))
	for k := range q {
		q[k] = r.Varint()
	}
	if err := r.Done(); err != nil {
		return 0, nil, fmt.Errorf("fed: decode partial: %w", err)
	}
	return samples, q, nil
}
