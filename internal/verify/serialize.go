package verify

import (
	"encoding/binary"
	"fmt"
	"math"

	"tinymlops/internal/wire"
)

// Proof wire format: three uint32 padded dimensions M, K, N, each a power
// of two, then log₂K rounds of three uint64 field elements, each below p —
// exactly SizeBytes() bytes. Attestations carry proofs in this form so
// metering never depends on this package's internals. The decoder accepts
// only what MarshalBinary emits, so a proof has one encoding.

// MarshalBinary serializes the proof. A proof the format cannot carry is
// an error.
func (p *Proof) MarshalBinary() ([]byte, error) {
	if err := p.check(); err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	b := make([]byte, 0, p.SizeBytes())
	b = le.AppendUint32(b, uint32(p.M))
	b = le.AppendUint32(b, uint32(p.K))
	b = le.AppendUint32(b, uint32(p.N))
	for _, g := range p.Rounds {
		for _, e := range g {
			b = le.AppendUint64(b, uint64(e))
		}
	}
	return b, nil
}

// UnmarshalBinary parses a proof produced by MarshalBinary on the strict
// wire cursor. A blob cut short or followed by more bytes, dimensions that
// are not powers of two, or a field element at or above p is an error, so
// any byte string yields either an error or a structurally valid (not
// necessarily verifying) proof that encodes back to it.
func (p *Proof) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	q := Proof{M: int(r.U32()), K: int(r.U32()), N: int(r.U32())}
	// log₂ of a uint32 is at most 32 rounds, whatever the blob holds.
	q.Rounds = make([]RoundPoly, log2(q.K))
	for i := range q.Rounds {
		for j := range q.Rounds[i] {
			q.Rounds[i][j] = Elem(r.U64())
		}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("verify: proof blob: %w", err)
	}
	if err := q.check(); err != nil {
		return err
	}
	*p = q
	return nil
}

// check reports why the wire format cannot carry p: a dimension that is
// not a power of two below 2³², other than log₂K rounds, or an element
// out of the field's canonical range.
func (p *Proof) check() error {
	for _, d := range [3]int{p.M, p.K, p.N} {
		if d < 1 || d&(d-1) != 0 || int64(d) > math.MaxUint32 {
			return fmt.Errorf("verify: proof dims %dx%dx%d are not powers of two", p.M, p.K, p.N)
		}
	}
	if len(p.Rounds) != log2(p.K) {
		return fmt.Errorf("verify: proof has %d rounds, K = %d needs %d", len(p.Rounds), p.K, log2(p.K))
	}
	for i, g := range p.Rounds {
		for j, e := range g {
			if uint64(e) >= P {
				return fmt.Errorf("verify: proof round %d element %d is %d, not below p", i, j, e)
			}
		}
	}
	return nil
}
