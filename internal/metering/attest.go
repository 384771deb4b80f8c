package metering

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tinymlops/internal/engine"
)

// Verifiable billing (§III-C + §VI): the usage hash chain proves *how
// many* queries a device charged, but not that the charges correspond to
// real inference. Attestations close that gap. A deterministic sample of
// the charges in a settlement report — selected by a seed derived from
// the report's terminal chain head, so a device cannot know in advance
// which charges will be audited, and cannot append a charge without
// re-randomizing the whole sample — each carry a sum-check proof of the
// deployment's integer dense layer, bound to the (voucher, model
// version, sequence, chain entry) it attests. The vendor verifies the
// sample during settlement; forging a valid proof costs at least as much
// as serving the query, so inflating tick counts stops paying.
//
// This package stays proof-system-agnostic: an Attestation carries
// opaque proof bytes and the Settler delegates checking to an injected
// AttestationVerifier (core wires it to verify.BatchVerifier).

// Attestation is the device's verifiable claim for one sampled charge.
type Attestation struct {
	// Seq is the charge sequence this attests (must be sampled).
	Seq uint64
	// ModelID names the model version the proof was produced against —
	// bound into the proof context, so relabeling is detected even when
	// two versions share the proved layer's weights.
	ModelID string
	// Input is the claimed quantized input row. The vendor never sees the
	// real query (it stays on-device); soundness is economic — producing
	// a valid proof for *any* input costs a real inference.
	Input []int8
	// Claimed is the claimed integer accumulator row for the proved layer.
	Claimed []int64
	// Proof is the serialized sum-check proof, bound to
	// AttestationContext(voucher, ModelID, Seq, entry hash).
	Proof []byte
}

// AttestedReport is a settlement report plus the proof sample. It embeds
// Report, and it is what the settlement frame carries: a plain Report
// travels as an AttestedReport with no attestations.
type AttestedReport struct {
	Report
	Attestations []Attestation
}

// AttestationContext derives the transcript context a proof for one
// charge is bound to. Both sides compute it independently; any
// disagreement (replayed entry, relabeled model version, transplanted
// voucher) makes verification fail.
func AttestationContext(voucherID, modelID string, seq uint64, entryHash [32]byte) []byte {
	buf := make([]byte, 0, len("tinymlops/attest|")+len(voucherID)+len(modelID)+2+8+32)
	buf = append(buf, "tinymlops/attest|"...)
	buf = append(buf, voucherID...)
	buf = append(buf, '|')
	buf = append(buf, modelID...)
	buf = append(buf, '|')
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], seq)
	buf = append(buf, s[:]...)
	buf = append(buf, entryHash[:]...)
	return buf
}

// Sampled reports whether charge seq under voucherID is in the audit
// sample of a report whose terminal chain head is head. The draw is a
// pure function of (head, seq, voucherID), so device and vendor agree
// bit-for-bit — and because head covers every entry in the report, a
// device cannot craft a report where only charges it can prove are
// sampled. rate n samples ≈ 1/n of charges; rate ≤ 1 samples all.
func Sampled(head [32]byte, voucherID string, seq uint64, rate int) bool {
	if rate <= 1 {
		return true
	}
	root := binary.LittleEndian.Uint64(head[:8])
	return engine.SeedForID(root, seq, voucherID)%uint64(rate) == 0
}

// NextEntry extends a chain head by one charge. The meter does this
// internally; it is exported for tests and fault injectors that need to
// fabricate structurally valid chain segments.
func NextEntry(head [32]byte, seq, tick uint64, voucherID string) Entry {
	return Entry{Seq: seq, Tick: tick, Hash: chainHash(head, seq, tick, voucherID)}
}

// Attestor produces the attestation for one sampled charge, given the
// charge's chain entry hash. Installed on a Meter by the serving layer,
// which holds the model weights and the retained evidence.
type Attestor func(seq uint64, entryHash [32]byte) (Attestation, error)

// SetAttestor enables verified billing on the meter: BuildAttestedReport
// will sample charges at the given rate and call fn for each. fn runs
// without the meter lock held.
func (m *Meter) SetAttestor(rate int, fn Attestor) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attRate = rate
	m.attestor = fn
}

// BuildAttestedReport snapshots the unsettled usage like BuildReport and
// attaches proofs for the deterministic sample of its charges. Without
// an attestor it degrades to a bare report.
func (m *Meter) BuildAttestedReport() (AttestedReport, error) {
	m.mu.Lock()
	entries := make([]Entry, len(m.unsettled))
	copy(entries, m.unsettled)
	rep := AttestedReport{Report: Report{
		Voucher: m.voucher,
		FromSeq: m.settledSeq + 1,
		Entries: entries,
		Used:    m.used,
	}}
	attestor := m.attestor
	rate := m.attRate
	head := m.settledHead
	voucherID := m.voucher.ID
	m.mu.Unlock()

	if attestor == nil {
		return rep, nil
	}
	if len(entries) > 0 {
		head = entries[len(entries)-1].Hash
	}
	for _, e := range entries {
		if !Sampled(head, voucherID, e.Seq, rate) {
			continue
		}
		att, err := attestor(e.Seq, e.Hash)
		if err != nil {
			return rep, fmt.Errorf("metering: attest seq %d: %w", e.Seq, err)
		}
		att.Seq = e.Seq
		rep.Attestations = append(rep.Attestations, att)
	}
	return rep, nil
}

// AttestationCheck pairs an attestation with the chain entry hash the
// settler resolved for its sequence — the binding the verifier folds
// into the proof context.
type AttestationCheck struct {
	Att       Attestation
	EntryHash [32]byte
}

// AttestationVerifier checks a batch of attestations for one voucher and
// returns one verdict per item (nil = proof valid). Implemented by the
// serving layer on top of the verify package.
type AttestationVerifier func(v Voucher, items []AttestationCheck) []error

// ErrProofInvalid is the sentinel wrapped by attestation verifiers when
// a proof fails cryptographic verification (as opposed to being
// malformed or referencing an unknown model).
var ErrProofInvalid = errors.New("metering: inference proof invalid")

// SetAttestation arms the settler's verified-billing path: settlement
// reports must carry valid proofs for every sampled charge, checked by
// verifier. rate must match the device-side SetAttestor rate.
func (s *Settler) SetAttestation(rate int, verifier AttestationVerifier) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attRate = rate
	s.attVerifier = verifier
}
