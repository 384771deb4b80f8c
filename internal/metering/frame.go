package metering

import (
	"encoding/binary"
	"fmt"
	"io"

	"tinymlops/internal/wire"
)

// The settlement frame pair: everything that crosses the settlement socket.
// A frame is a u32 little-endian payload length and the payload. A device
// sends one report frame per settlement and reads one receipt frame back;
// both payloads are decoded through wire's strict cursor, so each side
// accepts exactly what the other's encoder emits.
//
//	report   "TMSR1", voucher (str ID, str device, str model, u64 queries,
//	         u64 seq, str sig), uvarint FromSeq, uvarint Used, uvarint entry
//	         count, per entry uvarint seq − previous seq (FromSeq−1 before
//	         the first) and uvarint tick − previous tick (0 before the
//	         first), both mod 2^64, the last entry's chain hash (32 B, only
//	         when there are entries), uvarint attestation count, per
//	         attestation uvarint seq, str model, uvarint-counted int8 input,
//	         uvarint-counted zigzag-varint claims, uvarint-counted proof
//	         bytes
//	receipt  "TMSA1", u8 ok, uvarint ack seq, uvarint proofs checked,
//	         str reason
//
// The intermediate chain hashes do not travel: each is SHA-256 of its
// predecessor, the entry's (seq, tick) and the voucher ID, and the settler
// holds the head the segment must extend, so it recomputes them and checks
// the one that is sent.
const (
	reportMagic  = "TMSR1"
	receiptMagic = "TMSA1"

	// maxFrameBytes caps a payload; a length prefix over it is refused
	// before anything is allocated for it.
	maxFrameBytes   = 4 << 20
	maxEntries      = 1 << 18
	maxAttestations = 1 << 14
	maxIDBytes      = 256 // voucher, device and model IDs, and the reason
	maxSigBytes     = 64
	maxRowElems     = 1 << 16 // an attestation's input row, and its claims
	maxProofBytes   = 1 << 20
)

// readFrame reads one frame's payload from r.
func readFrame(r io.Reader) ([]byte, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(prefix[:])
	if n > maxFrameBytes {
		return nil, fmt.Errorf("metering: frame of %d bytes, the cap is %d", n, maxFrameBytes)
	}
	payload := make([]byte, n)
	_, err := io.ReadFull(r, payload)
	return payload, err
}

// sealFrame fills in the length prefix that b's first four bytes reserve
// for the payload behind them.
func sealFrame(b []byte) []byte {
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

func appendStr[T string | []byte](b []byte, s T) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// encodeReport returns r as one report frame, or an error if the server's
// cap would refuse it.
func encodeReport(r *AttestedReport) ([]byte, error) {
	size := 128 + len(r.Voucher.ID) + len(r.Voucher.DeviceID) + len(r.Voucher.ModelID) + 4*len(r.Entries)
	for i := range r.Attestations {
		a := &r.Attestations[i]
		size += 32 + len(a.ModelID) + len(a.Input) + 4*len(a.Claimed) + len(a.Proof)
	}
	b := make([]byte, 4, size)
	b = append(b, reportMagic...)
	v := &r.Voucher
	b = appendStr(appendStr(appendStr(b, v.ID), v.DeviceID), v.ModelID)
	b = binary.LittleEndian.AppendUint64(b, v.Queries)
	b = binary.LittleEndian.AppendUint64(b, v.Seq)
	b = appendStr(b, v.Sig)
	b = binary.AppendUvarint(b, r.FromSeq)
	b = binary.AppendUvarint(b, r.Used)
	b = binary.AppendUvarint(b, uint64(len(r.Entries)))
	seq, tick := r.FromSeq-1, uint64(0)
	for i := range r.Entries {
		e := &r.Entries[i]
		b = binary.AppendUvarint(b, e.Seq-seq)
		b = binary.AppendUvarint(b, e.Tick-tick)
		seq, tick = e.Seq, e.Tick
	}
	if n := len(r.Entries); n > 0 {
		b = append(b, r.Entries[n-1].Hash[:]...)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Attestations)))
	for i := range r.Attestations {
		a := &r.Attestations[i]
		b = binary.AppendUvarint(b, a.Seq)
		b = appendStr(b, a.ModelID)
		b = binary.AppendUvarint(b, uint64(len(a.Input)))
		for _, c := range a.Input {
			b = append(b, byte(c))
		}
		b = binary.AppendUvarint(b, uint64(len(a.Claimed)))
		for _, c := range a.Claimed {
			b = binary.AppendVarint(b, c)
		}
		b = binary.AppendUvarint(b, uint64(len(a.Proof)))
		b = append(b, a.Proof...)
	}
	if len(b)-4 > maxFrameBytes {
		return nil, fmt.Errorf("metering: report frame of %d bytes, the cap is %d", len(b)-4, maxFrameBytes)
	}
	return sealFrame(b), nil
}

// decodeReport parses a report frame's payload. Only the last entry comes
// back with its Hash set, the one the frame carries; the settler's chain
// walk fills in the others. Sig and the proofs are sub-slices of payload.
func decodeReport(payload []byte) (AttestedReport, error) {
	r := wire.NewReader(payload)
	r.Magic(reportMagic)
	var rep AttestedReport
	v := &rep.Voucher
	v.ID, v.DeviceID, v.ModelID = r.String(maxIDBytes), r.String(maxIDBytes), r.String(maxIDBytes)
	v.Queries, v.Seq = r.U64(), r.U64()
	v.Sig = r.Bytes(r.Count(maxSigBytes, 1))
	rep.FromSeq, rep.Used = r.Uvarint(), r.Uvarint()
	if n := r.UvarintCount(maxEntries, 2); n > 0 {
		rep.Entries = make([]Entry, n)
		seq, tick := rep.FromSeq-1, uint64(0)
		for i := range rep.Entries {
			seq += r.Uvarint()
			tick += r.Uvarint()
			rep.Entries[i].Seq, rep.Entries[i].Tick = seq, tick
		}
		copy(rep.Entries[n-1].Hash[:], r.Bytes(32))
	}
	// An attestation is at least its seq, a u32 and three counts.
	if n := r.UvarintCount(maxAttestations, 8); n > 0 {
		rep.Attestations = make([]Attestation, n)
		for i := range rep.Attestations {
			a := &rep.Attestations[i]
			a.Seq, a.ModelID = r.Uvarint(), r.String(maxIDBytes)
			input := r.Bytes(r.UvarintCount(maxRowElems, 1))
			a.Input = make([]int8, len(input))
			for j, c := range input {
				a.Input[j] = int8(c)
			}
			a.Claimed = make([]int64, r.UvarintCount(maxRowElems, 1))
			for j := range a.Claimed {
				a.Claimed[j] = r.Varint()
			}
			a.Proof = r.Bytes(r.UvarintCount(maxProofBytes, 1))
		}
	}
	if err := r.Done(); err != nil {
		return AttestedReport{}, fmt.Errorf("metering: decode report: %w", err)
	}
	return rep, nil
}

// encodeReceipt returns rc as one receipt frame.
func encodeReceipt(rc Receipt) []byte {
	b := make([]byte, 4, 4+len(receiptMagic)+1+2*binary.MaxVarintLen64+4+len(rc.Reason))
	b = append(b, receiptMagic...)
	if rc.OK {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, rc.AckSeq)
	b = binary.AppendUvarint(b, uint64(rc.ProofsChecked))
	return sealFrame(appendStr(b, rc.Reason))
}

// decodeReceipt parses a receipt frame's payload.
func decodeReceipt(payload []byte) (Receipt, error) {
	r := wire.NewReader(payload)
	r.Magic(receiptMagic)
	ok := r.U8()
	rc := Receipt{OK: ok == 1, AckSeq: r.Uvarint(), ProofsChecked: r.UvarintCount(maxAttestations, 0), Reason: r.String(maxIDBytes)}
	if err := r.Done(); err != nil {
		return Receipt{}, fmt.Errorf("metering: decode receipt: %w", err)
	}
	if ok > 1 {
		return Receipt{}, fmt.Errorf("metering: receipt's ok byte %d is neither 0 nor 1", ok)
	}
	return rc, nil
}
