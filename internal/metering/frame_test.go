package metering

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"

	"tinymlops/internal/tensor"
	"tinymlops/internal/wire/wiretest"
)

// goldenReport sets every field of the report frame: a tick that runs
// backwards (its delta wraps), attestations with negative inputs and claims
// on both sides of the one-byte varint boundary, and one with empty rows.
// testdata/report.frame was recorded from it at the commit that put
// settlement on the frame.
func goldenReport(t testing.TB) AttestedReport {
	t.Helper()
	is, err := NewIssuer(vendorKey)
	if err != nil {
		t.Fatal(err)
	}
	v, err := is.Issue("m4-wearable-01", "kws-mlp@3", 1000)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMeter(v)
	for _, tick := range []uint64{7, 7, 300, 12, 1 << 40} {
		if err := m.Charge(tick); err != nil {
			t.Fatal(err)
		}
	}
	return AttestedReport{Report: m.BuildReport(), Attestations: []Attestation{
		{Seq: 2, ModelID: "kws-mlp@3", Input: []int8{-128, -1, 0, 1, 127}, Claimed: []int64{0, -1, 63, -64, 64, -65, 1 << 40, -(1 << 40)}, Proof: []byte{0xde, 0xad, 0xbe, 0xef}},
		{Seq: 5, ModelID: "", Input: []int8{}, Claimed: []int64{}, Proof: []byte{}},
	}}
}

var goldenReceipts = map[string]Receipt{
	"testdata/receipt_ok.frame":       {OK: true, AckSeq: 2048, ProofsChecked: 128},
	"testdata/receipt_rejected.frame": {Reason: ReasonProofInvalid},
}

// wholeFrame reads the one frame data must be, to its last byte.
func wholeFrame(data []byte) ([]byte, error) {
	rd := bytes.NewReader(data)
	payload, err := readFrame(rd)
	if err == nil && rd.Len() > 0 {
		err = errors.New("bytes after the frame")
	}
	return payload, err
}

// reencodeReport and reencodeReceipt are the frames' decode-then-encode for
// the shared strictness helpers, length prefix included.
func reencodeReport(data []byte) ([]byte, error) {
	payload, err := wholeFrame(data)
	if err != nil {
		return nil, err
	}
	rep, err := decodeReport(payload)
	if err != nil {
		return nil, err
	}
	return encodeReport(&rep)
}

func reencodeReceipt(data []byte) ([]byte, error) {
	payload, err := wholeFrame(data)
	if err != nil {
		return nil, err
	}
	rc, err := decodeReceipt(payload)
	if err != nil {
		return nil, err
	}
	return encodeReceipt(rc), nil
}

func TestGoldenSettleFrames(t *testing.T) {
	rep := goldenReport(t)
	want, err := os.ReadFile("testdata/report.frame")
	if err != nil {
		t.Fatal(err)
	}
	got, err := encodeReport(&rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encodeReport differs from testdata/report.frame (%d vs %d bytes)", len(got), len(want))
	}
	wiretest.Strict(t, want, reencodeReport)
	// The other direction: the file decodes to the report, less the chain
	// hashes the frame leaves for the settler to recompute.
	back, err := decodeReport(want[4:])
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Entries[:len(rep.Entries)-1] {
		rep.Entries[i].Hash = [32]byte{}
	}
	if !reflect.DeepEqual(back, rep) {
		t.Fatalf("testdata/report.frame decodes to\n%+v\nwant\n%+v", back, rep)
	}

	for path, rc := range goldenReceipts {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := encodeReceipt(rc); !bytes.Equal(got, want) {
			t.Fatalf("encodeReceipt differs from %s (%d vs %d bytes)", path, len(got), len(want))
		}
		wiretest.Strict(t, want, reencodeReceipt)
		if back, err := decodeReceipt(want[4:]); err != nil || back != rc {
			t.Fatalf("%s decodes to %+v (%v), want %+v", path, back, err, rc)
		}
	}
}

// An ok byte other than 0 or 1 would decode to the same receipt as one of
// them; the decoder refuses it.
func TestReceiptOKByteIsStrict(t *testing.T) {
	frame := encodeReceipt(Receipt{OK: true, AckSeq: 3})
	frame[4+len(receiptMagic)] = 2
	if _, err := decodeReceipt(frame[4:]); err == nil {
		t.Fatal("receipt with ok byte 2 accepted")
	}
}

// FuzzDecodeSettleFrame feeds raw bytes to both ends of the settlement
// socket: the server's report decoder, which reads what any client that can
// reach the port sends, and the device's receipt decoder. Neither panics,
// and whatever either accepts is the one encoding of what it decoded.
func FuzzDecodeSettleFrame(f *testing.F) {
	rep := goldenReport(f)
	report, err := encodeReport(&rep)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(report)
	f.Add(report[:len(report)/2])
	for _, rc := range goldenReceipts {
		f.Add(encodeReceipt(rc))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.Canonical(t, data, reencodeReport)
		wiretest.Canonical(t, data, reencodeReceipt)
	})
}

// benchShapeReport is a settlement of the benchmark's shape: 2 048 charges
// in one window, every 16th carrying an attestation with a 64-wide input
// row, 256 claimed accumulators and a proof of the size the sum-check
// prover emits for that layer. The attestations are filler (no sampler
// chose them, no prover made them): it is for sizes only.
func benchShapeReport(t *testing.T) AttestedReport {
	t.Helper()
	const charges, stride, k, n, proofBytes = 2048, 16, 64, 256, 156
	v, err := issuer(t).Issue("dev-1", "kws-mlp@1", 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMeter(v)
	for i := 0; i < charges; i++ {
		if err := m.Charge(uint64(1000 + 3*i)); err != nil {
			t.Fatal(err)
		}
	}
	rep := AttestedReport{Report: m.BuildReport()}
	rng := tensor.NewRNG(7)
	for seq := stride; seq <= charges; seq += stride {
		att := Attestation{Seq: uint64(seq), ModelID: v.ModelID, Input: make([]int8, k), Claimed: make([]int64, n), Proof: make([]byte, proofBytes)}
		for i := range att.Input {
			att.Input[i] = int8(rng.Intn(255) - 127)
		}
		for i := range att.Claimed {
			// A 64-term dot product of int8 codes.
			att.Claimed[i] = int64(rng.Intn(1<<17)) - 1<<16
		}
		for i := range att.Proof {
			att.Proof[i] = byte(rng.Intn(256))
		}
		rep.Attestations = append(rep.Attestations, att)
	}
	return rep
}

// jsonLineBytes is what the socket carried for a report of the benchmark's
// shape before the frame: the parent commit's metering.report_bytes on
// settle (json.Marshal of the same structs, which bench/ still prices).
const jsonLineBytes = 571223

// TestFrameSizeAtBenchmarkShape logs the number README's billing paragraph
// quotes: the report frame for 2 048 charges and 128 proofs beside the JSON
// line it replaces, and holds the frame under a third of it.
func TestFrameSizeAtBenchmarkShape(t *testing.T) {
	rep := benchShapeReport(t)
	frame, err := encodeReport(&rep)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d charges, %d proofs: frame %d B, JSON line %d B", len(rep.Entries), len(rep.Attestations), len(frame), jsonLineBytes)
	if 3*len(frame) > jsonLineBytes {
		t.Errorf("frame is %d B, over a third of the %d B JSON line", len(frame), jsonLineBytes)
	}
}
