package observe

import (
	"bytes"
	"os"
	"testing"

	"tinymlops/internal/wire/wiretest"
)

// goldenRecord sets every field of the telemetry record.
// testdata/golden.rec was recorded from it with the encoder of commit
// 0d5e93c, before the codec moved onto internal/wire.
func goldenRecord() *Record {
	return &Record{
		DeviceID: "m4-wearable-01", Window: 7, Inferences: 120, Denied: 3,
		MeanLatencyUS: 850.5, MaxLatencyUS: 2100, EnergyMJ: 12.5,
		FeatureMeans: []float32{0.1, -0.2}, FeatureStds: []float32{1.0, 0.9},
		DriftScore: 0.31, DriftAlarm: true,
	}
}

// reencodeRecord is the telemetry record's decode-then-encode for the
// shared strictness helpers.
func reencodeRecord(data []byte) ([]byte, error) {
	r, err := decodeRecord(data)
	if err != nil {
		return nil, err
	}
	return r.Encode(), nil
}

func TestGoldenRecord(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.rec")
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenRecord().Encode(); !bytes.Equal(got, want) {
		t.Fatalf("Encode differs from testdata/golden.rec (%d vs %d bytes)", len(got), len(want))
	}
	wiretest.Strict(t, want, reencodeRecord)
}

// FuzzDecodeRecord feeds raw bytes to the telemetry decoder: it never
// panics, and whatever it accepts is the canonical encoding of what it
// decoded.
func FuzzDecodeRecord(f *testing.F) {
	golden := goldenRecord().Encode()
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) { wiretest.Canonical(t, data, reencodeRecord) })
}
