package swarm

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"tinymlops/internal/wire/wiretest"
)

// goldenManifest has two-byte size varints and a ragged last chunk. testdata/golden.tmsw was recorded
// from it with the encoder of commit 0d5e93c, before the decoder moved
// onto internal/wire.
func goldenManifest(t testing.TB) []byte {
	t.Helper()
	m, err := BuildManifest("delta:aa>bb", testBlob(1000, 3), 300)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// reencodeManifest is TMSW's decode-then-encode for the shared strictness
// helper. Every rejection must be typed.
func reencodeManifest(t testing.TB) func([]byte) ([]byte, error) {
	return func(data []byte) ([]byte, error) {
		m, err := unmarshalManifest(data)
		if err != nil {
			if !errors.Is(err, ErrBadManifest) {
				t.Errorf("rejection is not ErrBadManifest: %v", err)
			}
			return nil, err
		}
		return m.MarshalBinary()
	}
}

func TestGoldenTMSW(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.tmsw")
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenManifest(t); !bytes.Equal(got, want) {
		t.Fatalf("MarshalBinary differs from testdata/golden.tmsw (%d vs %d bytes)", len(got), len(want))
	}
	wiretest.Strict(t, want, reencodeManifest(t))
}
