package swarm

import (
	"errors"
	"testing"

	"tinymlops/internal/tensor"
)

// testBlob builds n deterministic pseudo-random bytes.
func testBlob(n int, seed uint64) []byte {
	rng := tensor.NewRNG(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return b
}

func TestBuildManifestShapes(t *testing.T) {
	cases := []struct {
		name       string
		size       int
		chunk      int64
		wantChunks int
	}{
		{"single-partial-chunk", 100, 256, 1},
		{"exact-multiple", 1024, 256, 4},
		{"ragged-tail", 1000, 256, 4},
		{"one-byte", 1, 4096, 1},
		{"chunk-of-one", 7, 1, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := testBlob(tc.size, 42)
			m, err := BuildManifest("full:v1", data, tc.chunk)
			if err != nil {
				t.Fatal(err)
			}
			if m.NumChunks() != tc.wantChunks {
				t.Fatalf("chunks = %d, want %d", m.NumChunks(), tc.wantChunks)
			}
			var covered int64
			for i := 0; i < m.NumChunks(); i++ {
				s, e := m.ChunkSpan(i)
				if s != covered {
					t.Fatalf("chunk %d starts at %d, want %d", i, s, covered)
				}
				if e <= s || e-s > tc.chunk {
					t.Fatalf("chunk %d span [%d,%d) out of shape", i, s, e)
				}
				covered = e
				if got := m.ChunkOf(s); got != i {
					t.Fatalf("ChunkOf(%d) = %d, want %d", s, got, i)
				}
			}
			if covered != int64(tc.size) {
				t.Fatalf("chunks cover %d of %d bytes", covered, tc.size)
			}
		})
	}
}

func TestBuildManifestRejects(t *testing.T) {
	cases := []struct {
		name  string
		key   string
		data  []byte
		chunk int64
		want  error
	}{
		{"zero-length-artifact", "full:v1", nil, 256, ErrEmptyArtifact},
		{"empty-key", "", []byte{1}, 256, ErrBadManifest},
		{"negative-chunk", "full:v1", []byte{1}, -4, ErrBadManifest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := BuildManifest(tc.key, tc.data, tc.chunk); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}
