package swarm

import (
	"bytes"
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

func TestReassemblerErrorPaths(t *testing.T) {
	data := testBlob(1000, 11)
	m, err := BuildManifest("full:v1", data, 256)
	if err != nil {
		t.Fatal(err)
	}
	chunk := func(i int) []byte { s, e := m.ChunkSpan(i); return data[s:e] }

	cases := []struct {
		name string
		run  func(ra *Reassembler) error
		want error
	}{
		{"unknown-chunk-negative", func(ra *Reassembler) error {
			return ra.AddChunk(-1, chunk(0))
		}, ErrUnknownChunk},
		{"unknown-chunk-beyond", func(ra *Reassembler) error {
			return ra.AddChunk(m.NumChunks(), chunk(0))
		}, ErrUnknownChunk},
		{"duplicate-chunk", func(ra *Reassembler) error {
			if err := ra.AddChunk(0, chunk(0)); err != nil {
				return err
			}
			return ra.AddChunk(0, chunk(0))
		}, ErrDuplicateChunk},
		{"wrong-size", func(ra *Reassembler) error {
			return ra.AddChunk(0, chunk(0)[:100])
		}, ErrChunkSize},
		{"corrupt-hash", func(ra *Reassembler) error {
			bad := append([]byte(nil), chunk(1)...)
			bad[0] ^= 0x01
			return ra.AddChunk(1, bad)
		}, ErrChunkHashMismatch},
		{"misplaced-chunk", func(ra *Reassembler) error {
			// Right bytes, wrong position: content addressing catches it.
			return ra.AddChunk(0, chunk(1))
		}, ErrChunkHashMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(NewReassembler(m)); !errors.Is(got, tc.want) {
				t.Fatalf("err = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestReassemblerAssemble(t *testing.T) {
	data := testBlob(1000, 13)
	m, err := BuildManifest("full:v1", data, 256)
	if err != nil {
		t.Fatal(err)
	}
	ra := NewReassembler(m)
	if _, err := ra.Assemble(); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("empty assemble err = %v, want ErrIncomplete", err)
	}
	// Out-of-order arrival is fine; the positions are content-addressed.
	for _, i := range []int{3, 0, 2} {
		s, e := m.ChunkSpan(i)
		if err := ra.AddChunk(i, data[s:e]); err != nil {
			t.Fatal(err)
		}
	}
	if ra.missing == 0 {
		t.Fatal("complete with a chunk missing")
	}
	if ra.missing != 1 || ra.have[1] || !ra.have[0] {
		t.Fatalf("missing = %d, have(1) = %v", ra.missing, ra.have[1])
	}
	s, e := m.ChunkSpan(1)
	if err := ra.AddChunk(1, data[s:e]); err != nil {
		t.Fatal(err)
	}
	out, err := ra.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("assembled bytes diverge from the artifact")
	}
}
