package swarm

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzChunkReassembly feeds a reassembler an adversarial chunk stream —
// arbitrary indexes, arbitrary bytes, duplicates, truncations — and pins
// that it either rejects each bogus chunk with a typed error or ends up
// assembling exactly the true artifact. Mis-assembly (success with wrong
// bytes) is the one outcome that must be impossible.
func FuzzChunkReassembly(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(0), []byte{1, 2, 3, 4})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(2), []byte{9})
	f.Add([]byte("abcdefgh"), uint8(1), []byte("efgh"))
	f.Add([]byte("abcdefgh"), uint8(200), []byte("efgh"))

	f.Fuzz(func(t *testing.T, artifact []byte, idx uint8, chunk []byte) {
		if len(artifact) == 0 {
			return
		}
		m, err := BuildManifest("full:fuzz", artifact, 4)
		if err != nil {
			t.Fatal(err)
		}
		ra := NewReassembler(m)

		// The adversarial chunk either lands (bytes exactly match the true
		// chunk at idx) or is rejected with a typed error.
		aerr := ra.AddChunk(int(idx), chunk)
		if aerr != nil {
			switch {
			case errors.Is(aerr, ErrUnknownChunk), errors.Is(aerr, ErrDuplicateChunk),
				errors.Is(aerr, ErrChunkSize), errors.Is(aerr, ErrChunkHashMismatch):
			default:
				t.Fatalf("untyped chunk rejection: %v", aerr)
			}
		} else {
			s, e := m.ChunkSpan(int(idx))
			if !bytes.Equal(chunk, artifact[s:e]) {
				t.Fatalf("reassembler accepted wrong bytes for chunk %d", idx)
			}
			// Exactly-once: the same chunk again must be a duplicate.
			if derr := ra.AddChunk(int(idx), chunk); !errors.Is(derr, ErrDuplicateChunk) {
				t.Fatalf("duplicate accepted: %v", derr)
			}
		}

		// Complete the stream with the true chunks; the assembly must be
		// bit-identical to the artifact no matter what the fuzzer injected.
		for i := 0; i < m.NumChunks(); i++ {
			if ra.have[i] {
				continue
			}
			s, e := m.ChunkSpan(i)
			if err := ra.AddChunk(i, artifact[s:e]); err != nil {
				t.Fatalf("true chunk %d rejected: %v", i, err)
			}
		}
		out, err := ra.Assemble()
		if err != nil {
			t.Fatalf("complete artifact does not assemble: %v", err)
		}
		if !bytes.Equal(out, artifact) {
			t.Fatal("assembled bytes diverge from the artifact")
		}
	})
}
