package swarm

import (
	"crypto/sha256"
	"errors"
	"fmt"
)

// DefaultChunkBytes is the chunk size used when a Config leaves it zero.
const DefaultChunkBytes = 4 << 10

// Bounds on what BuildManifest accepts: a key of at most maxKeyBytes, and
// at most maxChunks chunks, so a bad chunk size cannot ask for gigabytes of
// hashes.
const (
	maxKeyBytes = 4096
	maxChunks   = 1 << 22
)

// Typed failures of the chunk plane. Every input BuildManifest refuses and
// every chunk a transfer rejects wraps one of these, so callers classify
// by errors.Is rather than string matching.
var (
	// ErrEmptyArtifact rejects building a manifest over zero bytes — there
	// is nothing to distribute, and a zero-chunk manifest would make
	// "complete" ambiguous.
	ErrEmptyArtifact = errors.New("swarm: zero-length artifact")
	// ErrBadManifest rejects BuildManifest input it cannot describe: an
	// empty or over-long key, a negative chunk size, or too many chunks.
	ErrBadManifest = errors.New("swarm: malformed manifest")
	// ErrChunkHashMismatch rejects chunk bytes whose SHA-256 disagrees with
	// the manifest — corruption or a lying peer, caught on receipt.
	ErrChunkHashMismatch = errors.New("swarm: chunk hash mismatch")
)

// Manifest is the content-addressed description of one distributable
// artifact — a registry image ("full:<version>") or an encoded weight
// delta ("delta:<from>><to>") — split into fixed-size chunks. Chunks are
// ChunkBytes long except the last, whose length is implied by TotalBytes;
// per-chunk SHA-256 hashes let a receiver verify every chunk on receipt
// from any source.
type Manifest struct {
	// TotalBytes is the artifact length; ChunkBytes the nominal chunk size.
	TotalBytes int64
	ChunkBytes int64
	// Hashes holds one SHA-256 per chunk, in order.
	Hashes [][32]byte
}

// BuildManifest splits data into chunkBytes-sized hashed chunks
// (0 = DefaultChunkBytes).
func BuildManifest(key string, data []byte, chunkBytes int64) (*Manifest, error) {
	if key == "" || len(key) > maxKeyBytes {
		return nil, fmt.Errorf("%w: key length %d", ErrBadManifest, len(key))
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrEmptyArtifact, key)
	}
	if chunkBytes == 0 {
		chunkBytes = DefaultChunkBytes
	}
	if chunkBytes < 1 {
		return nil, fmt.Errorf("%w: chunk size %d", ErrBadManifest, chunkBytes)
	}
	m := &Manifest{TotalBytes: int64(len(data)), ChunkBytes: chunkBytes}
	n := m.NumChunks()
	if n > maxChunks {
		return nil, fmt.Errorf("%w: %d chunks exceed the %d cap", ErrBadManifest, n, maxChunks)
	}
	m.Hashes = make([][32]byte, 0, n)
	for off := int64(0); off < m.TotalBytes; off += chunkBytes {
		end := off + chunkBytes
		if end > m.TotalBytes {
			end = m.TotalBytes
		}
		m.Hashes = append(m.Hashes, sha256.Sum256(data[off:end]))
	}
	return m, nil
}

// NumChunks returns how many chunks the manifest describes.
func (m *Manifest) NumChunks() int {
	return int((m.TotalBytes + m.ChunkBytes - 1) / m.ChunkBytes)
}

// ChunkSpan returns chunk i's byte range [start, end) in the artifact.
func (m *Manifest) ChunkSpan(i int) (start, end int64) {
	start = int64(i) * m.ChunkBytes
	end = start + m.ChunkBytes
	if end > m.TotalBytes {
		end = m.TotalBytes
	}
	return start, end
}

// ChunkOf returns the index of the chunk containing artifact offset off.
func (m *Manifest) ChunkOf(off int64) int { return int(off / m.ChunkBytes) }

// check verifies chunk i of data against its manifest hash.
func (m *Manifest) check(data []byte, i int) error {
	start, end := m.ChunkSpan(i)
	if sha256.Sum256(data[start:end]) != m.Hashes[i] {
		return fmt.Errorf("%w: chunk %d", ErrChunkHashMismatch, i)
	}
	return nil
}
