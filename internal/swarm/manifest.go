package swarm

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"tinymlops/internal/wire"
)

// DefaultChunkBytes is the chunk size used when a Config leaves it zero.
const DefaultChunkBytes = 4 << 10

// Wire-format bounds: a decoder must reject anything outside them before
// allocating, so a hostile manifest cannot ask for gigabytes.
const (
	manifestMagic   = "TMSW"
	manifestVersion = 1
	maxKeyBytes     = 4096
	maxChunks       = 1 << 22
)

// Typed failures of the chunk plane. Every rejection a transfer or a
// decoder can produce wraps one of these, so callers classify by
// errors.Is rather than string matching.
var (
	// ErrEmptyArtifact rejects building a manifest over zero bytes — there
	// is nothing to distribute, and a zero-chunk manifest would make
	// "complete" ambiguous.
	ErrEmptyArtifact = errors.New("swarm: zero-length artifact")
	// ErrBadManifest rejects a malformed or non-canonical manifest encoding.
	ErrBadManifest = errors.New("swarm: malformed manifest")
	// ErrUnknownChunk rejects a chunk index outside the manifest.
	ErrUnknownChunk = errors.New("swarm: unknown chunk index")
	// ErrDuplicateChunk rejects delivering a chunk twice — each byte arrives
	// exactly once.
	ErrDuplicateChunk = errors.New("swarm: duplicate chunk")
	// ErrChunkSize rejects a chunk whose length disagrees with the manifest.
	ErrChunkSize = errors.New("swarm: chunk size mismatch")
	// ErrChunkHashMismatch rejects chunk bytes whose SHA-256 disagrees with
	// the manifest — corruption or a lying peer, caught on receipt.
	ErrChunkHashMismatch = errors.New("swarm: chunk hash mismatch")
	// ErrIncomplete rejects assembling before every chunk arrived.
	ErrIncomplete = errors.New("swarm: artifact incomplete")
	// ErrDigestMismatch rejects an assembled artifact whose whole-file
	// SHA-256 disagrees with the manifest.
	ErrDigestMismatch = errors.New("swarm: artifact digest mismatch")
)

// Manifest is the content-addressed description of one distributable
// artifact — a registry image ("full:<version>") or an encoded weight
// delta ("delta:<from>><to>") — split into fixed-size chunks. Chunks are
// ChunkBytes long except the last, whose length is implied by TotalBytes;
// per-chunk SHA-256 hashes let a receiver verify every chunk on receipt
// from any source, and Digest pins the reassembled whole.
type Manifest struct {
	// Key names the artifact in the swarm's namespace.
	Key string
	// TotalBytes is the artifact length; ChunkBytes the nominal chunk size.
	TotalBytes int64
	ChunkBytes int64
	// Digest is the SHA-256 of the whole artifact.
	Digest [32]byte
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
	m := &Manifest{
		Key:        key,
		TotalBytes: int64(len(data)),
		ChunkBytes: chunkBytes,
		Digest:     sha256.Sum256(data),
	}
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

// MarshalBinary encodes the manifest in the canonical wire format: magic,
// version byte, uvarint-prefixed key, uvarint total and chunk sizes, the
// artifact digest, then the chunk hashes (chunk lengths are implied by the
// sizes, so there is exactly one encoding of a given manifest).
func (m *Manifest) MarshalBinary() ([]byte, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 64+len(m.Key)+32*len(m.Hashes))
	buf = append(buf, manifestMagic...)
	buf = append(buf, manifestVersion)
	buf = binary.AppendUvarint(buf, uint64(len(m.Key)))
	buf = append(buf, m.Key...)
	buf = binary.AppendUvarint(buf, uint64(m.TotalBytes))
	buf = binary.AppendUvarint(buf, uint64(m.ChunkBytes))
	buf = append(buf, m.Digest[:]...)
	for i := range m.Hashes {
		buf = append(buf, m.Hashes[i][:]...)
	}
	return buf, nil
}

func (m *Manifest) validate() error {
	if m.Key == "" || len(m.Key) > maxKeyBytes {
		return fmt.Errorf("%w: key length %d", ErrBadManifest, len(m.Key))
	}
	if m.TotalBytes < 1 {
		return fmt.Errorf("%w: total %d bytes", ErrEmptyArtifact, m.TotalBytes)
	}
	if m.ChunkBytes < 1 {
		return fmt.Errorf("%w: chunk size %d", ErrBadManifest, m.ChunkBytes)
	}
	if n := m.NumChunks(); n > maxChunks || len(m.Hashes) != n {
		return fmt.Errorf("%w: %d hashes for %d chunks", ErrBadManifest, len(m.Hashes), n)
	}
	return nil
}

// unmarshalManifest decodes and validates a canonical manifest encoding.
// Truncated input, trailing bytes, out-of-range sizes, a wrong chunk count
// and non-minimal varints are all rejected. Every field then has exactly
// one encoding, so if decoding succeeds, re-encoding reproduces the input
// byte-for-byte (FuzzChunkManifestRoundTrip holds it to that).
func unmarshalManifest(data []byte) (*Manifest, error) {
	r := wire.NewReader(data)
	r.Magic(manifestMagic)
	version := r.U8()
	m := &Manifest{Key: string(r.Bytes(r.UvarintCount(maxKeyBytes, 1)))}
	total, chunk := r.Uvarint(), r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	if version != manifestVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadManifest, version)
	}
	if m.Key == "" || total < 1 || total > 1<<62 || chunk < 1 || chunk > 1<<62 {
		return nil, fmt.Errorf("%w: key %q, sizes %d/%d", ErrBadManifest, m.Key, total, chunk)
	}
	m.TotalBytes, m.ChunkBytes = int64(total), int64(chunk)
	n := m.NumChunks()
	if n > maxChunks {
		return nil, fmt.Errorf("%w: %d chunks exceed the %d cap", ErrBadManifest, n, maxChunks)
	}
	digest, hashes := r.Bytes(32), r.Bytes(32*n)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %d chunks: %v", ErrBadManifest, n, err)
	}
	copy(m.Digest[:], digest)
	m.Hashes = make([][32]byte, n)
	for i := range m.Hashes {
		copy(m.Hashes[i][:], hashes[32*i:])
	}
	return m, nil
}

// Reassembler collects verified chunks of one manifest into the artifact.
// Chunks may arrive in any order and from any mix of sources; each is
// hash-checked on receipt, duplicates and out-of-range indexes are
// rejected, and Assemble refuses to produce bytes until every chunk
// landed and the whole-artifact digest matches. Not safe for concurrent
// use — each receiving device owns its own reassembler.
type Reassembler struct {
	m       *Manifest
	buf     []byte
	have    []bool
	missing int
}

// NewReassembler returns an empty reassembler for the manifest.
func NewReassembler(m *Manifest) *Reassembler {
	n := m.NumChunks()
	return &Reassembler{m: m, buf: make([]byte, m.TotalBytes), have: make([]bool, n), missing: n}
}

// AddChunk verifies and stores chunk i. The data is copied.
func (r *Reassembler) AddChunk(i int, data []byte) error {
	if i < 0 || i >= len(r.have) {
		return fmt.Errorf("%w: %d of %d", ErrUnknownChunk, i, len(r.have))
	}
	if r.have[i] {
		return fmt.Errorf("%w: %d", ErrDuplicateChunk, i)
	}
	start, end := r.m.ChunkSpan(i)
	if int64(len(data)) != end-start {
		return fmt.Errorf("%w: chunk %d got %d bytes, want %d", ErrChunkSize, i, len(data), end-start)
	}
	if sha256.Sum256(data) != r.m.Hashes[i] {
		return fmt.Errorf("%w: chunk %d", ErrChunkHashMismatch, i)
	}
	copy(r.buf[start:end], data)
	r.have[i] = true
	r.missing--
	return nil
}

// Assemble returns the reassembled artifact after verifying the
// whole-artifact digest. The returned slice is the reassembler's buffer;
// the caller owns it afterwards.
func (r *Reassembler) Assemble() ([]byte, error) {
	if r.missing > 0 {
		return nil, fmt.Errorf("%w: %d/%d chunks missing", ErrIncomplete, r.missing, len(r.have))
	}
	if sha256.Sum256(r.buf) != r.m.Digest {
		return nil, fmt.Errorf("%w: %q", ErrDigestMismatch, r.m.Key)
	}
	return r.buf, nil
}
