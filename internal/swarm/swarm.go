package swarm

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"tinymlops/internal/device"
	"tinymlops/internal/engine"
)

// SourceFunc is the swarm's seeder of last resort: it resolves an artifact
// key to the canonical bytes. The platform adapts its registry here, so the
// registry serves the canary wave (no peers hold anything yet) and any
// chunk no peer can provide — and nothing else.
type SourceFunc func(key string) ([]byte, error)

// DropFunc models a peer dropping out mid-chunk: it returns the fraction
// of the requested span the peer manages to serve before vanishing.
// Anything outside (0,1) means the peer serves the whole span. The fault
// plane supplies deterministic decisions keyed on (wave, attempt, fetcher,
// peer, key, chunk), so swarm weather reproduces at any worker count.
type DropFunc func(wave uint64, attempt int, fetcherID, peerID, key string, chunk int) float64

// maxPeerTries bounds the seeder candidates probed per chunk attempt before
// falling back to the registry.
const maxPeerTries = 3

// Config configures a Swarm.
type Config struct {
	// Source resolves artifact keys to canonical bytes (required).
	Source SourceFunc
	// Peer resolves a seeder's device handle; nil candidates are skipped.
	Peer func(id string) (*device.Device, bool)
	// ChunkBytes is the manifest chunk size (0 = DefaultChunkBytes).
	ChunkBytes int64
	// Seed roots the deterministic peer assignment.
	Seed uint64
	// PeerDrop, when non-nil, injects mid-chunk peer churn.
	PeerDrop DropFunc
}

// Stats is the swarm's cumulative accounting. Its core invariant is byte
// conservation: RegistryEgressBytes + PeerBytes == DeliveredBytes, every
// delivered byte attributed to exactly one source. The fault auditor
// checks it, along with ConservationViolations == 0 and HashRejects == 0.
type Stats struct {
	// Transfers completed; Resumed counts those that continued a previously
	// interrupted transfer instead of starting from byte zero.
	Transfers int64
	Resumed   int64
	// DeliveredBytes moved over the simulated radio into installs;
	// RegistryEgressBytes came from the vendor, PeerBytes from neighbors.
	DeliveredBytes      int64
	RegistryEgressBytes int64
	PeerBytes           int64
	// ChunksVerified counts chunks that passed their hash check when a
	// transfer completed them (re-checking a resumed staged prefix counts
	// none); HashRejects counts chunks that failed it (zero with honest
	// sources).
	ChunksVerified int64
	HashRejects    int64
	// PeerServes / RegistryServes count serve calls by source kind;
	// PeerSkips counts offline or unknown candidates passed over.
	PeerServes     int64
	RegistryServes int64
	PeerSkips      int64
	// MidChunkDrops counts injected peer losses partway through a chunk.
	MidChunkDrops int64
	// ConservationViolations counts completed transfers whose per-source
	// byte split did not sum to the artifact size — always zero unless the
	// exactly-once discipline broke.
	ConservationViolations int64
}

// TransferStats accounts one completed transfer.
type TransferStats struct {
	TotalBytes int64
	// FromPeers and FromRegistry split this transfer's radio bytes by
	// source; they fall short of TotalBytes by what an earlier interrupted
	// incarnation already staged in flash.
	FromPeers    int64
	FromRegistry int64
}

// transferState is one device's in-flight fetch of one artifact,
// persisted across interrupted attempts. Only the owning device's serial
// update calls touch it; the swarm map holding it is mutex-guarded.
type transferState struct {
	key       string
	off       int64 // the device holds blob[:off]
	base      int64 // bytes re-derived from a pre-existing staged slot
	fromPeers int64
	fromReg   int64
	attempts  int
	resumed   bool
}

// Swarm coordinates peer-to-peer artifact distribution across rollout
// waves. Devices that complete an update register as pending seeders;
// AdvanceWave promotes them into the sorted active set the next wave
// fetches from. Peer choice derives from engine.SeedForID over (wave,
// fetcher, key, chunk, attempt), and the active set is frozen while a
// wave's transfers fan out, so the topology — and therefore every byte's
// provenance — is bit-stable at any worker count. All methods are safe
// for concurrent use.
type Swarm struct {
	cfg Config

	mu        sync.Mutex
	wave      uint64
	active    map[string][]string            // key -> sorted seeder IDs
	pending   map[string]map[string]struct{} // key -> seeders awaiting promotion
	manifests map[string]*Manifest
	blobs     map[string][]byte
	inflight  map[string]*transferState // device -> its one in-flight fetch
	stats     Stats
}

// New returns a swarm over the configuration.
func New(cfg Config) (*Swarm, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("swarm: config needs a Source")
	}
	if cfg.ChunkBytes == 0 {
		cfg.ChunkBytes = DefaultChunkBytes
	}
	if cfg.ChunkBytes < 1 {
		return nil, fmt.Errorf("swarm: chunk size %d", cfg.ChunkBytes)
	}
	return &Swarm{
		cfg:       cfg,
		active:    make(map[string][]string),
		pending:   make(map[string]map[string]struct{}),
		manifests: make(map[string]*Manifest),
		blobs:     make(map[string][]byte),
		inflight:  make(map[string]*transferState),
	}, nil
}

// Wave returns the current wave number (0 = canary: no seeders yet).
func (s *Swarm) Wave() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wave
}

// AddSeeder registers a device as holding the artifact. The registration
// is pending: it becomes visible to fetchers only at the next
// AdvanceWave, so a wave's seeder set cannot depend on the completion
// order of that same wave's transfers.
func (s *Swarm) AddSeeder(key, deviceID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := slices.BinarySearch(s.active[key], deviceID); ok {
		return
	}
	set := s.pending[key]
	if set == nil {
		set = make(map[string]struct{})
		s.pending[key] = set
	}
	set[deviceID] = struct{}{}
}

// RemovePending withdraws a device's not-yet-promoted seeder
// registrations — a rolled-back wave's devices no longer hold the bytes
// they registered for.
func (s *Swarm) RemovePending(deviceID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, set := range s.pending {
		delete(set, deviceID)
	}
}

// AdvanceWave promotes pending seeders into the active set (sorted, so
// peer indexing is deterministic) and bumps the wave counter. The rollout
// controller calls it after each wave passes its gate; reconciliation
// sweeps call it between passes.
func (s *Swarm) AdvanceWave() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wave++
	for key, set := range s.pending {
		if len(set) == 0 {
			continue
		}
		// A new slice, never the old one grown and sorted in place: a
		// transfer reads the set it picked from after the lock is released.
		old := s.active[key]
		ids := append(make([]string, 0, len(old)+len(set)), old...)
		for id := range set {
			if _, ok := slices.BinarySearch(old, id); !ok {
				ids = append(ids, id)
			}
		}
		slices.Sort(ids)
		s.active[key] = ids
	}
	s.pending = make(map[string]map[string]struct{})
}

// Stats returns a snapshot of the cumulative accounting.
func (s *Swarm) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// InFlight returns how many devices hold partial transfer state — zero at
// terminal convergence, mirroring the device staging-slot invariant.
func (s *Swarm) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inflight)
}

// materialize resolves key to its manifest and canonical bytes, caching
// both. Resolution runs outside the lock (the registry's delta encoder is
// single-flight on its own); racing resolvers of the same key produce
// identical content, and the first to store wins.
func (s *Swarm) materialize(key string) (*Manifest, []byte, error) {
	s.mu.Lock()
	if m, ok := s.manifests[key]; ok {
		blob := s.blobs[key]
		s.mu.Unlock()
		return m, blob, nil
	}
	s.mu.Unlock()
	data, err := s.cfg.Source(key)
	if err != nil {
		return nil, nil, fmt.Errorf("swarm: source %q: %w", key, err)
	}
	m, err := BuildManifest(key, data, s.cfg.ChunkBytes)
	if err != nil {
		return nil, nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if exist, ok := s.manifests[key]; ok {
		return exist, s.blobs[key], nil
	}
	s.manifests[key] = m
	s.blobs[key] = data
	return m, data, nil
}

// pickSource chooses the serving side for one chunk attempt: a rotation
// over the wave's frozen seeder set starting at a SeedForID-derived index,
// probing up to maxPeerTries online candidates, with the registry as the
// seeder of last resort. Pure in (wave, active set, fetcher, key, chunk,
// attempt) plus the candidates' frozen connectivity.
func (s *Swarm) pickSource(fetcherID, key string, chunk, attempt int) (string, *device.Device) {
	s.mu.Lock()
	seeders := s.active[key]
	wave := s.wave
	s.mu.Unlock()
	if len(seeders) == 0 || s.cfg.Peer == nil {
		return "", nil
	}
	start := int(assignHash(s.cfg.Seed, wave, fetcherID, key, chunk, attempt) % uint64(len(seeders)))
	tries := maxPeerTries
	if tries > len(seeders) {
		tries = len(seeders)
	}
	skipped := int64(0)
	for t := 0; t < tries; t++ {
		cand := seeders[(start+t)%len(seeders)]
		if cand == fetcherID {
			continue
		}
		peer, ok := s.cfg.Peer(cand)
		if !ok || peer.Net() == device.Offline {
			skipped++
			continue
		}
		if skipped > 0 {
			s.mu.Lock()
			s.stats.PeerSkips += skipped
			s.mu.Unlock()
		}
		return cand, peer
	}
	if skipped > 0 {
		s.mu.Lock()
		s.stats.PeerSkips += skipped
		s.mu.Unlock()
	}
	return "", nil
}

// assignHash is the draw behind a chunk attempt's source rotation:
// SeedForID over "assign|<fetcher>|<key>|<chunk>|<attempt>", written into a
// stack buffer instead of formatted into a string.
func assignHash(seed, wave uint64, fetcherID, key string, chunk, attempt int) uint64 {
	var buf [128]byte
	b := append(append(append(buf[:0], "assign|"...), fetcherID...), '|')
	b = append(append(b, key...), '|')
	b = append(strconv.AppendInt(b, int64(chunk), 10), '|')
	return engine.SeedForID(seed, wave, strconv.AppendInt(b, int64(attempt), 10))
}

// stateFor returns the device's transfer state for key, synchronized with
// the device's staging slot — the slot is authoritative, because the
// device may have crashed, resumed, or switched images since the swarm
// last saw it. A matching slot with no swarm state is rebuilt from the
// staged flash prefix, hash-checking every chunk it completes; a
// mismatched slot starts fresh. New state replaces what the device held
// for another key: the single staging slot means at most one half-written
// image exists per device.
func (s *Swarm) stateFor(dev *device.Device, key string, m *Manifest, blob []byte, flashTotal int64) (*transferState, error) {
	var devOff int64
	if tok, done, dlTotal, flTotal, ok := dev.StagingDownload(); ok &&
		tok == key && dlTotal == m.TotalBytes && flTotal == flashTotal {
		devOff = done
	}
	s.mu.Lock()
	st := s.inflight[dev.ID]
	s.mu.Unlock()
	if st != nil && st.key == key && st.off == devOff {
		return st, nil
	}
	// Resume: the staged flash prefix holds exactly blob[:devOff] — those
	// bytes were delivered (and charged) by an earlier incarnation, so
	// re-reading them locally is free. Completed chunks re-verify against
	// the manifest in place.
	for i := 0; i < m.ChunkOf(devOff); i++ {
		if err := m.check(blob, i); err != nil {
			return nil, fmt.Errorf("swarm: staged prefix of %s %q: %w", dev.ID, key, err)
		}
	}
	st = &transferState{key: key, off: devOff, base: devOff}
	s.mu.Lock()
	s.inflight[dev.ID] = st
	s.mu.Unlock()
	return st, nil
}

// Transfer fetches the artifact named by key onto the device, chunk by
// chunk, preferring the wave's active seeders and falling back to the
// registry source. Every chunk is hash-checked against the manifest once
// the device holds all of it, and every delivered byte is charged to
// exactly one serving side; an interrupted transfer (crash mid-flash,
// dropped link, dead battery) keeps its state and a retry resumes from the
// exact byte. flashTotal is the flash work the install represents (0 = the
// artifact size; deltas flash less than they download). On success it
// returns the swarm's canonical artifact bytes — the slice Source returned,
// shared by every transfer of key — which the caller must not modify.
func (s *Swarm) Transfer(dev *device.Device, key string, flashTotal int64) ([]byte, *TransferStats, error) {
	if dev == nil {
		return nil, nil, fmt.Errorf("swarm: nil device")
	}
	m, blob, err := s.materialize(key)
	if err != nil {
		return nil, nil, err
	}
	total := m.TotalBytes
	if flashTotal <= 0 {
		flashTotal = total
	}
	st, err := s.stateFor(dev, key, m, blob, flashTotal)
	if err != nil {
		return nil, nil, err
	}
	if st.off > 0 && !st.resumed {
		// A call continuing a prior interrupted incarnation, from the
		// device's staged prefix or from in-memory state, is a resume.
		st.resumed = true
		s.mu.Lock()
		s.stats.Resumed++
		s.mu.Unlock()
	}

	for st.off < total {
		ci := m.ChunkOf(st.off)
		_, cend := m.ChunkSpan(ci)
		span := cend - st.off
		st.attempts++

		peerID, peer := s.pickSource(dev.ID, key, ci, st.attempts)
		serve := span
		if peer != nil && s.cfg.PeerDrop != nil {
			if f := s.cfg.PeerDrop(s.Wave(), st.attempts, dev.ID, peerID, key, ci); f > 0 && f < 1 {
				if serve = int64(float64(span) * f); serve < 1 {
					serve = 1
				}
				s.mu.Lock()
				s.stats.MidChunkDrops++
				s.mu.Unlock()
			}
		}

		written, ierr := dev.InstallChunk(key, serve, total, flashTotal)
		if written > 0 {
			st.off += written
			s.charge(st, peer, written)
		}
		if ierr != nil {
			return nil, nil, fmt.Errorf("swarm: transfer %q to %s: %w", key, dev.ID, ierr)
		}
		if st.off == cend {
			if cerr := m.check(blob, ci); cerr != nil {
				// A corrupt chunk never enters the artifact: the state goes,
				// so a retry rebuilds it from the device's staged prefix,
				// which re-checks the chunk in place.
				s.mu.Lock()
				s.stats.HashRejects++
				delete(s.inflight, dev.ID)
				s.mu.Unlock()
				return nil, nil, fmt.Errorf("swarm: transfer %q to %s: %w", key, dev.ID, cerr)
			}
			s.mu.Lock()
			s.stats.ChunksVerified++
			s.mu.Unlock()
		}
	}

	ts := &TransferStats{TotalBytes: total, FromPeers: st.fromPeers, FromRegistry: st.fromReg}
	s.mu.Lock()
	s.stats.Transfers++
	if st.fromPeers+st.fromReg+st.base != total {
		s.stats.ConservationViolations++
	}
	delete(s.inflight, dev.ID)
	s.mu.Unlock()
	return blob, ts, nil
}

// charge attributes written bytes to their serving side: the peer's
// transmit counters and the swarm's peer-byte ledger, or the registry's
// egress ledger. Charging happens after the device reports what it
// actually wrote, so a crash mid-chunk charges exactly the bytes that
// moved — the conservation invariant is structural, not statistical.
func (s *Swarm) charge(st *transferState, peer *device.Device, written int64) {
	s.mu.Lock()
	s.stats.DeliveredBytes += written
	if peer != nil {
		s.stats.PeerBytes += written
		s.stats.PeerServes++
	} else {
		s.stats.RegistryEgressBytes += written
		s.stats.RegistryServes++
	}
	s.mu.Unlock()
	if peer != nil {
		st.fromPeers += written
		// The peer was online when picked and wave weather is frozen during
		// the fan-out, so the serve cannot fail; if it somehow does, the
		// bytes were still delivered and stay attributed to the peer.
		_, _ = peer.Serve(written)
	} else {
		st.fromReg += written
	}
}
