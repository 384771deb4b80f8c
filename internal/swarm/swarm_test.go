package swarm

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"tinymlops/internal/device"
	"tinymlops/internal/engine"
)

// testHarness is a small swarm world: a key->bytes source and a fleet of
// wall-powered gateways (immune to battery faults, so tests control the
// weather explicitly via SetNet).
type testHarness struct {
	blobs map[string][]byte
	devs  map[string]*device.Device
}

func newHarness(t *testing.T, nDevices int) *testHarness {
	t.Helper()
	caps, err := device.ProfileByName("edge-gateway")
	if err != nil {
		t.Fatal(err)
	}
	h := &testHarness{blobs: map[string][]byte{}, devs: map[string]*device.Device{}}
	for i := 0; i < nDevices; i++ {
		id := fmt.Sprintf("dev-%03d", i)
		d := device.NewDevice(id, caps, nil)
		d.SetNet(device.WiFi)
		h.devs[id] = d
	}
	return h
}

func (h *testHarness) swarm(t *testing.T, cfg Config) *Swarm {
	t.Helper()
	cfg.Source = SourceFunc(func(key string) ([]byte, error) {
		b, ok := h.blobs[key]
		if !ok {
			return nil, fmt.Errorf("no blob %q", key)
		}
		return b, nil
	})
	cfg.Peer = func(id string) (*device.Device, bool) { d, ok := h.devs[id]; return d, ok }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTransferRegistryOnly(t *testing.T) {
	h := newHarness(t, 1)
	h.blobs["full:v1"] = testBlob(1000, 1)
	s := h.swarm(t, Config{ChunkBytes: 256, Seed: 7})

	data, ts, err := s.Transfer(h.devs["dev-000"], "full:v1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, h.blobs["full:v1"]) {
		t.Fatal("transferred bytes diverge")
	}
	if ts.FromRegistry != 1000 || ts.FromPeers != 0 || ts.TotalBytes != 1000 {
		t.Fatalf("split = %+v, want all registry", ts)
	}
	st := s.Stats()
	if st.RegistryEgressBytes != 1000 || st.PeerBytes != 0 || st.DeliveredBytes != 1000 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ChunksVerified != 4 || st.ConservationViolations != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if s.InFlight() != 0 {
		t.Fatalf("in flight = %d after completion", s.InFlight())
	}
}

func TestTransferPrefersPeers(t *testing.T) {
	h := newHarness(t, 3)
	h.blobs["full:v1"] = testBlob(2048, 2)
	s := h.swarm(t, Config{ChunkBytes: 256, Seed: 7})

	// Canary: dev-000 fetches from the registry and registers as a seeder.
	if _, _, err := s.Transfer(h.devs["dev-000"], "full:v1", 0); err != nil {
		t.Fatal(err)
	}
	s.AddSeeder("full:v1", "dev-000")
	s.AdvanceWave()

	// Next wave: dev-001 must source every byte from dev-000.
	_, ts, err := s.Transfer(h.devs["dev-001"], "full:v1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ts.FromPeers != 2048 || ts.FromRegistry != 0 {
		t.Fatalf("split = %+v, want all peer", ts)
	}
	if tx := h.devs["dev-000"].Snapshot().TxBytes; tx != 2048 {
		t.Fatalf("seeder TxBytes = %d, want 2048", tx)
	}
	st := s.Stats()
	if st.RegistryEgressBytes+st.PeerBytes != st.DeliveredBytes {
		t.Fatalf("conservation broken: %+v", st)
	}
}

func TestTransferPeerOfflineFallsBack(t *testing.T) {
	h := newHarness(t, 2)
	// Wall-powered profiles are forced online, so the offline seeder must
	// be battery-powered for the weather to bite.
	caps, _ := device.ProfileByName("m4-wearable")
	seeder := device.NewDevice("bat-seeder", caps, nil)
	h.devs["bat-seeder"] = seeder
	h.blobs["full:v1"] = testBlob(1024, 3)
	s := h.swarm(t, Config{ChunkBytes: 256, Seed: 7})
	s.AddSeeder("full:v1", "bat-seeder")
	s.AdvanceWave()
	seeder.SetNet(device.Offline)

	_, ts, err := s.Transfer(h.devs["dev-001"], "full:v1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ts.FromRegistry != 1024 || ts.FromPeers != 0 {
		t.Fatalf("split = %+v, want registry fallback", ts)
	}
	if s.Stats().PeerSkips == 0 {
		t.Fatal("offline seeder was never counted as skipped")
	}
}

func TestTransferSelfIsNeverAPeer(t *testing.T) {
	h := newHarness(t, 1)
	h.blobs["full:v1"] = testBlob(512, 4)
	s := h.swarm(t, Config{ChunkBytes: 256, Seed: 7})
	s.AddSeeder("full:v1", "dev-000")
	s.AdvanceWave()

	// The only seeder is the fetcher itself: registry serves.
	_, ts, err := s.Transfer(h.devs["dev-000"], "full:v1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if ts.FromRegistry != 512 {
		t.Fatalf("split = %+v, want registry", ts)
	}
}

func TestTransferResumesInterruptedInstall(t *testing.T) {
	h := newHarness(t, 1)
	caps, _ := device.ProfileByName("m4-wearable") // battery-powered: interrupter applies
	d := device.NewDevice("bat-0", caps, nil)
	d.SetNet(device.WiFi)
	h.devs["bat-0"] = d
	h.blobs["full:v1"] = testBlob(4096, 5)
	s := h.swarm(t, Config{ChunkBytes: 512, Seed: 7})

	// Crash the third install call partway through its chunk.
	calls := 0
	d.SetInstallInterrupter(func(string, int64) float64 {
		calls++
		if calls == 3 {
			return 0.5
		}
		return 1
	})
	_, _, err := s.Transfer(d, "full:v1", 0)
	if !errors.Is(err, device.ErrInstallInterrupted) {
		t.Fatalf("err = %v, want ErrInstallInterrupted", err)
	}
	if s.InFlight() != 1 {
		t.Fatalf("in flight = %d after interruption", s.InFlight())
	}
	rxAfterCrash := d.Snapshot().RxBytes

	// Retry: resumes from the exact byte, so total delivered == artifact.
	d.SetInstallInterrupter(nil)
	data, _, err := s.Transfer(d, "full:v1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, h.blobs["full:v1"]) {
		t.Fatal("resumed artifact diverges")
	}
	if rx := d.Snapshot().RxBytes; rx != 4096 {
		t.Fatalf("device downloaded %d bytes total (crash left %d), want exactly 4096", rx, rxAfterCrash)
	}
	st := s.Stats()
	if st.DeliveredBytes != 4096 || st.RegistryEgressBytes+st.PeerBytes != st.DeliveredBytes {
		t.Fatalf("ledger %+v: every byte must be delivered exactly once", st)
	}
	if st.Resumed != 1 || st.ConservationViolations != 0 {
		t.Fatalf("ledger %+v", st)
	}
	if s.InFlight() != 0 {
		t.Fatalf("in flight = %d after completion", s.InFlight())
	}
}

func TestTransferMidChunkPeerDrop(t *testing.T) {
	h := newHarness(t, 2)
	h.blobs["full:v1"] = testBlob(2048, 6)
	drops := 0
	s := h.swarm(t, Config{
		ChunkBytes: 512, Seed: 7,
		PeerDrop: func(_ uint64, attempt int, _, _, _ string, _ int) float64 {
			if attempt%2 == 1 {
				drops++
				return 0.5
			}
			return 1
		},
	})
	s.AddSeeder("full:v1", "dev-000")
	s.AdvanceWave()

	data, _, err := s.Transfer(h.devs["dev-001"], "full:v1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, h.blobs["full:v1"]) {
		t.Fatal("artifact diverges after mid-chunk drops")
	}
	st := s.Stats()
	if drops == 0 || st.MidChunkDrops == 0 {
		t.Fatal("drop injector never fired")
	}
	if st.DeliveredBytes != 2048 || st.RegistryEgressBytes+st.PeerBytes != 2048 {
		t.Fatalf("ledger %+v after drops", st)
	}
}

func TestTransferErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) error
		want string
	}{
		{"unknown-key", func(t *testing.T) error {
			h := newHarness(t, 1)
			s := h.swarm(t, Config{ChunkBytes: 256})
			_, _, err := s.Transfer(h.devs["dev-000"], "full:nope", 0)
			return err
		}, "no blob"},
		{"zero-length-artifact", func(t *testing.T) error {
			h := newHarness(t, 1)
			h.blobs["full:v1"] = nil
			s := h.swarm(t, Config{ChunkBytes: 256})
			_, _, err := s.Transfer(h.devs["dev-000"], "full:v1", 0)
			return err
		}, ErrEmptyArtifact.Error()},
		{"fetcher-offline", func(t *testing.T) error {
			h := newHarness(t, 1)
			h.blobs["full:v1"] = testBlob(512, 1)
			caps, _ := device.ProfileByName("m4-wearable")
			d := device.NewDevice("bat-1", caps, nil)
			d.SetNet(device.Offline)
			h.devs["bat-1"] = d
			s := h.swarm(t, Config{ChunkBytes: 256})
			_, _, err := s.Transfer(d, "full:v1", 0)
			return err
		}, device.ErrOffline.Error()},
		{"nil-device", func(t *testing.T) error {
			h := newHarness(t, 1)
			h.blobs["full:v1"] = testBlob(512, 1)
			s := h.swarm(t, Config{ChunkBytes: 256})
			_, _, err := s.Transfer(nil, "full:v1", 0)
			return err
		}, "nil device"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(t)
			if err == nil || !bytes.Contains([]byte(err.Error()), []byte(tc.want)) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestSwarmSourceCorruptionRejected models a corrupt source: bytes that
// change after the manifest is cut. The chunk holding the change is
// rejected on receipt, and the retry re-checks the staged prefix in place,
// so it is rejected again while the bytes stay corrupt. No call returns
// bytes until they are restored.
func TestSwarmSourceCorruptionRejected(t *testing.T) {
	h := newHarness(t, 2)
	blob := testBlob(1024, 8)
	h.blobs["full:v1"] = blob
	s := h.swarm(t, Config{ChunkBytes: 256})
	// dev-000's transfer cuts the manifest from the true bytes.
	if _, _, err := s.Transfer(h.devs["dev-000"], "full:v1", 0); err != nil {
		t.Fatal(err)
	}
	blob[300] ^= 0x80 // chunk 1
	dev := h.devs["dev-001"]
	for _, call := range []string{"update", "retry"} {
		data, _, err := s.Transfer(dev, "full:v1", 0)
		if !errors.Is(err, ErrChunkHashMismatch) || data != nil {
			t.Fatalf("%s with corrupt bytes: err = %v and %d bytes, want ErrChunkHashMismatch and none", call, err, len(data))
		}
	}
	if got := s.Stats().HashRejects; got != 1 {
		t.Fatalf("HashRejects = %d, want 1 (the receipt check; the retry fails re-checking the staged prefix)", got)
	}

	blob[300] ^= 0x80
	data, ts, err := s.Transfer(dev, "full:v1", 0)
	if err != nil {
		t.Fatalf("retry after the bytes were restored: %v", err)
	}
	if !bytes.Equal(data, testBlob(1024, 8)) {
		t.Fatal("restored transfer returned bytes that diverge from the source's")
	}
	if got, want := ts.FromPeers+ts.FromRegistry, int64(512); got != want {
		t.Fatalf("restored transfer moved %d B, want %d: the verified staged prefix is kept", got, want)
	}
	if st := s.Stats(); st.Transfers != 2 || st.ConservationViolations != 0 {
		t.Fatalf("ledger %+v, want 2 transfers and no conservation violation", st)
	}
}

// TestTransferResumeBoundaries stages a device's prefix where a resume must
// continue from the exact byte — a chunk end, one byte into a chunk, one
// byte short of the artifact — with no swarm state for it, as after an
// earlier incarnation of the install, and pins what the resumed transfer
// returns and counts.
func TestTransferResumeBoundaries(t *testing.T) {
	const size, chunk = 1000, 256 // chunks end at 256, 512, 768 and 1000
	for _, tc := range []struct {
		name     string
		staged   int64
		verified int64
	}{
		{"chunk-end", 512, 2},
		{"one-byte-into-chunk", 513, 2},
		{"one-byte-short", size - 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 1)
			h.blobs["full:v1"] = testBlob(size, 12)
			s := h.swarm(t, Config{ChunkBytes: chunk, Seed: 7})
			dev := h.devs["dev-000"]
			if _, err := dev.InstallChunk("full:v1", tc.staged, size, size); err != nil {
				t.Fatal(err)
			}
			data, ts, err := s.Transfer(dev, "full:v1", 0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, h.blobs["full:v1"]) {
				t.Errorf("returned bytes diverge from the source's")
			}
			if got := ts.FromPeers + ts.FromRegistry + tc.staged; got != ts.TotalBytes {
				t.Errorf("peers %d + registry %d + staged %d = %d B, want TotalBytes %d",
					ts.FromPeers, ts.FromRegistry, tc.staged, got, ts.TotalBytes)
			}
			st := s.Stats()
			if st.ChunksVerified != tc.verified {
				t.Errorf("ChunksVerified = %d, want %d (the chunks received in this call)", st.ChunksVerified, tc.verified)
			}
			if st.Resumed != 1 {
				t.Errorf("Resumed = %d, want 1", st.Resumed)
			}
		})
	}
}

// TestTransferDeterministicProvenance pins the core invariant: with the
// same seed, fleet and seeder sets, every byte's provenance (peer vs
// registry split, per device) is identical regardless of the order
// concurrent transfers interleave.
func TestTransferDeterministicProvenance(t *testing.T) {
	run := func(workers int) (map[string]TransferStats, Stats) {
		h := newHarness(t, 17)
		h.blobs["full:v1"] = testBlob(8192, 10)
		s := h.swarm(t, Config{ChunkBytes: 512, Seed: 99})
		for i := 0; i < 4; i++ {
			s.AddSeeder("full:v1", fmt.Sprintf("dev-%03d", i))
		}
		s.AdvanceWave()

		ids := make([]string, 0, 13)
		for i := 4; i < 17; i++ {
			ids = append(ids, fmt.Sprintf("dev-%03d", i))
		}
		out := make([]TransferStats, len(ids))
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i := range ids {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				_, ts, err := s.Transfer(h.devs[ids[i]], "full:v1", 0)
				if err != nil {
					t.Error(err)
					return
				}
				out[i] = *ts
			}(i)
		}
		wg.Wait()
		m := make(map[string]TransferStats, len(ids))
		for i, id := range ids {
			m[id] = out[i]
		}
		return m, s.Stats()
	}

	seq, seqStats := run(1)
	par, parStats := run(8)
	for id, ts := range seq {
		if par[id] != ts {
			t.Fatalf("%s provenance diverged: sequential %+v, parallel %+v", id, ts, par[id])
		}
	}
	if seqStats != parStats {
		t.Fatalf("aggregate stats diverged:\nseq %+v\npar %+v", seqStats, parStats)
	}
}

// TestSwarmSharedConcurrentUse drives one Swarm from 64 goroutines mixing
// every public method and the manifest cache — the -race sentinel for the shared coordinator.
func TestSwarmSharedConcurrentUse(t *testing.T) {
	h := newHarness(t, 64)
	for k := 0; k < 4; k++ {
		h.blobs[fmt.Sprintf("full:v%d", k)] = testBlob(2048+257*k, uint64(k))
	}
	s := h.swarm(t, Config{ChunkBytes: 256, Seed: 5})
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("dev-%03d", g)
			key := fmt.Sprintf("full:v%d", g%4)
			switch g % 8 {
			case 6:
				s.AdvanceWave()
				s.RemovePending(id)
			case 7:
				_ = s.Stats()
				_ = s.InFlight()
				_, _, _ = s.materialize(key)
				_ = s.Wave()
			default:
				if _, _, err := s.Transfer(h.devs[id], key, 0); err != nil {
					t.Error(err)
					return
				}
				s.AddSeeder(key, id)
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.RegistryEgressBytes+st.PeerBytes != st.DeliveredBytes {
		t.Fatalf("conservation broken under concurrency: %+v", st)
	}
	if st.ConservationViolations != 0 || st.HashRejects != 0 {
		t.Fatalf("ledger %+v", st)
	}
}

// TestAssignHashMatchesFormattedKey holds the chunk assignment to the
// string it was first drawn from: assignHash writes the parts into a byte
// buffer, and must seed exactly as SeedForID over the formatted key does,
// or every peer assignment — and every swarm and chaos fingerprint — moves.
func TestAssignHashMatchesFormattedKey(t *testing.T) {
	long := strings.Repeat("gateway-", 20) // past the stack buffer
	for _, c := range []struct {
		seed, wave     uint64
		fetcher, key   string
		chunk, attempt int
	}{
		{0, 0, "dev-000", "full:0123456789abcdef", 0, 1},
		{73, 2, "m4-wearable-0007", "delta:0123456789abcdef>fedcba9876543210", 3, 1},
		{73, 2, "", "delta:0123456789abcdef>fedcba9876543210", 0, 1},
		{1 << 63, 17, "phone-0001", "full:fedcba9876543210", 1234, 56789},
		{5, 1, "npu-board-0003", "delta:aaaaaaaaaaaaaaaa>bbbbbbbbbbbbbbbb", 10, 100},
		{9, 3, long, "full:0123456789abcdef", 99, 12},
	} {
		want := engine.SeedForID(c.seed, c.wave, fmt.Sprintf("assign|%s|%s|%d|%d", c.fetcher, c.key, c.chunk, c.attempt))
		if got := assignHash(c.seed, c.wave, c.fetcher, c.key, c.chunk, c.attempt); got != want {
			t.Errorf("assignHash(%d, %d, %q, %q, %d, %d) = %#x, want %#x", c.seed, c.wave, c.fetcher, c.key, c.chunk, c.attempt, got, want)
		}
	}
}

func TestNewRejectsMissingSource(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a config without a Source")
	}
}
