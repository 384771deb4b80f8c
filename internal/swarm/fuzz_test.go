package swarm

import (
	"bytes"
	"errors"
	"testing"

	"tinymlops/internal/device"
)

// FuzzChunkReassembly drives Transfer over fuzzed artifact bytes, chunk
// size and install-interrupt schedule. A byte of crashes in [1,254] crashes
// that install call after crashes[i]/255 of its work; each interrupted
// call returns no bytes and the retry resumes it. A completed transfer must
// return exactly the source's bytes, each delivered once. Then a byte of
// the source, flip, is changed after the manifest was cut: a second
// device's transfer, fed by the first, must fail with ErrChunkHashMismatch
// and return no bytes, and so must its retry, until the byte is restored.
func FuzzChunkReassembly(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(3), []byte{128}, uint16(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(1), []byte{0, 200, 1}, uint16(8))
	f.Add([]byte("abcdefgh"), uint8(3), []byte{255, 64, 64}, uint16(5))
	f.Add([]byte("abcdefgh"), uint8(200), []byte(nil), uint16(300))

	f.Fuzz(func(t *testing.T, artifact []byte, chunk uint8, crashes []byte, flip uint16) {
		if len(artifact) == 0 {
			return
		}
		const key = "full:fuzz"
		h := newHarness(t, 2)
		src := bytes.Clone(artifact)
		h.blobs[key] = src
		s := h.swarm(t, Config{ChunkBytes: int64(chunk%32) + 1, Seed: 3})
		fetch := func(d *device.Device) ([]byte, error) {
			calls := 0
			d.SetInstallInterrupter(func(string, int64) float64 {
				if calls++; calls <= len(crashes) {
					return float64(crashes[calls-1]) / 255
				}
				return 1
			})
			for interrupted := 0; ; interrupted++ {
				data, _, err := s.Transfer(d, key, 0)
				if !errors.Is(err, device.ErrInstallInterrupted) {
					return data, err
				}
				if data != nil {
					t.Fatal("an interrupted transfer returned bytes")
				}
				if interrupted >= len(crashes) {
					t.Fatalf("%d interrupted calls, %d crashes scheduled", interrupted+1, len(crashes))
				}
			}
		}

		seeder, fetcher := h.devs["dev-000"], h.devs["dev-001"]
		data, err := fetch(seeder)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, artifact) {
			t.Fatal("transferred bytes diverge from the source's")
		}
		st := s.Stats()
		if n := int64(len(artifact)); st.DeliveredBytes != n || seeder.Snapshot().RxBytes != n ||
			st.RegistryEgressBytes+st.PeerBytes != n || st.ConservationViolations != 0 {
			t.Fatalf("ledger %+v, device received %d B: want each of the %d bytes delivered once",
				st, seeder.Snapshot().RxBytes, n)
		}
		s.AddSeeder(key, seeder.ID)
		s.AdvanceWave()

		at := int(flip) % len(src)
		src[at] ^= 0xFF
		for _, call := range []string{"update", "retry"} {
			if data, err := fetch(fetcher); !errors.Is(err, ErrChunkHashMismatch) || data != nil {
				t.Fatalf("%s with byte %d corrupt: err = %v and %d bytes, want ErrChunkHashMismatch and none",
					call, at, err, len(data))
			}
		}
		src[at] ^= 0xFF
		if data, err = fetch(fetcher); err != nil || !bytes.Equal(data, artifact) {
			t.Fatalf("after the byte was restored: err = %v, bytes equal: %v", err, bytes.Equal(data, artifact))
		}
		if st := s.Stats(); st.ConservationViolations != 0 {
			t.Fatalf("ledger %+v: a transfer's split does not sum to the artifact", st)
		}
	})
}
