package device

import (
	"errors"
	"testing"
)

func chunkDevice(t *testing.T, profile string) *Device {
	t.Helper()
	caps, err := ProfileByName(profile)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDevice("chunk-0", caps, nil)
	d.SetNet(WiFi)
	return d
}

func TestInstallChunkExactlyOnceAccounting(t *testing.T) {
	d := chunkDevice(t, "m4-wearable")
	const total, flash = int64(1000), int64(400)
	var dl int64
	for dl < total {
		w, err := d.InstallChunk("full:v1", 256, total, flash)
		if err != nil {
			t.Fatal(err)
		}
		dl += w
	}
	c := d.Snapshot()
	if c.RxBytes != total || c.FlashedBytes != flash {
		t.Fatalf("counters rx=%d fl=%d, want exactly %d/%d", c.RxBytes, c.FlashedBytes, total, flash)
	}
	if _, _, _, _, ok := d.StagingDownload(); ok {
		t.Fatal("staging slot survived a completed chunked install")
	}
}

func TestInstallChunkPersistsSlotBetweenChunks(t *testing.T) {
	d := chunkDevice(t, "m4-wearable")
	if _, err := d.InstallChunk("full:v1", 256, 1000, 1000); err != nil {
		t.Fatal(err)
	}
	tok, done, dlTotal, flTotal, ok := d.StagingDownload()
	if !ok || tok != "full:v1" || done != 256 || dlTotal != 1000 || flTotal != 1000 {
		t.Fatalf("slot = (%q %d %d %d %v), want healthy partial at 256/1000", tok, done, dlTotal, flTotal, ok)
	}
	// A different image discards the stale slot and starts from zero.
	if _, err := d.InstallChunk("full:v2", 256, 2000, 2000); err != nil {
		t.Fatal(err)
	}
	if tok, done, _, _, _ := d.StagingDownload(); tok != "full:v2" || done != 256 {
		t.Fatalf("slot = (%q %d), want fresh v2 at 256", tok, done)
	}
}

func TestInstallChunkCrashResumesFromExactByte(t *testing.T) {
	d := chunkDevice(t, "m4-wearable")
	d.SetInstallInterrupter(func(string, int64) float64 { return 0.5 })
	w, err := d.InstallChunk("full:v1", 400, 400, 400)
	if !errors.Is(err, ErrInstallInterrupted) {
		t.Fatalf("err = %v, want ErrInstallInterrupted", err)
	}
	if w != 200 {
		t.Fatalf("crash wrote %d download bytes, want 200", w)
	}
	d.SetInstallInterrupter(nil)
	// Resume: the remaining 200 bytes finish the image.
	w, err = d.InstallChunk("full:v1", 200, 400, 400)
	if err != nil || w != 200 {
		t.Fatalf("resume wrote %d (%v), want 200", w, err)
	}
	c := d.Snapshot()
	if c.RxBytes != 400 || c.FlashedBytes != 400 {
		t.Fatalf("counters rx=%d fl=%d after crash+resume, want exactly 400/400", c.RxBytes, c.FlashedBytes)
	}
}

func TestInstallChunkFlashProportionality(t *testing.T) {
	// A delta downloads more than it flashes; the per-chunk flash share
	// must telescope to exactly flashTotal with no rounding drift.
	d := chunkDevice(t, "m4-wearable")
	const total, flash = int64(997), int64(311) // coprime: worst case for rounding
	var dl int64
	for dl < total {
		w, err := d.InstallChunk("delta:a>b", 100, total, flash)
		if err != nil {
			t.Fatal(err)
		}
		dl += w
	}
	if c := d.Snapshot(); c.FlashedBytes != flash {
		t.Fatalf("flashed %d, want exactly %d", c.FlashedBytes, flash)
	}
}

func TestInstallChunkRejects(t *testing.T) {
	d := chunkDevice(t, "m4-wearable")
	cases := []struct {
		name                   string
		token                  string
		span, dlTotal, flTotal int64
	}{
		{"empty-token", "", 10, 100, 100},
		{"zero-total", "t", 10, 0, 100},
		{"negative-span", "t", -1, 100, 100},
		{"negative-flash", "t", 10, 100, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := d.InstallChunk(tc.token, tc.span, tc.dlTotal, tc.flTotal); err == nil {
				t.Fatal("invalid chunk install accepted")
			}
		})
	}
}

func TestInstallChunkOfflineAndBattery(t *testing.T) {
	d := chunkDevice(t, "m4-wearable")
	d.SetNet(Offline)
	if _, err := d.InstallChunk("t", 10, 100, 100); !errors.Is(err, ErrOffline) {
		t.Fatalf("offline err = %v", err)
	}
	d.SetNet(WiFi)
	d.SetBatteryLevel(0)
	if _, err := d.InstallChunk("t", 10, 100, 100); !errors.Is(err, ErrBatteryDepleted) {
		t.Fatalf("dead battery err = %v", err)
	}
}

func TestServeChargesTxNotBattery(t *testing.T) {
	d := chunkDevice(t, "m4-wearable")
	before := d.BatteryLevel()
	if _, err := d.Serve(1 << 16); err != nil {
		t.Fatal(err)
	}
	if c := d.Snapshot(); c.TxBytes != 1<<16 {
		t.Fatalf("TxBytes = %d", c.TxBytes)
	}
	if d.BatteryLevel() != before {
		t.Fatal("swarm seeding drained the battery; serving must be charger-gated")
	}
	d.SetNet(Offline)
	if _, err := d.Serve(1); !errors.Is(err, ErrOffline) {
		t.Fatalf("offline serve err = %v", err)
	}
}
