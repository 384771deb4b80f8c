package faults

import (
	"errors"
	"testing"

	"tinymlops/internal/device"
	"tinymlops/internal/tensor"
)

func testChaos() ChaosConfig {
	return ChaosConfig{
		Seed: 99, PDrop: 0.1, PSpike: 0.2, PBatteryDeath: 0.05,
		PCrash: 0.3, PChurn: 0.05, PTelemetryLoss: 0.1,
		PDropout: 0.2, PStraggler: 0.3,
	}
}

func TestProfileIsPureAndSeedKeyed(t *testing.T) {
	p := New(testChaos())
	a := p.Profile(3, "phone-00")
	for i := 0; i < 10; i++ {
		if p.Profile(3, "phone-00") != a {
			t.Fatal("Profile not pure")
		}
	}
	q := New(testChaos())
	if q.Profile(3, "phone-00") != a {
		t.Fatal("Profile depends on plane instance, not (seed, round, id)")
	}
	other := testChaos()
	other.Seed = 100
	diff := 0
	for r := uint64(0); r < 64; r++ {
		if New(other).Profile(r, "phone-00") != p.Profile(r, "phone-00") {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds drew identical fault histories")
	}
}

func TestProfileRatesRoughlyMatchConfig(t *testing.T) {
	cfg := ChaosConfig{Seed: 7, PDrop: 0.2, PCrash: 0}
	p := New(cfg)
	offline := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if p.Profile(1, deviceID(i)).Offline {
			offline++
		}
	}
	frac := float64(offline) / n
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("offline fraction %.3f, want ≈0.2", frac)
	}
	// Zero config injects nothing.
	calm := New(ChaosConfig{Seed: 7})
	for i := 0; i < 100; i++ {
		f := calm.Profile(1, deviceID(i))
		if f.Offline || f.BatteryDeath || f.Churned || f.Dropout || f.Straggler || f.TelemetryLoss || f.LatencySpike {
			t.Fatalf("zero-rate plane injected %+v", f)
		}
	}
}

func deviceID(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+(i/26)%10)) + string(rune('0'+i/260))
}

func TestChurnSpansTwoRounds(t *testing.T) {
	cfg := ChaosConfig{Seed: 3, PChurn: 0.2}
	p := New(cfg)
	// Find a device that churns in some round and verify the absence
	// covers the next round too.
	found := false
	for i := 0; i < 200 && !found; i++ {
		id := deviceID(i)
		for r := uint64(1); r < 8; r++ {
			drawn := p.draw("churn", r, id) < cfg.PChurn
			if !drawn {
				continue
			}
			found = true
			if !p.Profile(r, id).Churned || !p.Profile(r, id).Offline {
				t.Fatalf("%s churned in round %d but profile disagrees", id, r)
			}
			if !p.Profile(r+1, id).Churned {
				t.Fatalf("%s must stay away in round %d", id, r+1)
			}
			break
		}
	}
	if !found {
		t.Fatal("no churn drawn in 200 devices × 8 rounds at 20%")
	}
}

func TestApplyRoundImposesWeather(t *testing.T) {
	fleet, err := device.NewStandardFleet(device.FleetSpec{CountPerProfile: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	devs := fleet.Devices()
	p := New(testChaos())
	rep := p.ApplyRound(1, devs)
	if rep.Offline == 0 || rep.LatencySpikes == 0 || rep.BatteryDeaths == 0 {
		t.Fatalf("weather too calm: %+v", rep)
	}
	for _, d := range devs {
		f := p.Profile(1, d.ID)
		wantNet := device.WiFi
		switch {
		case f.Offline:
			wantNet = device.Offline
		case f.LatencySpike:
			wantNet = device.Cellular
		}
		if !d.Caps.WallPowered() && d.Net() != wantNet {
			t.Fatalf("%s net %v, profile wants %v", d.ID, d.Net(), wantNet)
		}
		if d.Caps.WallPowered() {
			continue // battery faults cannot touch wall power
		}
		if f.BatteryDeath && d.BatteryLevel() != 0 {
			t.Fatalf("%s battery alive despite death fault", d.ID)
		}
		if !f.BatteryDeath && d.BatteryLevel() != 1 {
			t.Fatalf("%s battery %v, want recharged", d.ID, d.BatteryLevel())
		}
	}
	// Calm clears everything.
	p.Calm(devs)
	for _, d := range devs {
		if d.Net() != device.WiFi || d.BatteryLevel() != 1 {
			t.Fatalf("%s not calmed", d.ID)
		}
	}
}

func TestArmedInterrupterCrashesDeterministically(t *testing.T) {
	run := func() (int64, []int64) {
		p := New(ChaosConfig{Seed: 31, PCrash: 0.5})
		caps, _ := device.ProfileByName("edge-gateway")
		var flashed []int64
		for i := 0; i < 40; i++ {
			d := device.NewDevice(deviceID(i), caps, tensor.NewRNG(1))
			p.Arm(d)
			// Retry the same image until it completes.
			for attempt := 0; attempt < 50; attempt++ {
				if _, err := d.InstallResumable("img", 10000, 10000); err == nil {
					break
				} else if !errors.Is(err, device.ErrInstallInterrupted) {
					t.Fatal(err)
				}
			}
			c := d.Snapshot()
			flashed = append(flashed, c.FlashedBytes)
		}
		return p.Crashes(), flashed
	}
	c1, f1 := run()
	c2, f2 := run()
	if c1 == 0 {
		t.Fatal("no crashes at 50% rate")
	}
	if c1 != c2 {
		t.Fatalf("crash counts differ across identical runs: %d vs %d", c1, c2)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("device %d flashed %d vs %d across identical runs", i, f1[i], f2[i])
		}
		// Resume-not-restart: across any number of crashed attempts the
		// device programs each byte of the image exactly once.
		if f1[i] != 10000 {
			t.Fatalf("device %d flashed %d bytes for a 10000-byte image", i, f1[i])
		}
	}
}

func TestFedFaultsAdapter(t *testing.T) {
	p := New(ChaosConfig{Seed: 17, PDropout: 1, PStraggler: 1})
	ff := p.FedFaults()
	f := ff(2, "client-3")
	if !f.Dropout {
		t.Fatal("dropout rate 1 must drop every client")
	}
	calm := New(ChaosConfig{Seed: 17, PStraggler: 1})
	g := calm.FedFaults()(2, "client-3")
	if g.Dropout || g.SlowFactor != 8 {
		t.Fatalf("straggler fault = %+v, want SlowFactor 8", g)
	}
}
