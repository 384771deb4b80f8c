package device

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestStandardProfilesDistinctAndOrdered(t *testing.T) {
	profiles := StandardProfiles()
	if len(profiles) != 6 {
		t.Fatalf("got %d profiles", len(profiles))
	}
	seen := make(map[string]bool)
	for _, p := range profiles {
		if seen[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if p.ClockHz <= 0 || p.FlashBytes <= 0 || p.RAMBytes <= 0 {
			t.Fatalf("profile %q has nonsensical caps", p.Name)
		}
		if _, ok := p.MACsPerCycle[32]; !ok {
			t.Fatalf("profile %q lacks an fp32 rate", p.Name)
		}
	}
	// Best-case compute capability (over all supported bit widths) should
	// rise from M0 to edge server; fp32 alone need not be monotone — the
	// NPU board pairs a weak CPU with a strong int8 accelerator.
	var prev float64
	for _, p := range profiles {
		var best float64
		for _, r := range p.MACsPerCycle {
			if r > best {
				best = r
			}
		}
		rate := best * p.ClockHz
		if rate < prev {
			t.Fatalf("profile %q is slower (best-case) than its predecessor", p.Name)
		}
		prev = rate
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("phone")
	if err != nil || p.Class != ClassMobile {
		t.Fatalf("ProfileByName(phone) = %v, %v", p.Class, err)
	}
	if _, err := ProfileByName("toaster"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestInferenceLatencyHWSupportMatters(t *testing.T) {
	npu, _ := ProfileByName("npu-board")
	const macs = 1_000_000
	fp32 := npu.InferenceLatency(macs, 32)
	int8 := npu.InferenceLatency(macs, 8)
	// NPU: int8 is 128× the fp32 rate here.
	if int8 >= fp32 {
		t.Fatalf("int8 (%v) should be much faster than fp32 (%v) on the NPU", int8, fp32)
	}
	// Ternary has no native support: pays emulation penalty over fp32.
	tern := npu.InferenceLatency(macs, 2)
	if tern <= fp32 {
		t.Fatalf("unsupported width (%v) should be slower than fp32 (%v)", tern, fp32)
	}
}

func TestSupportsBitsAndOps(t *testing.T) {
	m0, _ := ProfileByName("m0-sensor")
	if !m0.SupportsBits(8) || m0.SupportsBits(4) {
		t.Fatalf("m0 bit support wrong: %v", m0.MACsPerCycle)
	}
	if m0.SupportsOp("conv2d") {
		t.Fatal("m0 should not support conv2d")
	}
	if !m0.SupportsOp("dense") {
		t.Fatal("m0 must support dense")
	}
}

func TestDeviceBatteryDrainsAndCharges(t *testing.T) {
	caps, _ := ProfileByName("m0-sensor")
	d := NewDevice("d0", caps, nil)
	if d.BatteryLevel() != 1 {
		t.Fatalf("fresh battery level %v", d.BatteryLevel())
	}
	// Drain with a huge inference load.
	macs := int64(caps.BatteryJoule / caps.EnergyPerMACJoule / 2)
	if _, err := d.RunInference(macs, 8); err != nil {
		t.Fatal(err)
	}
	if lv := d.BatteryLevel(); lv > 0.51 || lv < 0.49 {
		t.Fatalf("battery after half drain = %v", lv)
	}
	// Deplete and verify the error path.
	if _, err := d.RunInference(macs*2, 8); !errors.Is(err, ErrBatteryDepleted) {
		t.Fatalf("expected battery error, got %v", err)
	}
	// A full recharge.
	d.SetBatteryLevel(1)
	if lv := d.BatteryLevel(); lv != 1 {
		t.Fatalf("battery after recharge = %v, want 1", lv)
	}
}

func TestWallPoweredDeviceNeverDrains(t *testing.T) {
	caps, _ := ProfileByName("edge-gateway")
	d := NewDevice("gw", caps, nil)
	if _, err := d.RunInference(1e12, 32); err != nil {
		t.Fatal(err)
	}
	if d.BatteryLevel() != 1 || !d.Charging() || d.Net() != WiFi {
		t.Fatal("wall-powered device must be always-on")
	}
}

func TestCheckFit(t *testing.T) {
	caps, _ := ProfileByName("m4-wearable")
	d := NewDevice("w0", caps, nil)
	if err := d.CheckFit(100<<10, 50<<10); err != nil {
		t.Fatalf("small model should fit: %v", err)
	}
	if err := d.CheckFit(10<<20, 1<<10); !errors.Is(err, ErrModelTooLarge) {
		t.Fatalf("want ErrModelTooLarge, got %v", err)
	}
	if err := d.CheckFit(1<<10, 10<<20); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("want ErrOutOfMemory, got %v", err)
	}
}

func TestDownloadUploadRequireConnectivity(t *testing.T) {
	caps, _ := ProfileByName("phone")
	d := NewDevice("p0", caps, nil)
	// Fresh device is offline.
	if _, err := d.Download(1000); err == nil {
		t.Fatal("offline download should fail")
	}
	d.SetNet(WiFi)
	dur, err := d.Download(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Fatalf("download duration = %v", dur)
	}
	if _, err := d.Upload(1 << 10); err != nil {
		t.Fatal(err)
	}
	c := d.Snapshot()
	if c.RxBytes != 1<<20 || c.TxBytes != 1<<10 {
		t.Fatalf("counters rx=%d tx=%d", c.RxBytes, c.TxBytes)
	}
}

func TestCountersAccumulate(t *testing.T) {
	caps, _ := ProfileByName("m7-camera")
	d := NewDevice("c0", caps, nil)
	for i := 0; i < 10; i++ {
		if _, err := d.RunInference(1000, 8); err != nil {
			t.Fatal(err)
		}
	}
	d.DenyQuery()
	c := d.Snapshot()
	if c.Inferences != 10 || c.DeniedQueries != 1 {
		t.Fatalf("counters = %+v", c)
	}
	if c.EnergyJoule <= 0 {
		t.Fatalf("energy not accounted: %+v", c)
	}
}

func TestDeviceConcurrentSafety(t *testing.T) {
	caps, _ := ProfileByName("phone")
	d := NewDevice("p1", caps, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				d.RunInference(100, 8) //nolint:errcheck
				d.SetCharging(j%2 == 0)
				d.SetNet(NetState(j % 3))
				d.BatteryLevel()
				d.Charging()
				d.Net()
			}
		}()
	}
	wg.Wait()
	if got := d.Snapshot().Inferences; got != 800 {
		t.Fatalf("lost inferences under concurrency: %d", got)
	}
}

func TestFleetAddGetAndDuplicate(t *testing.T) {
	f := NewFleet()
	caps, _ := ProfileByName("phone")
	d := NewDevice("a", caps, nil)
	if err := f.Add(d); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(NewDevice("a", caps, nil)); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	got, ok := f.Get("a")
	if !ok || got != d {
		t.Fatal("Get failed")
	}
	if _, ok := f.Get("missing"); ok {
		t.Fatal("Get returned missing device")
	}
}

func TestNewStandardFleetDeterministic(t *testing.T) {
	f1, err := NewStandardFleet(FleetSpec{CountPerProfile: 2})
	if err != nil {
		t.Fatal(err)
	}
	if f1.Size() != 12 {
		t.Fatalf("fleet size %d, want 12", f1.Size())
	}
	f2, _ := NewStandardFleet(FleetSpec{CountPerProfile: 2})
	// Two fleets of one size are the same devices in the same order.
	d1, d2 := f1.Devices(), f2.Devices()
	for i := range d1 {
		if d1[i].ID != d2[i].ID {
			t.Fatalf("device %d: %s vs %s", i, d1[i].ID, d2[i].ID)
		}
	}
}

func TestFleetEligible(t *testing.T) {
	f, _ := NewStandardFleet(FleetSpec{CountPerProfile: 3})
	// Force a subset into the eligible state.
	for i, d := range f.Devices() {
		if i%2 == 0 {
			d.SetNet(WiFi)
			d.SetCharging(true)
		}
	}
	for i, d := range f.Devices() {
		if i%2 == 0 && (!d.Charging() || d.Net() != WiFi) {
			t.Fatalf("device %s forced onto a charger and WiFi is not eligible", d.ID)
		}
	}
}

func TestNetStateStringsAndBandwidth(t *testing.T) {
	if Offline.String() != "offline" || Cellular.String() != "cellular" || WiFi.String() != "wifi" {
		t.Fatal("NetState strings wrong")
	}
	if Offline.Bandwidth() != 0 {
		t.Fatal("offline bandwidth must be 0")
	}
	if WiFi.Bandwidth() <= Cellular.Bandwidth() {
		t.Fatal("wifi must be faster than cellular")
	}
}

func TestClassStrings(t *testing.T) {
	for c, want := range map[Class]string{
		ClassM0: "cortex-m0", ClassM4: "cortex-m4", ClassM7: "cortex-m7",
		ClassNPU: "mcu-npu", ClassMobile: "mobile", ClassEdgeServer: "edge-server",
	} {
		if c.String() != want {
			t.Fatalf("%d.String() = %q", c, c.String())
		}
	}
}

func TestInferenceLatencyPositiveAndScales(t *testing.T) {
	m4, _ := ProfileByName("m4-wearable")
	l1 := m4.InferenceLatency(1_000_000, 32)
	l2 := m4.InferenceLatency(2_000_000, 32)
	if l1 <= 0 {
		t.Fatal("latency must be positive")
	}
	ratio := float64(l2) / float64(l1)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("latency should scale linearly in MACs, ratio=%v", ratio)
	}
	if l1 < time.Microsecond {
		t.Fatalf("1M MACs on an M4 should take milliseconds, got %v", l1)
	}
}

// TestFleetShardedConcurrentAccess hammers the sharded fleet index from
// concurrent adders, readers and tickers; the race detector plus the final
// insertion-order check guard the sharding refactor.
func TestFleetShardedConcurrentAccess(t *testing.T) {
	f := NewFleet()
	caps, _ := ProfileByName("phone")
	const n = 200
	ids := make([]string, n)
	for i := range ids {
		ids[i] = "phone-" + string(rune('a'+i/26%26)) + string(rune('a'+i%26)) + string(rune('0'+i/676))
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := f.Add(NewDevice(ids[i], caps, nil)); err != nil {
				t.Error(err)
			}
		}(i)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				f.Get(ids[k%n])
				if g == 0 {
					f.Size()
					f.Devices()
				}
			}
		}(g)
	}
	wg.Wait()
	if f.Size() != n {
		t.Fatalf("size %d after concurrent adds", f.Size())
	}
	for _, id := range ids {
		if _, ok := f.Get(id); !ok {
			t.Fatalf("device %s lost", id)
		}
	}
	if err := f.Add(NewDevice(ids[0], caps, nil)); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if len(f.Devices()) != n {
		t.Fatalf("Devices() returned %d entries", len(f.Devices()))
	}
}

// TestSetNetAndBatteryOverrides pins the device's weather contract: a fresh
// device is offline, off the charger and full; SetCharging and SetNet move
// only the state they name; SetBatteryLevel clamps; and a wall-powered
// device stays full, charging and on WiFi whatever is set.
func TestSetNetAndBatteryOverrides(t *testing.T) {
	caps, _ := ProfileByName("phone")
	d := NewDevice("p1", caps, nil)
	if d.Net() != Offline || d.Charging() || d.BatteryLevel() != 1 {
		t.Fatalf("fresh device: net %v charging %v battery %v, want offline false 1",
			d.Net(), d.Charging(), d.BatteryLevel())
	}
	if _, err := d.RunInference(1e9, 8); err != nil {
		t.Fatal(err)
	}
	level, counters := d.BatteryLevel(), d.Snapshot()
	for _, on := range []bool{true, false, true} {
		d.SetCharging(on)
		if d.Charging() != on {
			t.Fatalf("SetCharging(%v): Charging() = %v", on, d.Charging())
		}
	}
	d.SetNet(WiFi)
	if d.Net() != WiFi {
		t.Fatalf("net after SetNet(WiFi) = %v", d.Net())
	}
	if d.BatteryLevel() != level || d.Snapshot() != counters {
		t.Fatalf("setters moved the battery %v -> %v or the counters %+v -> %+v",
			level, d.BatteryLevel(), counters, d.Snapshot())
	}
	d.SetNet(Offline)
	if _, err := d.Download(10); !errors.Is(err, ErrOffline) {
		t.Fatalf("want ErrOffline, got %v", err)
	}
	d.SetBatteryLevel(0)
	if d.BatteryLevel() != 0 {
		t.Fatalf("battery after death = %v", d.BatteryLevel())
	}
	d.SetBatteryLevel(2) // clamped
	if d.BatteryLevel() != 1 {
		t.Fatalf("battery after clamp = %v", d.BatteryLevel())
	}
	gw := NewDevice("gw1", mustProfile(t, "edge-gateway"), nil)
	gw.SetBatteryLevel(0)
	gw.SetCharging(false)
	gw.SetNet(Offline)
	if gw.BatteryLevel() != 1 || !gw.Charging() || gw.Net() != WiFi {
		t.Fatalf("wall-powered after SetBatteryLevel(0), SetCharging(false), SetNet(Offline): battery %v charging %v net %v, want 1 true wifi",
			gw.BatteryLevel(), gw.Charging(), gw.Net())
	}
}

func mustProfile(t *testing.T, name string) Capabilities {
	t.Helper()
	p, err := ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestInstallInterruptedResumesNotRestarts is the device-level recovery
// contract: a mid-flash crash leaves a half-written staging slot, and the
// retry programs only the remainder — total flashed bytes across attempts
// equal exactly the image size, never more.
func TestInstallInterruptedResumesNotRestarts(t *testing.T) {
	d := NewDevice("gw2", mustProfile(t, "edge-gateway"), nil)
	size := int64(1 << 20)

	// First attempt crashes at 40% of the flash.
	d.SetInstallInterrupter(func(token string, rem int64) float64 { return 0.4 })
	_, err := d.InstallResumable("img-v2", size, size)
	if !errors.Is(err, ErrInstallInterrupted) {
		t.Fatalf("want ErrInstallInterrupted, got %v", err)
	}
	token, flashed, total, ok := d.Staging()
	if !ok || token != "img-v2" || total != size {
		t.Fatalf("staging = %q %d/%d ok=%v", token, flashed, total, ok)
	}
	want40 := int64(0.4 * float64(size))
	if flashed != want40 {
		t.Fatalf("flashed %d, want %d", flashed, want40)
	}

	// Second attempt completes; it must flash only the remainder.
	d.SetInstallInterrupter(nil)
	if _, err := d.InstallResumable("img-v2", size, size); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := d.Staging(); ok {
		t.Fatal("staging must clear on completion")
	}
	c := d.Snapshot()
	if c.FlashedBytes != size {
		t.Fatalf("total flashed %d across attempts, want exactly %d (resume, not restart)", c.FlashedBytes, size)
	}
	if c.RxBytes != size {
		t.Fatalf("total downloaded %d, want exactly %d (streamed install resumes the transfer too)", c.RxBytes, size)
	}
}

func TestInstallDifferentTokenDiscardsStaleStaging(t *testing.T) {
	d := NewDevice("gw3", mustProfile(t, "edge-gateway"), nil)
	d.SetInstallInterrupter(func(string, int64) float64 { return 0.5 })
	if _, err := d.InstallResumable("img-a", 1000, 1000); !errors.Is(err, ErrInstallInterrupted) {
		t.Fatalf("want interruption, got %v", err)
	}
	d.SetInstallInterrupter(nil)
	// A new target image must not inherit img-a's progress.
	if _, err := d.InstallResumable("img-b", 2000, 2000); err != nil {
		t.Fatal(err)
	}
	c := d.Snapshot()
	if c.FlashedBytes != 500+2000 {
		t.Fatalf("flashed %d, want %d (full img-b after discarding img-a)", c.FlashedBytes, 2500)
	}
	if _, _, _, ok := d.Staging(); ok {
		t.Fatal("no staging should remain")
	}
}

func TestInstallLegacyPathUnchanged(t *testing.T) {
	d := NewDevice("gw4", mustProfile(t, "edge-gateway"), nil)
	dur, err := d.Install(4096, 4096)
	if err != nil || dur <= 0 {
		t.Fatalf("Install = %v, %v", dur, err)
	}
	c := d.Snapshot()
	if c.RxBytes != 4096 || c.FlashedBytes != 4096 {
		t.Fatalf("counters rx=%d flashed=%d", c.RxBytes, c.FlashedBytes)
	}
	// An interrupted tokenless install leaves no recoverable state.
	d.SetInstallInterrupter(func(string, int64) float64 { return 0.25 })
	if _, err := d.Install(1000, 1000); !errors.Is(err, ErrInstallInterrupted) {
		t.Fatalf("want interruption, got %v", err)
	}
	if _, _, _, ok := d.Staging(); ok {
		t.Fatal("tokenless install must not stage")
	}
}

// TestTokenlessInstallInvalidatesStaging: any write to the inactive slot
// that is not resuming the recorded image — including a legacy tokenless
// install — must discard the staged progress, or a later "resume" would
// complete a slot whose contents were clobbered in between.
func TestTokenlessInstallInvalidatesStaging(t *testing.T) {
	d := NewDevice("gw5", mustProfile(t, "edge-gateway"), nil)
	d.SetInstallInterrupter(func(string, int64) float64 { return 0.5 })
	if _, err := d.InstallResumable("img-x", 1000, 1000); !errors.Is(err, ErrInstallInterrupted) {
		t.Fatalf("want interruption, got %v", err)
	}
	d.SetInstallInterrupter(nil)
	// A tokenless install writes over the slot.
	if _, err := d.Install(100, 100); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := d.Staging(); ok {
		t.Fatal("staging survived an intervening tokenless install")
	}
	// The old image cannot resume: it restarts from byte zero.
	before := d.Snapshot().FlashedBytes
	if _, err := d.InstallResumable("img-x", 1000, 1000); err != nil {
		t.Fatal(err)
	}
	if got := d.Snapshot().FlashedBytes - before; got != 1000 {
		t.Fatalf("flashed %d after invalidation, want a full 1000", got)
	}
}

// TestInstallEntryEdges covers the two cases the install entry points hand
// the shared staging state machine unchanged: an attempt that fails before
// any byte moves (offline) must leave another image's half-written slot
// alone, even an untokened one; and an image with nothing to download is
// all flash.
func TestInstallEntryEdges(t *testing.T) {
	d := NewDevice("ph9", mustProfile(t, "phone"), nil)
	d.SetNet(WiFi)
	d.SetInstallInterrupter(func(string, int64) float64 { return 0.5 })
	if _, err := d.InstallResumable("img-x", 1000, 1000); !errors.Is(err, ErrInstallInterrupted) {
		t.Fatalf("want interruption, got %v", err)
	}
	d.SetInstallInterrupter(nil)
	d.SetNet(Offline)
	if _, err := d.Install(100, 100); !errors.Is(err, ErrOffline) {
		t.Fatalf("offline install: %v", err)
	}
	if token, flashed, _, ok := d.Staging(); !ok || token != "img-x" || flashed != 500 {
		t.Fatalf("offline tokenless install disturbed the slot: %q %d %v", token, flashed, ok)
	}
	d.SetNet(WiFi)
	before := d.Snapshot()
	if _, err := d.InstallResumable("flash-only", 0, 300); err != nil {
		t.Fatal(err)
	}
	after := d.Snapshot()
	if after.RxBytes != before.RxBytes || after.FlashedBytes-before.FlashedBytes != 300 {
		t.Fatalf("zero-byte download: rx +%d flashed +%d", after.RxBytes-before.RxBytes, after.FlashedBytes-before.FlashedBytes)
	}
	if _, _, _, ok := d.Staging(); ok {
		t.Fatal("a completed install left a staging slot")
	}
}
