package device

import (
	"fmt"
	"sync"
	"time"

	"tinymlops/internal/tensor"
)

// NetState is a device's current connectivity.
type NetState int

// Connectivity states.
const (
	Offline NetState = iota
	Cellular
	WiFi
)

// String implements fmt.Stringer.
func (n NetState) String() string {
	switch n {
	case Offline:
		return "offline"
	case Cellular:
		return "cellular"
	case WiFi:
		return "wifi"
	default:
		return fmt.Sprintf("net(%d)", int(n))
	}
}

// Bandwidth returns the downlink bandwidth in bytes/second for the state.
func (n NetState) Bandwidth() float64 {
	switch n {
	case Cellular:
		return 5e6 / 8 * 4 // ≈2.5 MB/s
	case WiFi:
		return 20e6 / 8 * 8 // ≈20 MB/s
	default:
		return 0
	}
}

// Counters accumulates what a device has done; the observability layer
// reads them as telemetry.
type Counters struct {
	Inferences    int64
	EnergyJoule   float64
	TxBytes       int64
	RxBytes       int64
	FlashedBytes  int64
	DeniedQueries int64
}

// staging is the inactive-slot (B-slot) image write in progress: an OTA
// install streams radio bytes into flash, and a mid-flash crash leaves the
// slot half-written. The active slot is untouched, so the device keeps
// running its old image; a retry of the same image resumes from flashDone
// instead of starting over. Flash is persistent — staged bytes survive the
// crash — which is exactly what makes the recovery cheap.
type staging struct {
	token         string // identifies the image being written
	downloadDone  int64
	flashDone     int64
	downloadTotal int64
	flashTotal    int64
}

// Device is one simulated edge node: static capabilities plus mutable
// runtime state (battery, charger, connectivity) and usage counters.
// All methods are safe for concurrent use; the fleet simulator drives many
// devices from a worker pool.
type Device struct {
	ID   string
	Caps Capabilities

	mu       sync.Mutex
	battery  float64 // joules remaining; ignored when wall powered
	charging bool
	net      NetState
	counters Counters

	// Behavioral probabilities per simulation tick.
	pCharge  float64 // probability of being on a charger
	pWiFi    float64 // probability of WiFi when connected
	pOffline float64 // probability of having no connectivity

	// staging is the half-written inactive slot, nil when no install is
	// in flight. interrupt, when set, is consulted once per install
	// attempt and may crash it partway (see SetInstallInterrupter).
	staging   *staging
	interrupt func(token string, remainingFlash int64) float64

	rng *tensor.RNG
}

// NewDevice returns a device with a full battery, offline, not charging.
func NewDevice(id string, caps Capabilities, rng *tensor.RNG) *Device {
	return &Device{
		ID: id, Caps: caps,
		battery:  caps.BatteryJoule,
		net:      Offline,
		pCharge:  0.3,
		pWiFi:    0.5,
		pOffline: 0.2,
		rng:      rng,
	}
}

// SetBehavior configures the per-tick probabilities of being on a charger,
// on WiFi (when connected), and offline.
func (d *Device) SetBehavior(pCharge, pWiFi, pOffline float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pCharge, d.pWiFi, d.pOffline = pCharge, pWiFi, pOffline
}

// SetNet overrides the connectivity state deterministically — the fault
// plane owns the weather during a chaos run, where Tick's probabilistic
// flips would break worker-count reproducibility. Wall-powered devices
// still report WiFi from Net regardless.
func (d *Device) SetNet(n NetState) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.net = n
}

// SetBatteryLevel sets the battery to the given fraction of capacity,
// clamped to [0,1]. Fraction 0 models sudden battery death; restoring to 1
// models a swap or a full recharge between rounds. No-op on wall power.
func (d *Device) SetBatteryLevel(frac float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.Caps.WallPowered() {
		return
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	d.battery = frac * d.Caps.BatteryJoule
}

// SetInstallInterrupter registers fn, consulted once per install attempt
// with the install token and the flash bytes remaining in that attempt. A
// return in (0,1) crashes the attempt after that fraction of the remaining
// work (a power loss mid-flash); anything else lets it complete. nil
// removes the hook. The fault plane supplies deterministic decisions here.
func (d *Device) SetInstallInterrupter(fn func(token string, remainingFlash int64) float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.interrupt = fn
}

// Staging reports the half-written inactive slot left by an interrupted
// install: the image token, the bytes already programmed, and the image
// size. ok is false when no install is in flight — the converged state the
// fleet auditor demands of every device.
func (d *Device) Staging() (token string, flashed, total int64, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.staging == nil {
		return "", 0, 0, false
	}
	return d.staging.token, d.staging.flashDone, d.staging.flashTotal, true
}

// BatteryLevel returns the battery fraction in [0,1]; wall-powered devices
// report 1.
func (d *Device) BatteryLevel() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.batteryLevelLocked()
}

func (d *Device) batteryLevelLocked() float64 {
	if d.Caps.WallPowered() {
		return 1
	}
	lv := d.battery / d.Caps.BatteryJoule
	if lv < 0 {
		return 0
	}
	return lv
}

// Charging reports whether the device is on a charger (wall-powered
// devices always are).
func (d *Device) Charging() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.charging || d.Caps.WallPowered()
}

// Net returns the current connectivity state.
func (d *Device) Net() NetState {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.Caps.WallPowered() {
		return WiFi
	}
	return d.net
}

// Snapshot returns a copy of the usage counters.
func (d *Device) Snapshot() Counters {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.counters
}

// Tick advances the device's behavioral state by one simulation step:
// charger and connectivity flip according to the configured probabilities,
// and a charging battery regains 1% capacity.
func (d *Device) Tick() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.Caps.WallPowered() {
		return
	}
	d.charging = d.rng.Float64() < d.pCharge
	switch {
	case d.rng.Float64() < d.pOffline:
		d.net = Offline
	case d.rng.Float64() < d.pWiFi:
		d.net = WiFi
	default:
		d.net = Cellular
	}
	if d.charging {
		d.battery += 0.01 * d.Caps.BatteryJoule
		if d.battery > d.Caps.BatteryJoule {
			d.battery = d.Caps.BatteryJoule
		}
	}
}

// ErrModelTooLarge is returned when an artifact exceeds device storage.
var ErrModelTooLarge = fmt.Errorf("device: model exceeds flash capacity")

// ErrOutOfMemory is returned when the working set exceeds device RAM.
var ErrOutOfMemory = fmt.Errorf("device: working set exceeds RAM")

// ErrBatteryDepleted is returned when an operation needs more energy than
// the battery holds.
var ErrBatteryDepleted = fmt.Errorf("device: battery depleted")

// ErrOffline is returned by transfer operations when the device has no
// connectivity. A transient condition — retry policies treat it as such.
var ErrOffline = fmt.Errorf("device: offline")

// ErrInstallInterrupted is returned when an install crashes mid-flash
// (power loss, watchdog reset). The inactive slot is left half-written and
// recoverable: retrying the same image token resumes from where the flash
// stopped, see InstallResumable.
var ErrInstallInterrupted = fmt.Errorf("device: install interrupted mid-flash")

// CheckFit verifies that a model of modelBytes storage and ramBytes
// working set fits the device.
func (d *Device) CheckFit(modelBytes, ramBytes int64) error {
	if modelBytes > d.Caps.FlashBytes {
		return fmt.Errorf("%w: %d > %d bytes", ErrModelTooLarge, modelBytes, d.Caps.FlashBytes)
	}
	if ramBytes > d.Caps.RAMBytes {
		return fmt.Errorf("%w: %d > %d bytes", ErrOutOfMemory, ramBytes, d.Caps.RAMBytes)
	}
	return nil
}

// RunInference simulates executing one inference of macs multiply-
// accumulates at the given weight bit width. It returns the modeled
// latency, charges the energy to the battery and updates counters.
func (d *Device) RunInference(macs int64, bits int) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	energy := d.Caps.InferenceEnergy(macs)
	if !d.Caps.WallPowered() && d.battery < energy {
		return 0, fmt.Errorf("%w on %s", ErrBatteryDepleted, d.ID)
	}
	lat := d.Caps.InferenceLatency(macs, bits)
	if !d.Caps.WallPowered() {
		d.battery -= energy
	}
	d.counters.Inferences++
	d.counters.EnergyJoule += energy
	return lat, nil
}

// DenyQuery records a query rejected by policy (metering exhaustion).
func (d *Device) DenyQuery() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.counters.DeniedQueries++
}

// linkBandwidthLocked returns the current downlink/uplink bandwidth in
// bytes/second, honoring the wall-powered → WiFi override, or an error
// when the device is offline. Caller holds d.mu.
func (d *Device) linkBandwidthLocked() (float64, error) {
	st := d.net
	if d.Caps.WallPowered() {
		st = WiFi
	}
	bw := st.Bandwidth()
	if bw == 0 {
		return 0, fmt.Errorf("%w: %s", ErrOffline, d.ID)
	}
	return bw, nil
}

// Download simulates receiving size bytes over the current link, returning
// the transfer time. Offline devices return an error.
func (d *Device) Download(size int64) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	bw, err := d.linkBandwidthLocked()
	if err != nil {
		return 0, err
	}
	d.counters.RxBytes += size
	return time.Duration(float64(size) / bw * float64(time.Second)), nil
}

// Flash write cost model shared by every profile: internal NOR flash
// programs at roughly 256 KiB/s and costs about 2 µJ per byte — both
// dwarfed by radio costs for full images but decisive for delta patches,
// which rewrite only the touched weights.
const (
	flashWriteBytesPerSec    = 256 << 10
	flashWriteEnergyPerByteJ = 2e-6
)

// Install simulates one OTA model installation: downloadBytes arrive over
// the current link (a full image or a delta patch) and flashBytes are
// reprogrammed into model storage. It returns the combined transfer+flash
// time, charges the flash-write energy to the battery, and updates the
// RxBytes/FlashedBytes counters. Like Download, it does not model receive
// radio energy (the cost model charges the transmit side only, see
// EnergyPerTxByteJoule). Offline devices return an error. Equivalent to
// InstallResumable with an empty token: an interrupted attempt leaves no
// recoverable staging state.
func (d *Device) Install(downloadBytes, flashBytes int64) (time.Duration, error) {
	return d.InstallResumable("", downloadBytes, flashBytes)
}

// InstallResumable is Install with crash recovery: the transfer streams
// radio bytes straight into the inactive flash slot, so progress is a
// single fraction of (download, flash) and staged bytes survive a
// mid-flash crash. When a prior attempt at the same token (same image,
// same sizes) was interrupted, only the remaining bytes are downloaded and
// programmed — the retry provably does not start over. A different token
// discards the stale half-written slot first. On an injected interruption
// (see SetInstallInterrupter) the call charges exactly the portion done,
// records the staging state under a non-empty token, and returns an error
// wrapping ErrInstallInterrupted. It is the chunked install with the whole
// remainder as its one chunk.
func (d *Device) InstallResumable(token string, downloadBytes, flashBytes int64) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, dur, err := d.advanceInstallLocked(token, downloadBytes, downloadBytes, flashBytes)
	if d.staging != nil && d.staging.token == "" {
		// Nothing can name an untokened image to resume it: drop the slot.
		d.staging = nil
	}
	return dur, err
}

// InstallChunk advances the resumable install named by token by up to span
// download bytes, flashing the proportional share of flashTotal — the
// swarm-transfer primitive. The staging slot is shared with
// InstallResumable and persists between chunks (a healthy partial, not a
// crash) until the final chunk completes the image. The crash injector is
// consulted once per call with the chunk's flash share, so each byte is
// downloaded and flashed exactly once, from whichever source finishes it.
// Returns the download bytes actually written (the caller charges the
// serving side for precisely that many).
func (d *Device) InstallChunk(token string, span, downloadTotal, flashTotal int64) (written int64, err error) {
	if token == "" {
		return 0, fmt.Errorf("device: install chunk needs a token")
	}
	if downloadTotal <= 0 || flashTotal < 0 || span < 0 {
		return 0, fmt.Errorf("device: install chunk sizes out of range (span %d of %d/%d)", span, downloadTotal, flashTotal)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	written, _, err = d.advanceInstallLocked(token, span, downloadTotal, flashTotal)
	return written, err
}

// advanceInstallLocked is the staging slot's one state machine: resume the
// recorded image or discard it, move up to span download bytes and their
// share of the flash rewrite, and leave the slot complete, healthily
// partial, or crashed. Caller holds d.mu.
func (d *Device) advanceInstallLocked(token string, span, downloadTotal, flashTotal int64) (written int64, dur time.Duration, err error) {
	bw, err := d.linkBandwidthLocked()
	if err != nil {
		return 0, 0, err
	}
	var doneDl, doneFl int64
	if d.staging != nil && d.staging.token == token &&
		d.staging.downloadTotal == downloadTotal && d.staging.flashTotal == flashTotal {
		doneDl, doneFl = d.staging.downloadDone, d.staging.flashDone
	} else {
		// Any install that is not resuming the recorded image writes over
		// the inactive slot, so the staged progress is no longer trustworthy
		// and must be discarded.
		d.staging = nil
	}
	if doneDl+span > downloadTotal {
		span = downloadTotal - doneDl
	}
	// The chunk's flash share is the integer-proportional slice of
	// flashTotal its download span covers; the chunk that finishes the
	// download lands exactly on flashTotal, so no rounding drift accumulates
	// across chunks (and an image with nothing to download is all flash).
	flEnd := flashTotal
	if end := doneDl + span; end < downloadTotal {
		flEnd = flashTotal * end / downloadTotal
	}
	remFl := flEnd - doneFl

	// A battery that cannot pay for the flash share fails before any byte
	// moves — and before the crash injector is consulted, so fault
	// accounting never counts a "mid-flash crash" on an attempt that
	// actually died of battery death with nothing written.
	if !d.Caps.WallPowered() && d.battery < float64(remFl)*flashWriteEnergyPerByteJ {
		return 0, 0, fmt.Errorf("%w on %s", ErrBatteryDepleted, d.ID)
	}

	frac, crashed := 1.0, false
	if d.interrupt != nil {
		if f := d.interrupt(token, remFl); f > 0 && f < 1 {
			frac, crashed = f, true
		}
	}
	dlNow := int64(float64(span) * frac)
	flNow := int64(float64(remFl) * frac)

	flashEnergy := float64(flNow) * flashWriteEnergyPerByteJ
	if !d.Caps.WallPowered() {
		d.battery -= flashEnergy
	}
	d.counters.RxBytes += dlNow
	d.counters.FlashedBytes += flNow
	d.counters.EnergyJoule += flashEnergy
	dur = time.Duration(float64(dlNow)/bw*float64(time.Second)) +
		time.Duration(float64(flNow)/flashWriteBytesPerSec*float64(time.Second))
	if doneDl+dlNow >= downloadTotal && !crashed {
		d.staging = nil // the staged image is complete and becomes installable
		return dlNow, dur, nil
	}
	d.staging = &staging{
		token:         token,
		downloadDone:  doneDl + dlNow,
		flashDone:     doneFl + flNow,
		downloadTotal: downloadTotal,
		flashTotal:    flashTotal,
	}
	if crashed {
		return dlNow, dur, fmt.Errorf("%w: %s %q at %d/%d bytes",
			ErrInstallInterrupted, d.ID, token, doneFl+flNow, flashTotal)
	}
	return dlNow, dur, nil
}

// StagingDownload reports the half-written slot's download progress — the
// byte a resumed chunked transfer must continue from. ok is false when no
// install is in flight.
func (d *Device) StagingDownload() (token string, downloaded, downloadTotal, flashTotal int64, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.staging == nil {
		return "", 0, 0, 0, false
	}
	return d.staging.token, d.staging.downloadDone, d.staging.downloadTotal, d.staging.flashTotal, true
}

// Serve simulates seeding size bytes to a swarm neighbor over the current
// link: it charges transmit radio energy to the counters and returns the
// transfer time. Unlike Upload it does not drain the battery — swarm
// seeding is charger-gated in the simulated firmware (a device only
// volunteers bytes it can afford), and battery draw from concurrently
// serving neighbors would make fleet state depend on scheduling order,
// which the worker-count determinism invariant forbids. Offline devices
// return an error.
func (d *Device) Serve(size int64) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	bw, err := d.linkBandwidthLocked()
	if err != nil {
		return 0, err
	}
	energy := float64(size) * d.Caps.EnergyPerTxByteJoule
	d.counters.TxBytes += size
	d.counters.EnergyJoule += energy
	return time.Duration(float64(size) / bw * float64(time.Second)), nil
}

// Upload simulates sending size bytes over the current link, charging
// radio energy and returning the transfer time.
func (d *Device) Upload(size int64) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	bw, err := d.linkBandwidthLocked()
	if err != nil {
		return 0, err
	}
	energy := float64(size) * d.Caps.EnergyPerTxByteJoule
	if !d.Caps.WallPowered() {
		if d.battery < energy {
			return 0, fmt.Errorf("%w on %s", ErrBatteryDepleted, d.ID)
		}
		d.battery -= energy
	}
	d.counters.TxBytes += size
	d.counters.EnergyJoule += energy
	return time.Duration(float64(size) / bw * float64(time.Second)), nil
}
