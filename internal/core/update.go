package core

import (
	"errors"
	"fmt"
	"time"

	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/ipprot"
	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/registry"
	"tinymlops/internal/rollout"
	"tinymlops/internal/selector"
	"tinymlops/internal/swarm"
)

// ErrDeltaBaseMissing reports that a delta transfer could not even be
// attempted because the registry no longer holds the artifact of the
// version the device is running — the base was evicted mid-rollout. The
// update surfaces it on the report's DeltaFallback and ships the full
// artifact instead (over the swarm when one is configured), so a wave
// with a pruned base degrades to full transfers rather than wedging.
var ErrDeltaBaseMissing = errors.New("core: delta base artifact missing")

// UpdateOptions controls one deployment update.
type UpdateOptions struct {
	// Calibration recalibrates the drift monitor for the new version; nil
	// keeps the existing monitor and resets its detection state.
	Calibration *dataset.Dataset
	// ForceFull disables delta transfer (used to measure the saving).
	ForceFull bool
	// Swarm, when non-nil, sources the transfer's bytes peer-to-peer: the
	// chosen artifact (or its delta) ships as hash-verified chunks from the
	// wave's seeders, with the registry as seeder of last resort, and the
	// device registers as a pending seeder on success. See internal/swarm.
	Swarm *swarm.Swarm
}

// UpdateReport accounts one update (or rollback): what moved, how it was
// shipped, and what a full transfer would have cost.
type UpdateReport struct {
	DeviceID string
	From, To *registry.ModelVersion
	// UsedDelta reports whether a sparse weight delta was shipped.
	UsedDelta bool
	// ShipBytes went over the radio; FlashBytes were rewritten on device.
	ShipBytes, FlashBytes int64
	// FullBytes is what a full-artifact transfer ships (To's packed size),
	// the denominator of the delta saving.
	FullBytes int64
	// TransferTime is the modeled download+flash duration.
	TransferTime time.Duration
	// ChangedParams/TotalParams summarize delta sparsity (0 for full).
	ChangedParams, TotalParams int
	// PeerBytes/RegistryBytes split a swarm transfer's radio bytes by
	// serving side (both zero on registry-direct transfers).
	PeerBytes, RegistryBytes int64
	// DeltaFallback, when non-nil, explains why a delta-eligible update
	// shipped the full artifact instead of failing: it wraps
	// ErrDeltaBaseMissing when the registry evicted the base image
	// mid-rollout. The update itself succeeded.
	DeltaFallback error
}

// Health returns the deployment's live-window telemetry summary: queries
// served and denied since the last window roll, mean modeled latency, and
// the drift monitor state. The update path rolls the window at every
// version boundary, so after an update this reads the new version's
// behavior only — exactly what a rollout gate needs.
func (d *Deployment) Health() rollout.Health {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := rollout.Health{
		Inferences:    uint64(d.winCount),
		Errors:        uint64(d.winDenied) + uint64(d.winFailed),
		MeanLatencyUS: d.winLatency.Mean(),
	}
	if d.Monitor != nil {
		h.DriftAlarm = d.Monitor.Drifted()
		h.DriftScore = d.Monitor.MaxScore()
	}
	return h
}

// Update moves the deployment to the target version's family: it re-runs
// variant selection over the target and its derived variants for this
// device's current context, ships the chosen artifact — as a sparse weight
// delta when the topology matches the running model, the full encrypted
// image otherwise — and hot-swaps the model. The prepaid meter and the
// telemetry buffer survive the swap (the voucher prepays queries, not a
// version); the telemetry window rolls so post-update health is clean; the
// drift monitor is recalibrated from opts.Calibration or reset. The prior
// image is kept for Rollback.
func (d *Deployment) Update(target *registry.ModelVersion, opts UpdateOptions) (*UpdateReport, error) {
	if d.platform == nil {
		return nil, fmt.Errorf("core: deployment %s is not platform-managed", d.DeviceID)
	}
	if target == nil {
		return nil, fmt.Errorf("core: nil update target")
	}
	p := d.platform
	d.mu.Lock()
	defer d.mu.Unlock()

	// Re-run variant selection among the target's family: the paper's
	// point that every update re-decides per device (§III-A).
	candidates := append([]*registry.ModelVersion{target}, p.Registry.Variants(target.ID)...)
	decision, err := selector.Select(d.device, candidates, d.policy)
	if err != nil {
		return nil, fmt.Errorf("core: update select for %s: %w", d.DeviceID, err)
	}
	chosen := decision.Chosen.Version
	rep := &UpdateReport{
		DeviceID:  d.DeviceID,
		From:      d.Version,
		To:        chosen,
		FullBytes: int64(chosen.Metrics.SizeBytes),
	}
	if chosen.ID == d.Version.ID {
		// Content-addressed no-op: the device already runs these bytes, so
		// nothing ships and the rollback image is untouched — but the
		// window still rolls and the monitor still recalibrates/resets,
		// so a gate judging this device sees post-update traffic only,
		// never a stale alarm from before the rollout.
		d.rollWindowLocked()
		if err := d.recalibrateLocked(opts.Calibration); err != nil {
			return nil, err
		}
		// The device holds these exact bytes, so it can seed them.
		if opts.Swarm != nil && d.watermark == "" {
			opts.Swarm.AddSeeder("full:"+chosen.ID, d.DeviceID)
		}
		return rep, nil
	}

	// A compiled (procvm) target is bytecode: it has no weight topology to
	// diff, so delta never applies, and no float weights to mark (the
	// obfuscation is the protection) — a watermarked cohort cannot cross
	// into the compiled kind without losing its mark.
	toCompiled := chosen.Kind == registry.KindProcVM
	if toCompiled && d.watermark != "" {
		return nil, fmt.Errorf("core: watermarked deployment %s cannot update to compiled module %s", d.DeviceID, chosen.ID)
	}
	// Delta transfer requires the on-device weights to be bit-identical to
	// the registry's stored artifact; a per-customer watermark perturbs
	// them, so watermarked deployments always ship full images. A compiled
	// image holds no float weights at all, so a compiled→network update is
	// always a full ship too.
	var img *image
	if !opts.ForceFull && !toCompiled && d.watermark == "" && d.img.model != nil {
		if img, err = d.tryDeltaLocked(opts.Swarm, chosen, rep); err != nil {
			return nil, err
		}
	}
	if img == nil {
		if img, err = p.shipFull(opts.Swarm, d.device, chosen, d.watermark, rep); err != nil {
			return nil, err
		}
	}
	if err := d.swapLocked(img, opts.Calibration); err != nil {
		return nil, err
	}
	// The swap succeeded: the device now holds the canonical artifact (and,
	// if it took a delta, the delta bytes it staged), so register it as a
	// pending seeder — visible to fetchers at the next wave promotion.
	// Watermarked copies are perturbed per customer and never seed.
	if opts.Swarm != nil && d.watermark == "" {
		if rep.UsedDelta {
			opts.Swarm.AddSeeder("delta:"+rep.From.ID+">"+chosen.ID, d.DeviceID)
		}
		opts.Swarm.AddSeeder("full:"+chosen.ID, d.DeviceID)
	}
	return rep, nil
}

// tryDeltaLocked attempts a delta transfer to the chosen version, filling
// rep and returning the patched image on success. A nil image (with nil
// error) means the caller must ship the full artifact: the versions do not
// share a topology, or the delta would not beat the packed image — a full
// retrain degrades to a dense delta whose index overhead can exceed what
// it patches. Caller holds d.mu.
func (d *Deployment) tryDeltaLocked(sw *swarm.Swarm, chosen *registry.ModelVersion, rep *UpdateReport) (*image, error) {
	p := d.platform
	delta, err := p.Registry.Delta(d.Version.ID, chosen.ID)
	if err != nil {
		// Different topology: expected, a full transfer is simply the plan.
		// A missing base artifact (evicted mid-rollout) is surfaced as a
		// typed fallback so callers can tell pruning from topology — the
		// wave degrades to full transfers instead of wedging.
		if errors.Is(err, registry.ErrArtifactMissing) {
			rep.DeltaFallback = fmt.Errorf("%w: %w", ErrDeltaBaseMissing, err)
		}
		return nil, nil
	}
	cost, err := nn.CostOfDelta(delta, chosen.Scheme.Bits())
	if err != nil {
		return nil, err
	}
	if cost.ShipBytes >= chosen.Metrics.SizeBytes {
		return nil, nil // dense delta, not worth shipping
	}
	// The token names the exact patch (source and target bytes): a crash
	// mid-flash leaves a recoverable staging slot, and a retried update
	// that selects the same transition resumes it instead of starting
	// over. A different transition discards the stale slot.
	token := "delta:" + d.Version.ID + ">" + chosen.ID
	plain, err := p.transfer(sw, d.device, chosen, token, delta, int64(cost.ShipBytes), int64(cost.FlashBytes), rep)
	if err != nil {
		return nil, err
	}
	// The patch is verified and what it patches is the fleet's image of the
	// base, so the result is the fleet's image of the target: only the first
	// device of a wave computes it. A base the table does not hold (a fresh
	// Deploy replaced this deployment) is patched privately.
	img, err := p.images.install(chosen, !p.images.shares(d.img), func() (*nn.Network, *procvm.Module, error) {
		model, err := nn.ApplyDelta(d.img.model, plain)
		if err != nil {
			return nil, nil, fmt.Errorf("core: apply delta on %s: %w", d.DeviceID, err)
		}
		return model, nil, nil
	})
	if err != nil {
		return nil, err
	}
	rep.UsedDelta = true
	rep.ChangedParams, rep.TotalParams = cost.ChangedParams, cost.TotalParams
	return img, nil
}

// transfer moves one artifact — a full image or a delta, named by its
// content-addressed install token — onto the device and returns the bytes
// as the device holds them, filling rep's transfer accounting. A swarm
// delivers hash-verified chunks from the wave's seeders, the registry being
// seeder of last resort; it moves canonical plaintext (the chunk hashes
// content-address the real artifact), so no envelope encryption applies.
// Without one, payload streams registry-direct under envelope encryption
// (§V). Either way an install that crashed mid-flash resumes from its
// staging slot on retry. ship and flash are the radio and flash-rewrite
// sizes (a delta flashes less than it downloads); a swarm measures its own
// radio bytes, and flashes what it delivered when flash is 0.
func (p *Platform) transfer(sw *swarm.Swarm, dev *device.Device, v *registry.ModelVersion, token string, payload []byte, ship, flash int64, rep *UpdateReport) ([]byte, error) {
	if sw != nil {
		data, ts, err := sw.Transfer(dev, token, flash)
		if err != nil {
			return nil, fmt.Errorf("core: swarm ship %s to %s: %w", token, dev.ID, err)
		}
		if flash == 0 {
			flash = ts.TotalBytes
		}
		rep.ShipBytes, rep.FlashBytes, rep.TransferTime = ts.TotalBytes, flash, ts.Duration
		rep.PeerBytes, rep.RegistryBytes = ts.FromPeers, ts.FromRegistry
		return data, nil
	}
	em, err := ipprot.EncryptModel(p.vendorKey, v.ID, payload)
	if err != nil {
		return nil, err
	}
	dur, err := dev.InstallResumable(token, ship, flash)
	if err != nil {
		return nil, fmt.Errorf("core: ship %s to %s: %w", token, dev.ID, err)
	}
	rep.ShipBytes, rep.FlashBytes, rep.TransferTime = ship, flash, dur
	return ipprot.DecryptModel(p.vendorKey, em)
}

// decodeImage parses a shipped artifact into the installable image of its
// kind: a network, or — for compiled versions, whose artifact is the
// module's canonical PVM1 encoding — a procvm module. Both decoders are
// strict, so a corrupted transfer fails here rather than at first
// inference.
func decodeImage(v *registry.ModelVersion, plain []byte) (*nn.Network, *procvm.Module, error) {
	if v.Kind == registry.KindProcVM {
		mod, err := procvm.DecodeModule(plain)
		return nil, mod, err
	}
	model, err := nn.UnmarshalNetwork(plain)
	return model, nil, err
}

// Rollback reverts the deployment to the image it ran before the last
// Update — no transfer, the prior generation is still in the B slot. The
// meter and telemetry buffer are preserved; the telemetry window rolls;
// the restored monitor is reset so stale alarms do not re-fire. A second
// rollback without an intervening update fails.
func (d *Deployment) Rollback() (*UpdateReport, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.prev == nil {
		return nil, fmt.Errorf("core: deployment %s has no previous image", d.DeviceID)
	}
	rep := &UpdateReport{DeviceID: d.DeviceID, From: d.Version, To: d.prev.version}
	d.rollWindowLocked()
	// The image comes back with the executor it ran on: an integer variant
	// returns to the integer kernels, a compiled image to the VM.
	d.platform.images.release(d.img)
	d.Version, d.img, d.Monitor = d.prev.version, d.prev, d.prevMonitor
	d.prev, d.prevMonitor = nil, nil
	if d.Monitor != nil {
		d.Monitor.Reset()
	}
	if d.retained != nil {
		if err := d.refreshAttestorLocked(); err != nil {
			return nil, err
		}
	}
	d.featStats = nil
	return rep, nil
}

// swapLocked installs img as the live image, keeping the old one (and the
// monitor calibrated for it) for rollback and letting go of the one before
// that. The deployment owns img's reference from here on. Caller holds d.mu.
func (d *Deployment) swapLocked(img *image, calib *dataset.Dataset) error {
	d.rollWindowLocked()
	d.platform.images.release(d.prev)
	d.prev, d.prevMonitor = d.img, d.Monitor
	d.Version, d.img = img.version, img
	if d.retained != nil {
		if err := d.refreshAttestorLocked(); err != nil {
			return err
		}
	}
	if err := d.recalibrateLocked(calib); err != nil {
		return err
	}
	d.featStats = nil
	return nil
}

// recalibrateLocked points the drift monitor at a new version's traffic:
// calibrated afresh from calib, or reset, so post-update health reflects
// the new model only (a rollback image shares the monitor; Rollback resets
// it again). Caller holds d.mu.
func (d *Deployment) recalibrateLocked(calib *dataset.Dataset) error {
	if calib == nil {
		if d.Monitor != nil {
			d.Monitor.Reset()
		}
		return nil
	}
	mon, err := buildMonitor(calib)
	if err != nil {
		return err
	}
	d.Monitor = mon
	return nil
}

// shipFull transfers a version's full artifact, of either kind, onto the
// device and returns the image it installs as — the path shared by Deploy
// and Update. A direct ship reads the registry blob and moves the variant's
// packed size; a swarm sources and sizes the bytes itself, so the blob need
// not even exist any more. The bytes that arrive passed the transfer's own
// verification (chunk hashes and artifact digest, or the AEAD open), so an
// unwatermarked device takes the fleet's image of them; a watermarked one
// decodes its own copy and stamps the customer's mark into it.
func (p *Platform) shipFull(sw *swarm.Swarm, dev *device.Device, v *registry.ModelVersion, watermark string, rep *UpdateReport) (*image, error) {
	var artifact []byte
	var size int64
	if sw == nil {
		var err error
		if artifact, err = p.Registry.Bytes(v.ID); err != nil {
			return nil, err
		}
		size = int64(v.Metrics.SizeBytes)
	}
	plain, err := p.transfer(sw, dev, v, "full:"+v.ID, artifact, size, size, rep)
	if err != nil {
		return nil, err
	}
	return p.images.install(v, watermark != "", func() (*nn.Network, *procvm.Module, error) {
		model, compiled, err := decodeImage(v, plain)
		if err == nil && watermark != "" {
			err = p.embedWatermark(model, v.ID, dev.ID, watermark)
		}
		return model, compiled, err
	})
}

// embedWatermark stamps the customer identity into a deployed copy and
// records it in the registry (§V: per-user marks; capacity scales to the
// carrier layer so tiny models still embed reliably). The tag is keyed per
// device so every customer's mark stays on record and parallel deploys stay
// deterministic — a single shared key would be last-writer-wins in
// scheduling order.
func (p *Platform) embedWatermark(model *nn.Network, versionID, deviceID, owner string) error {
	capacity := watermarkCapacity(model)
	bits := ipprot.KeyedBits(owner, capacity)
	if err := ipprot.EmbedStatic(model, owner, bits, ipprot.DefaultStaticWMConfig()); err != nil {
		return fmt.Errorf("core: watermark: %w", err)
	}
	return p.Registry.SetTag(versionID, "watermark:"+deviceID, owner)
}
