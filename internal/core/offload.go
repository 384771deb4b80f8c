package core

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"tinymlops/internal/enclave"
	"tinymlops/internal/exec"
	"tinymlops/internal/market"
	"tinymlops/internal/nn"
	"tinymlops/internal/offload"
	"tinymlops/internal/procvm"
	"tinymlops/internal/quant"
	"tinymlops/internal/tensor"
)

// ErrOffloadStale is returned by OffloadSession.Infer after the underlying
// deployment moved to a different model version (an OTA update landed):
// the session's plan and the cloud's registered suffix no longer describe
// the device's model. Re-create the session against the new version.
var ErrOffloadStale = errors.New("core: offload session is stale (deployment was updated)")

// OffloadConfig controls Platform.Offload.
type OffloadConfig struct {
	// Cloud is the suffix-serving tier (required). The platform registers
	// the deployment's model version with it automatically.
	Cloud *offload.CloudTier
	// Replan tunes the live re-planning loop: the fixed round-trip to the
	// cloud it plans with, or Disabled to freeze the initial plan.
	Replan offload.ReplanConfig
	// Plan, when non-nil, pins the initial cut instead of planning from
	// the device's current conditions.
	Plan *market.SplitPlan
}

// OffloadSession is a deployment serving queries through the split
// runtime: the metering gate, drift monitor, telemetry windows, and pre/
// post pipeline modules are the deployment's own — only the forward pass
// moves, executing under a live SplitPlan with cloud suffix service.
type OffloadSession struct {
	dep       *Deployment
	sess      *offload.Session
	versionID string
}

// OffloadOutcome is one offloaded query's result: the deployment-level
// view plus the split execution detail.
type OffloadOutcome struct {
	InferenceResult
	// Split records how the query actually executed (mode, cut, boundary
	// bytes, energy).
	Split offload.Result
}

// Offload opens a split-execution session on a live deployment: queries
// submitted through the session stay metered, monitored and telemetered
// exactly like Deployment.Infer, but the forward pass executes under a
// live SplitPlan — prefix on the device, suffix on cfg.Cloud — re-planned
// as bandwidth and battery drift.
//
// Both halves come from the deployment's live image, so the model store is
// never read.
// The device half runs the executor the deployment serves with, under the
// deployment's own capability grant: opening a session builds none for the
// device. Every variant kind splits, and every answer stays bit-identical
// to the device serving the query alone:
//
//   - Float deployments ship float boundary activations; the cloud serves
//     the fleet's image of the version, the device's own executor.
//   - Integer deployments ship int8 boundary codes plus a dynamic
//     per-example scale (the QAB1 codec); the cloud resumes the same
//     integer kernels at a dense-stage cut.
//   - Protected deployments seal the bytes the device holds into the cloud
//     enclave, and the suffix executes inside the protected world (paying
//     its slowdown) on the executor newExecutor builds from the enclave's
//     decoded copy, under the device's grant: a watermarked deployment its
//     per-device marked copy, so the mark never exists in cloud plaintext;
//     a compiled (procvm) one its module, run whole there when the plan
//     offloads (cut 0), so a query the device denies is denied there too.
//
// Each sealed artifact is attested at provisioning: the platform verifies
// the report against the vendor root key and the artifact digest before
// registering the entry.
func (p *Platform) Offload(deviceID string, cfg OffloadConfig) (*OffloadSession, error) {
	dep, ok := p.Deployment(deviceID)
	if !ok {
		return nil, fmt.Errorf("core: no deployment on device %q", deviceID)
	}
	if cfg.Cloud == nil {
		return nil, fmt.Errorf("core: offload needs a cloud tier")
	}
	// One locked read of the live image: version, artifact and executor are
	// coherent even if an update lands while the session is being set up.
	dep.mu.Lock()
	img, watermarked := dep.img, dep.watermark != ""
	dep.mu.Unlock()
	version, execScheme := img.version, img.run.Scheme()

	scfg := offload.SessionConfig{
		Tenant:   deviceID,
		Device:   dep.device,
		Executor: img.run,
		Bits:     execScheme.Bits(),
		Cloud:    cfg.Cloud,
		Replan:   cfg.Replan,
		Plan:     cfg.Plan,
	}
	// The session binds to the cloud entry under key. Unprotected, the
	// cloud serves the fleet's own image of the version: the same executor
	// the device runs, by pointer; integer deployments cross the cut as int8
	// codes under the version's "#q" key, the name the split benchmark's
	// standalone sessions look the quantized entry up by. Protected, it
	// serves the device's own artifact from inside the enclave — a compiled
	// module, run whole when the plan offloads, or the per-device marked
	// copy under a per-device key — so neither the bytecode nor the mark
	// exists in cloud plaintext.
	key, build := version.ID, func() (exec.Executor, error) { return img.run, nil }
	switch {
	case img.compiled != nil || watermarked:
		if watermarked {
			key += "@" + deviceID
		}
		build = func() (exec.Executor, error) { return p.hostSealed(key, img) }
	case execScheme != quant.Float32:
		key += "#q"
	}
	// The cloud-side executor is built only if the tier lacks it: fleet-wide
	// session setup registers each artifact once, not per device.
	scfg.VersionID = key
	if !cfg.Cloud.Registered(key) {
		ex, err := build()
		if err != nil {
			return nil, fmt.Errorf("core: offload: %w", err)
		}
		if err := cfg.Cloud.Register(key, ex); err != nil {
			return nil, err
		}
	}

	sess, err := offload.NewSession(scfg)
	if err != nil {
		return nil, err
	}
	return &OffloadSession{dep: dep, sess: sess, versionID: version.ID}, nil
}

// hostSealed builds the cloud enclave's executor over img, a deployment's
// live image. It seals the bytes the device holds — the module's canonical
// PVM1 encoding, or the network's serialization (marked, for a watermarked
// copy) — into the platform's shared cloud enclave under artID, and runs
// the protected world's decoded copy on newExecutor: the constructor, and
// the capability grant, the device's executor comes from, at the enclave's
// slowdown. Nothing is re-read from the model store.
func (p *Platform) hostSealed(artID string, img *image) (exec.Executor, error) {
	p.encMu.Lock()
	if p.encSess == nil {
		enc, err := enclave.New("cloud-enclave", p.vendorKey, 1.2)
		if err != nil {
			p.encMu.Unlock()
			return nil, fmt.Errorf("provision cloud enclave: %w", err)
		}
		p.encSess = enclave.NewSession(enc)
	}
	sess := p.encSess
	p.encMu.Unlock()
	var model *nn.Network
	var mod *procvm.Module
	var err error
	if img.compiled != nil {
		if err = p.loadAttested(sess, artID, img.compiled.Encode(), sess.LoadSealedModule); err == nil {
			mod, err = sess.Module(artID)
		}
	} else {
		var blob []byte
		if blob, err = img.model.MarshalBinary(); err == nil {
			if err = p.loadAttested(sess, artID, blob, sess.LoadSealedNetwork); err == nil {
				model, err = sess.Network(artID)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	ex, err := newExecutor(img.version, model, mod)
	if err != nil {
		return nil, err
	}
	return exec.Hosted(ex, sess.Enclave().Slowdown), nil
}

// loadAttested seals blob to the session's enclave, loads it under artID
// with load and verifies the attestation chain before anything serves from
// it: the loaded measurement must equal the blob's digest, and the
// session's report over it must verify against the vendor root. Sealing
// advances the enclave's monotonic counter, so it serializes under encMu.
func (p *Platform) loadAttested(sess *enclave.Session, artID string, blob []byte, load func(string, []byte) ([32]byte, error)) error {
	p.encMu.Lock()
	sealed, err := sess.Enclave().Seal(blob)
	p.encMu.Unlock()
	if err != nil {
		return fmt.Errorf("seal %s: %w", artID, err)
	}
	meas, err := load(artID, sealed)
	if err != nil {
		return fmt.Errorf("load sealed %s: %w", artID, err)
	}
	want := sha256.Sum256(blob)
	if meas != want {
		return fmt.Errorf("enclave measurement mismatch for %s", artID)
	}
	rep, err := sess.Attest(artID, want[:16])
	if err != nil {
		return fmt.Errorf("attest %s: %w", artID, err)
	}
	if !enclave.VerifyReport(p.vendorKey, rep) || rep.Measurement != want {
		return fmt.Errorf("attestation for %s failed verification", artID)
	}
	return nil
}

// Stats returns the session's split-execution counters.
func (s *OffloadSession) Stats() offload.Stats { return s.sess.Stats() }

// Infer runs one metered, monitored query through the split runtime: the
// deployment's own serving pipeline with the split forward pass as its
// execute step, so offloading never escapes pay-per-query (§III-C) and an
// exhausted voucher denies before any compute. Device compute, radio and
// cloud service charge inside the session; the recorded energy is what the
// device spent (prefix + radio, or the full pass under a local plan). Label
// and logits are bit-identical to Deployment.Infer's in every mode.
func (s *OffloadSession) Infer(x []float32) (OffloadOutcome, error) {
	d := s.dep
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.Version.ID != s.versionID {
		return OffloadOutcome{}, fmt.Errorf("%w: %s is now on %s, session bound to %s",
			ErrOffloadStale, d.DeviceID, d.Version.ID, s.versionID)
	}
	var split offload.Result
	rows, out := [1][]float32{x}, [1]BatchOutcome{}
	d.serveLocked(rows[:], out[:], func(in *tensor.Tensor, adm []admitted) ([]float32, error) {
		res, err := s.sess.Exec(in.Data)
		if err != nil {
			return nil, fmt.Errorf("core: offload: %w", err)
		}
		split = res
		adm[0].lat, adm[0].energyMJ = res.Latency, res.DeviceEnergyJ*1e3
		return res.Logits, nil
	})
	return OffloadOutcome{InferenceResult: out[0].Result, Split: split}, out[0].Err
}
