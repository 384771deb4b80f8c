package core

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"tinymlops/internal/enclave"
	"tinymlops/internal/exec"
	"tinymlops/internal/market"
	"tinymlops/internal/offload"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
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
	// RTT is the fixed round-trip to the cloud used in planning (also the
	// default for Replan.RTT).
	RTT time.Duration
	// Replan tunes the live re-planning loop (its round-trip time, or
	// Disabled to freeze the initial plan).
	Replan offload.ReplanConfig
	// Plan, when non-nil, pins the initial cut instead of planning from
	// the device's current conditions.
	Plan *market.SplitPlan
	// Enclave, when non-nil, hosts protected suffix execution (watermarked
	// and compiled deployments) instead of the platform's lazily
	// provisioned shared session. Its enclave must be provisioned from the
	// platform vendor key — the manufacturer root the platform verifies
	// attestation reports against.
	Enclave *enclave.Session
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
	// bytes, cloud batch, energy).
	Split offload.Result
}

// Offload opens a split-execution session on a live deployment: queries
// submitted through the session stay metered, monitored and telemetered
// exactly like Deployment.Infer, but the forward pass executes under a
// live SplitPlan — prefix on the device, suffix on cfg.Cloud — re-planned
// as bandwidth and battery drift.
//
// Every variant kind splits, each on its own executor, and every answer
// stays bit-identical to the device serving the query alone:
//
//   - Float deployments ship float boundary activations; the cloud serves
//     the registry artifact (bit-identical to the device's copy).
//   - Integer-native deployments ship int8 boundary codes plus a dynamic
//     per-example scale (the QAB1 codec); the cloud resumes the same
//     integer kernels at a dense-stage cut.
//   - Watermarked deployments seal their per-device marked copy into the
//     cloud enclave: the suffix executes inside the protected world (paying
//     its slowdown), so the mark never exists in cloud plaintext.
//   - Compiled (procvm) deployments seal the module into the enclave and
//     run it whole there when the plan offloads (cut 0).
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
	if watermarked && execScheme != quant.Float32 {
		return nil, fmt.Errorf("core: watermarked integer-native deployment on %s cannot offload (the enclave executes the float copy)", deviceID)
	}

	replan := cfg.Replan
	if replan.RTT == 0 {
		replan.RTT = cfg.RTT
	}
	scfg := offload.SessionConfig{
		Tenant: deviceID,
		Device: dep.device,
		Bits:   img.run.Bits(),
		Cloud:  cfg.Cloud,
		Replan: replan,
		Plan:   cfg.Plan,
	}
	if img.compiled == nil {
		// The device half of the split runs the executor the deployment
		// already serves with; opening a session lowers nothing. (A compiled
		// module's session builds its own: it needs the input width.)
		scfg.Executor = img.run
	}
	// register binds the session to the cloud entry under key, building the
	// cloud-side executor only if the tier lacks it: fleet-wide session
	// setup registers each artifact once, not per device.
	register := func(key string, build func() (exec.Executor, error)) error {
		scfg.VersionID = key
		if cfg.Cloud.Registered(key) {
			return nil
		}
		ex, err := build()
		if err != nil {
			return fmt.Errorf("core: offload: %w", err)
		}
		return cfg.Cloud.Register(key, ex)
	}

	var err error
	switch {
	case img.compiled != nil:
		// Obfuscated deployment: the module is sealed to the enclave and runs
		// whole in the protected world when the plan offloads. It declares no
		// input geometry; the float artifact it was lowered from does.
		parent, perr := p.Registry.Load(version.ParentID)
		if perr != nil {
			return nil, fmt.Errorf("core: offload: %w", perr)
		}
		feats := exec.Width(parent.InputShape)
		scfg.Module, scfg.ModuleMACs, scfg.InFeatures = img.compiled, version.Metrics.MACs, feats
		err = register(version.ID, func() (exec.Executor, error) {
			blob, err := p.Registry.Bytes(version.ID)
			if err != nil {
				return nil, err
			}
			return p.hostSealed(cfg, version.ID, blob, version, feats)
		})

	case watermarked:
		// The per-device marked copy is sealed to the enclave under a
		// per-device key: its suffix executes only inside the protected
		// world, so the split does not break watermark protection.
		key := version.ID + "@" + deviceID
		err = register(key, func() (exec.Executor, error) {
			blob, err := img.model.MarshalBinary()
			if err != nil {
				return nil, err
			}
			return p.hostSealed(cfg, key, blob, version, 0)
		})

	default:
		// The cloud serves the fleet's own image of the version: the same
		// decoded registry artifact and the same executor the device runs,
		// by pointer. Integer-native deployments cross the cut as int8 codes;
		// the "#q" key keeps their entry distinct from the float entry of
		// the same version (devices without native support still split in
		// float).
		key := version.ID
		if execScheme != quant.Float32 {
			key += "#q"
		}
		err = register(key, func() (exec.Executor, error) { return img.run, nil })
	}
	if err != nil {
		return nil, err
	}

	// A session's first Infer would otherwise block forever on a tier
	// whose dispatchers were never launched — while holding the
	// deployment lock. Start is idempotent, so just ensure it.
	cfg.Cloud.Start()
	sess, err := offload.NewSession(scfg)
	if err != nil {
		return nil, err
	}
	return &OffloadSession{dep: dep, sess: sess, versionID: version.ID}, nil
}

// hostSealed seals an artifact of version v into the enclave session hosting
// protected execution — the caller's, or the platform's shared cloud
// enclave, provisioned on first use from the vendor key — under artID and
// verifies the attestation chain before anything serves from it: the loaded
// measurement must equal the artifact digest, and the session's report
// over it must verify against the vendor root. It returns the executor over
// the enclave's copy (features is a compiled module's input width). Sealing
// advances the enclave's monotonic counter, so it serializes under encMu.
func (p *Platform) hostSealed(cfg OffloadConfig, artID string, blob []byte, v *registry.ModelVersion, features int) (exec.Executor, error) {
	sess := cfg.Enclave
	p.encMu.Lock()
	if sess == nil && p.encSess == nil {
		enc, err := enclave.New("cloud-enclave", p.vendorKey, 1.2)
		if err != nil {
			p.encMu.Unlock()
			return nil, fmt.Errorf("provision cloud enclave: %w", err)
		}
		p.encSess = enclave.NewSession(enc)
	}
	if sess == nil {
		sess = p.encSess
	}
	sealed, err := sess.Enclave().Seal(blob)
	p.encMu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("seal %s: %w", artID, err)
	}
	load := sess.LoadSealedNetwork
	if v.Kind == registry.KindProcVM {
		load = sess.LoadSealedModule
	}
	meas, err := load(artID, sealed)
	if err != nil {
		return nil, fmt.Errorf("load sealed %s: %w", artID, err)
	}
	want := sha256.Sum256(blob)
	if meas != want {
		return nil, fmt.Errorf("enclave measurement mismatch for %s", artID)
	}
	rep, err := sess.Attest(artID, want[:16])
	if err != nil {
		return nil, fmt.Errorf("attest %s: %w", artID, err)
	}
	if !enclave.VerifyReport(p.vendorKey, rep) || rep.Measurement != want {
		return nil, fmt.Errorf("attestation for %s failed verification", artID)
	}
	return hostedExecutor(sess, artID, v, features)
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
