package core

import (
	"errors"
	"fmt"

	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/engine"
	"tinymlops/internal/registry"
	"tinymlops/internal/rollout"
	"tinymlops/internal/swarm"
)

// RolloutConfig controls a staged fleet update (see internal/rollout for
// the wave/gate semantics).
type RolloutConfig struct {
	// Waves defaults to rollout.DefaultWaves() (canary → cohort → fleet).
	Waves []rollout.Wave
	// Gate thresholds (zero value = defaults).
	Gate rollout.Gate
	// Seed keys the deterministic wave assignment.
	Seed uint64
	// Bake drives representative traffic through a wave's devices between
	// their update and the health gate; nil gates on whatever traffic the
	// application generates on its own.
	Bake func(wave rollout.Wave, deviceIDs []string) error
	// BeforeWave runs serially before each wave's update fan-out — the
	// fault plane's hook for imposing per-wave weather.
	BeforeWave func(wave rollout.Wave, deviceIDs []string)
	// Calibration recalibrates updated devices' drift monitors for the new
	// version; nil keeps each device's existing monitor (reset).
	Calibration *dataset.Dataset
	// ForceFull disables delta transfer for every update in the rollout.
	ForceFull bool
	// Retry bounds per-device update attempts within a wave (zero value =
	// one attempt). Only a TransientUpdateError retries: a dropped link, or
	// an interrupted install, which resumes its half-written slot. Battery
	// death, selection failures and topology problems fail fast.
	Retry engine.RetryPolicy
	// Swarm, when non-nil, switches transfers to peer-to-peer mode: the
	// registry serves only the canary wave (no device holds the new bytes
	// yet) and acts as seeder of last resort; later waves fetch chunks from
	// devices the earlier waves updated. The controller promotes each
	// passed wave's devices into the seeder set and withdraws a rolled-back
	// wave's pending registrations. Build one with Platform.NewSwarm.
	Swarm *swarm.Swarm
}

// SwarmOptions configures Platform.NewSwarm.
type SwarmOptions struct {
	// ChunkBytes is the manifest chunk size (0 = swarm.DefaultChunkBytes).
	ChunkBytes int64
	// Seed roots the deterministic peer assignment.
	Seed uint64
	// PeerDrop injects deterministic mid-chunk peer churn (the fault
	// plane's swarm weather hook); nil means peers never drop.
	PeerDrop swarm.DropFunc
}

// NewSwarm builds a peer-to-peer distribution swarm over this platform's
// fleet and registry: artifact names resolve to the registry's canonical
// bytes (Registry.Artifact) as the seed of last resort, and seeder IDs
// resolve to fleet devices. Pass the result in RolloutConfig.Swarm or
// UpdateOptions.Swarm.
func (p *Platform) NewSwarm(opts SwarmOptions) (*swarm.Swarm, error) {
	return swarm.New(swarm.Config{
		Source:     p.Registry.Artifact,
		Peer:       p.Fleet.Get,
		ChunkBytes: opts.ChunkBytes,
		Seed:       opts.Seed,
		PeerDrop:   opts.PeerDrop,
	})
}

// TransientUpdateError reports whether an update failure is transient: the
// device was offline, or the install crashed mid-flash and left a
// resumable staging slot. These are the faults a bounded retry can heal
// within a wave; a depleted battery or a permanent selection error cannot.
func TransientUpdateError(err error) bool {
	return errors.Is(err, device.ErrOffline) || errors.Is(err, device.ErrInstallInterrupted)
}

// Rollout drives every deployment of the target version's model line
// through a staged, health-gated update to that version (each device
// re-selecting its variant), rolling a failing wave back to the prior
// image. The result is deterministic for a given (platform state, config)
// at any worker count.
func (p *Platform) Rollout(target *registry.ModelVersion, cfg RolloutConfig) (*rollout.Result, error) {
	if target == nil {
		return nil, fmt.Errorf("core: nil rollout target")
	}
	ctl := rollout.NewController(p.eng)
	rcfg := rollout.Config{
		Waves:      cfg.Waves,
		Gate:       cfg.Gate,
		Seed:       cfg.Seed,
		Bake:       cfg.Bake,
		BeforeWave: cfg.BeforeWave,
		Retry:      cfg.Retry,
		Retryable:  TransientUpdateError,
	}
	if cfg.Swarm != nil {
		// A passed wave's devices hold the new bytes: promote them into the
		// seeder set before the next wave fans out. (A failed wave never
		// reaches AfterWave, and its rollbacks withdrew its pending
		// registrations.)
		rcfg.AfterWave = func(rollout.Wave, []string) { cfg.Swarm.AdvanceWave() }
	}
	return ctl.Run(&rolloutTarget{p: p, target: target, cfg: cfg}, rcfg)
}

// rolloutTarget adapts a Platform to the rollout.Target interface.
type rolloutTarget struct {
	p      *Platform
	target *registry.ModelVersion
	cfg    RolloutConfig
}

// DeviceIDs lists devices currently running the target's model line —
// Deployments() is already sorted by device ID, so the eligible set is
// deterministic.
func (t *rolloutTarget) DeviceIDs() []string {
	var out []string
	for _, d := range t.p.Deployments() {
		// Read under the deployment's lock: another rollout on this platform
		// may be updating it.
		if v, _, _ := d.StateSnapshot(); v.Name == t.target.Name {
			out = append(out, d.DeviceID)
		}
	}
	return out
}

func (t *rolloutTarget) dep(id string) (*Deployment, error) {
	d, ok := t.p.Deployment(id)
	if !ok {
		return nil, fmt.Errorf("core: no deployment on %q", id)
	}
	return d, nil
}

func (t *rolloutTarget) Baseline(id string) (rollout.Health, error) {
	d, err := t.dep(id)
	if err != nil {
		return rollout.Health{}, err
	}
	return d.Health(), nil
}

func (t *rolloutTarget) Health(id string) (rollout.Health, error) {
	return t.Baseline(id)
}

func (t *rolloutTarget) Update(id string) (rollout.Transfer, error) {
	d, err := t.dep(id)
	if err != nil {
		return rollout.Transfer{}, err
	}
	rep, err := d.Update(t.target, UpdateOptions{
		Calibration: t.cfg.Calibration,
		ForceFull:   t.cfg.ForceFull,
		Swarm:       t.cfg.Swarm,
	})
	if err != nil {
		return rollout.Transfer{}, err
	}
	return rollout.Transfer{
		ShipBytes:     rep.ShipBytes,
		FlashBytes:    rep.FlashBytes,
		UsedDelta:     rep.UsedDelta,
		FromID:        rep.From.ID,
		ToID:          rep.To.ID,
		PeerBytes:     rep.PeerBytes,
		RegistryBytes: rep.RegistryBytes,
	}, nil
}

func (t *rolloutTarget) Rollback(id string) error {
	d, err := t.dep(id)
	if err != nil {
		return err
	}
	if _, err = d.Rollback(); err != nil {
		return err
	}
	if t.cfg.Swarm != nil {
		// The device no longer holds the bytes it registered for.
		t.cfg.Swarm.RemovePending(id)
	}
	return nil
}
