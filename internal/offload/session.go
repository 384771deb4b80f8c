package offload

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"tinymlops/internal/device"
	"tinymlops/internal/engine"
	"tinymlops/internal/exec"
	"tinymlops/internal/market"
	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/quant"
	"tinymlops/internal/tensor"
	"tinymlops/internal/wire"
)

// shedAttempts is how many times a session submits a query the cloud keeps
// shedding before it finishes the suffix on the device.
const shedAttempts = 3

// Mode records how one offloaded query actually executed.
type Mode int

// Execution modes.
const (
	// ModeLocal means the plan kept every layer on-device (offline, or
	// the split simply isn't worth it).
	ModeLocal Mode = iota
	// ModeSplit means the prefix ran on-device and the suffix in the
	// cloud — the partitioned path the plane exists for.
	ModeSplit
	// ModeFallback means a split was attempted but the network or the
	// cloud failed it, and the device finished the suffix itself. The
	// answer is still bit-identical — only the cost accounting differs.
	ModeFallback
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeLocal:
		return "local"
	case ModeSplit:
		return "split"
	case ModeFallback:
		return "fallback"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Result is one offloaded query's outcome and cost decomposition.
type Result struct {
	// Logits is the model output, bit-identical to the monolithic
	// forward pass regardless of Mode.
	Logits []float32
	// Latency is the modeled end-to-end time: device prefix + uplink +
	// cloud compute + downlink (terms zero when unused).
	Latency time.Duration
	// Mode is how the query executed; Cut is the plan it executed under.
	Mode Mode
	Cut  int
	// ActivationBytes / ResponseBytes are the serialized boundary sizes
	// that crossed (or would have crossed) the network.
	ActivationBytes int64
	ResponseBytes   int64
	// DeviceEnergyJ is the device-side energy actually charged: prefix
	// (and fallback suffix) compute plus radio transmit.
	DeviceEnergyJ float64
	// Replanned reports that this query's condition snapshot moved the
	// cut before executing.
	Replanned bool
}

// Stats aggregates a session's execution counters.
type Stats struct {
	Queries   int64
	Fallbacks int64
	// ActivationBytes sums the uplinked boundary activations.
	ActivationBytes int64
}

// SessionConfig binds a split-execution session to one device and model.
type SessionConfig struct {
	// Tenant names the session to the cloud tier (default: the device
	// ID); the tier does not read it.
	Tenant string
	// VersionID names the registered model version the cloud serves.
	VersionID string
	// Device is the edge node paying for prefix compute and radio.
	Device *device.Device
	// Executor, when non-nil, is the on-device executor itself: a platform
	// deployment passes the one it already serves with, so opening a session
	// lowers nothing, and Model, Scheme and Module go unread. Leave it nil
	// for a standalone session, which builds its executor from them.
	Executor exec.Executor
	// Model is the on-device network. Bit-exactness requires its weights be
	// identical to the cloud's registered artifact. Nil exactly when Module
	// is set.
	Model *nn.Network
	// Scheme, when an integer scheme, runs both halves of the split on the
	// integer kernels: the session lowers Model onto them, plans cuts
	// snapped to dense-stage boundaries, and ships boundaries as int8
	// codes plus a per-example scale (the QAB1 codec). The cloud entry
	// must be an exec.Quant executor at the same scheme.
	Scheme quant.Scheme
	// Module, when non-nil, replaces Model with a compiled procvm
	// artifact: the only split is all-local versus whole-module execution
	// on the cloud's enclave (cut 0), planned over ModuleMACs.
	Module *procvm.Module
	// ModuleMACs is the module's per-query work for planning (with Module).
	ModuleMACs int64
	// InFeatures is the module's input width (required with Module; a
	// module does not declare its own input geometry).
	InFeatures int
	// Bits is the deployed weight precision for latency modeling (≤0 = 32).
	Bits int
	// Cloud is the suffix-serving tier.
	Cloud *CloudTier
	// Replan tunes the live re-planning loop.
	Replan ReplanConfig
	// Plan, when non-nil, is the initial split; otherwise the session
	// plans from the device's conditions at construction time.
	Plan *market.SplitPlan
}

// executor returns the on-device executor the configuration names or
// describes — the one place offload looks at a variant kind.
func (cfg *SessionConfig) executor() (exec.Executor, error) {
	switch {
	case cfg.Executor != nil:
		return cfg.Executor, nil
	case (cfg.Model == nil) == (cfg.Module == nil):
		return nil, fmt.Errorf("offload: session needs exactly one of a model and a compiled module")
	case cfg.Module != nil:
		return exec.Module(cfg.Module, cfg.Module.Caps, cfg.InFeatures, cfg.ModuleMACs)
	case cfg.Scheme != quant.Float32:
		return exec.Quant(cfg.Model, cfg.Scheme)
	default:
		return exec.Float(cfg.Model)
	}
}

// Session executes split inference for one device: it plans (and re-plans)
// the cut, runs the prefix on the device cost model, ships the boundary
// activation through the executor's codec, and falls back to full
// on-device execution whenever the network or the cloud fails the split.
// All methods are safe for concurrent use; queries serialize per session.
type Session struct {
	cfg   SessionConfig
	ex    exec.Executor
	costs []nn.LayerCost
	// in is the reusable [1, input shape...] header over each query's row
	// of features values.
	in       *tensor.Tensor
	features int

	mu     sync.Mutex
	replan *Replanner
	stats  Stats
	// arena holds the executor scratch and boundary-encode buffer: queries
	// serialize under s.mu, so one arena per session suffices.
	arena *engine.Arena
	// reply is what each cloud reply decodes into.
	reply tensor.Tensor
}

// NewSession validates the configuration and plans the initial split from
// the device's current conditions (unless cfg.Plan pins one).
func NewSession(cfg SessionConfig) (*Session, error) {
	if cfg.Device == nil || cfg.Cloud == nil {
		return nil, fmt.Errorf("offload: session needs a device and a cloud tier")
	}
	if cfg.Tenant == "" {
		cfg.Tenant = cfg.Device.ID
	}
	if cfg.Bits <= 0 {
		cfg.Bits = 32
	}
	ex, err := cfg.executor()
	if err != nil {
		return nil, err
	}
	s := &Session{
		cfg: cfg, ex: ex, costs: ex.Costs(), arena: engine.NewArena(),
		in: tensor.New(append([]int{1}, ex.InputShape()...)...),
	}
	s.features = s.in.Size()
	rp, err := NewReplanner(cfg.Replan, cfg.Device.Caps, cfg.Cloud.Caps(), s.costs,
		cfg.Bits, 4*int64(s.features), cfg.Plan, s.conditions())
	if err != nil {
		return nil, err
	}
	s.replan = rp
	return s, nil
}

// conditions snapshots the live telemetry the replanner watches.
func (s *Session) conditions() Conditions {
	return Conditions{
		BandwidthBps: s.cfg.Device.Net().Bandwidth(),
		Battery:      s.cfg.Device.BatteryLevel(),
	}
}

// Stats returns a snapshot of the session counters.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Exec runs one query under the live plan. It charges nothing: the caller's
// own gate meters the query (core.OffloadSession.Infer runs it as the
// execute step of the deployment's metered serving pipeline).
func (s *Session) Exec(x []float32) (Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exec(x)
}

// exec executes one query under the live plan. Caller holds s.mu. The
// row is read in place: no executor retains it past the call.
func (s *Session) exec(x []float32) (Result, error) {
	if len(x) != s.features {
		return Result{}, fmt.Errorf("offload: input has %d features, model wants %d", len(x), s.features)
	}
	plan, moved := s.replan.Observe(s.conditions())
	// The planner works on the cost list; the executor snaps its cut onto
	// the nearest boundary its codec can cross (all-local when none is).
	cut := s.ex.SnapCut(plan.Cut)
	res := Result{Cut: cut, Replanned: moved}
	s.in.Data = x
	n := len(s.costs)
	dev := s.cfg.Device

	// Full-edge plan: one on-device inference, no network at all.
	if cut == n {
		return s.finishLocal(res, s.in, 0, 0, ModeLocal)
	}

	// Split path: prefix on-device (cut 0 ships the raw input and runs
	// nothing locally), activation through the codec, suffix in the cloud.
	var prefixLat time.Duration
	prefixMACs := s.macs(0, cut)
	if prefixMACs > 0 {
		var err error
		if prefixLat, err = dev.RunInference(prefixMACs, s.cfg.Bits); err != nil {
			return Result{}, fmt.Errorf("offload: device: %w", err)
		}
		res.DeviceEnergyJ += dev.Caps.InferenceEnergy(prefixMACs)
	}
	act, err := s.ex.Run(s.in, 0, cut, s.arena)
	if err != nil {
		return Result{}, fmt.Errorf("offload: %w", err)
	}
	// The payload aliases the session's arena: Cloud.Submit is a call that
	// keeps nothing past its return, so the next query reuses the storage.
	payload, err := s.ex.EncodeBoundary(act, cut, s.arena)
	if err != nil {
		return Result{}, fmt.Errorf("offload: encode activation: %w", err)
	}
	res.ActivationBytes = int64(len(payload))

	upDur, err := dev.Upload(int64(len(payload)))
	if err != nil {
		// Uplink drop mid-activation: the radio refused (offline, battery)
		// before spending, so fall back to finishing on-device.
		return s.finishLocal(res, act, cut, prefixLat, ModeFallback)
	}
	res.DeviceEnergyJ += float64(len(payload)) * dev.Caps.EnergyPerTxByteJoule
	s.stats.ActivationBytes += int64(len(payload))

	var resp Response
	_, err = engine.Retry(engine.RetryPolicy{Attempts: shedAttempts},
		func(e error) bool { return errors.Is(e, ErrShed) },
		func(int) error {
			r, serr := s.cfg.Cloud.Submit(s.cfg.Tenant, s.cfg.VersionID, cut, payload)
			if serr == nil {
				resp = r
			}
			return serr
		})
	if err != nil {
		// The cloud shed us past the retry budget (or is closed): the
		// uplink bytes are spent, but the query must still answer.
		return s.finishLocal(res, act, cut, prefixLat+upDur, ModeFallback)
	}

	dnDur, err := dev.Download(int64(len(resp.Payload)))
	if err != nil {
		// The answer was computed but the downlink is gone; recompute the
		// suffix locally rather than losing the query.
		return s.finishLocal(res, act, cut, prefixLat+upDur+resp.Latency, ModeFallback)
	}
	out, err := s.decodeReply(resp.Payload)
	if err != nil {
		return Result{}, err
	}
	res.Mode = ModeSplit
	res.Latency = prefixLat + upDur + resp.Latency + dnDur
	res.ResponseBytes = int64(len(resp.Payload))
	// The reply decoded into the session's tensor; the caller keeps a copy.
	res.Logits = slices.Clone(out.Data)
	s.stats.Queries++
	return res, nil
}

// decodeReply decodes the cloud's TMLT1 reply into the session's tensor.
// It must be one row of the output the executor declares (of one vector
// when it declares none): any other reply fails the query, whatever its
// argmax.
func (s *Session) decodeReply(payload []byte) (*tensor.Tensor, error) {
	r := wire.NewReader(payload)
	err := s.reply.Decode(r)
	if err == nil {
		err = r.Done()
	}
	if err != nil {
		return nil, fmt.Errorf("offload: decode result: %w", err)
	}
	shape := s.reply.Shape()
	want := s.costs[len(s.costs)-1].Info.OutShape
	if shape[0] != 1 || (want == nil && len(shape) != 2) || (want != nil && !slices.Equal(shape[1:], want)) {
		return nil, fmt.Errorf("offload: cloud replied with shape %v, want [1 %v]", shape, want)
	}
	return &s.reply, nil
}

// finishLocal runs steps [cut, n) on the device from act — the whole pass
// of an all-local plan (cut 0, ModeLocal), or the suffix of a failed split
// on its already-computed boundary (ModeFallback), bit-exactly: an integer
// executor resumes by quantizing the boundary as the wire codec did. spent
// is the latency the query accrued before this point.
func (s *Session) finishLocal(res Result, act *tensor.Tensor, cut int, spent time.Duration, mode Mode) (Result, error) {
	dev, macs := s.cfg.Device, s.macs(cut, len(s.costs))
	lat, err := dev.RunInference(macs, s.cfg.Bits)
	if err != nil {
		return Result{}, fmt.Errorf("offload: device: %w", err)
	}
	out, err := s.ex.Run(act, cut, len(s.costs), s.arena)
	if err != nil {
		return Result{}, fmt.Errorf("offload: %w", err)
	}
	res.Mode, res.Latency = mode, spent+lat
	res.DeviceEnergyJ += dev.Caps.InferenceEnergy(macs)
	// The output aliases arena scratch; the caller keeps its own copy.
	res.Logits = append([]float32(nil), out.Data...)
	s.stats.Queries++
	if mode == ModeFallback {
		s.stats.Fallbacks++
	}
	return res, nil
}

// macs sums per-layer MACs over [lo,hi).
func (s *Session) macs(lo, hi int) int64 {
	var total int64
	for _, c := range s.costs[lo:hi] {
		total += c.Info.MACs
	}
	return total
}
