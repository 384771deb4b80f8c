package core

import (
	"fmt"
	"sort"
	"sync"

	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/enclave"
	"tinymlops/internal/engine"
	"tinymlops/internal/fed"
	"tinymlops/internal/metering"
	"tinymlops/internal/nn"
	"tinymlops/internal/observe"
	"tinymlops/internal/procvm"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/selector"
	"tinymlops/internal/verify"
)

// Config provisions a Platform.
type Config struct {
	// VendorKey signs vouchers and wraps model encryption keys.
	VendorKey []byte
	// Seed is reserved for platform-side randomness; the platform draws
	// none today (each random draw is seeded by its own config).
	Seed uint64
	// MinCohort is the telemetry k-anonymity floor.
	MinCohort int
	// Workers bounds the platform's parallel fleet operations (deployment
	// fan-out, telemetry sync, settlement); values ≤ 0 mean GOMAXPROCS.
	Workers int
	// VerifiedBilling arms pay-per-query proof settlement: deployments
	// attach sum-check proofs for a deterministic sample of their charges
	// and the settler rejects any report whose sample is missing or fails
	// verification (billing.go).
	VerifiedBilling bool
	// AttestationRate is the billing sample density — roughly 1 in N
	// charges carries a proof; 0 means the default of 4, 1 proves every
	// charge. Only meaningful with VerifiedBilling.
	AttestationRate int
}

// Platform is the TinyMLOps control plane plus the simulated data plane.
type Platform struct {
	Registry   *registry.Registry
	Fleet      *device.Fleet
	Issuer     *metering.Issuer
	Settler    *metering.Settler
	Aggregator *observe.Aggregator

	vendorKey []byte
	eng       *engine.Engine
	// arenas holds the per-worker serving scratch: deployments borrow an
	// arena per inference call, so scratch memory scales with concurrency
	// rather than with fleet size and the hot loop stays allocation-free.
	arenas *engine.ArenaPool
	// verifier and attRate drive verified billing (billing.go); verifier
	// is nil when the feature is off.
	verifier *verify.BatchVerifier
	attRate  int
	// classMu serializes provedWeights misses; onPrepare, set only by
	// tests, observes each one.
	classMu   sync.Mutex
	onPrepare func(modelID string)
	// images holds what unwatermarked deployments run: one decoded artifact
	// and one executor per (version, executor kind), shared by pointer.
	images imageTable

	// encMu serializes protected-offload provisioning (sealing advances an
	// enclave-internal monotonic counter); encSess is the lazily provisioned
	// shared cloud enclave session that hosts every protected suffix.
	encMu   sync.Mutex
	encSess *enclave.Session

	mu          sync.Mutex
	deployments map[string]*Deployment
}

// Engine returns the worker pool behind the platform's fleet-wide
// operations, so callers can reuse it for their own fan-out.
func (p *Platform) Engine() *engine.Engine { return p.eng }

// New creates a platform over a device fleet.
func New(fleet *device.Fleet, cfg Config) (*Platform, error) {
	if len(cfg.VendorKey) < 16 {
		return nil, fmt.Errorf("core: vendor key must be at least 16 bytes")
	}
	issuer, err := metering.NewIssuer(cfg.VendorKey)
	if err != nil {
		return nil, err
	}
	minCohort := cfg.MinCohort
	if minCohort < 1 {
		minCohort = 1
	}
	p := &Platform{
		Registry:    registry.New(),
		Fleet:       fleet,
		Issuer:      issuer,
		Settler:     metering.NewSettler(issuer),
		Aggregator:  observe.NewAggregator(minCohort),
		vendorKey:   append([]byte(nil), cfg.VendorKey...),
		eng:         engine.New(engine.Config{Workers: cfg.Workers}),
		arenas:      engine.NewArenaPool(),
		deployments: make(map[string]*Deployment),
	}
	if cfg.VerifiedBilling {
		p.attRate = cfg.AttestationRate
		if p.attRate == 0 {
			p.attRate = 4
		}
		p.verifier = verify.NewBatchVerifier(p.eng)
		p.Settler.SetAttestation(p.attRate, p.verifyAttestations)
	}
	return p, nil
}

// Publish registers a trained model and derives its optimized variants,
// evaluating each candidate on eval. It returns all registered versions
// (base first).
func (p *Platform) Publish(name string, net *nn.Network, eval *dataset.Dataset, spec registry.OptimizationSpec) ([]*registry.ModelVersion, error) {
	if spec.Evaluate == nil {
		spec.Evaluate = func(n *nn.Network) float64 { return nn.Evaluate(n, eval.X, eval.Y) }
	}
	base := spec.Evaluate(net)
	return p.Registry.RegisterWithVariants(name, net, base, spec)
}

// DeployConfig controls one device deployment.
type DeployConfig struct {
	// Policy drives variant selection. The zero value imposes no hard
	// constraint and scores with the selector's fixed weights, BatteryAware
	// off: unlike selector.DefaultPolicy, it ignores charger and battery.
	Policy selector.Policy
	// PrepaidQueries sets the voucher quota.
	PrepaidQueries uint64
	// Calibration provides the drift-detector reference sample; nil
	// disables monitoring.
	Calibration *dataset.Dataset
	// Watermark, when non-empty, is the customer identity whose static
	// watermark is embedded into the deployed copy (§V: per-user marks).
	Watermark string
	// Pre and Post are optional procvm pipeline modules.
	Pre, Post *procvm.Module
}

// Deploy selects the best variant of the named model line for the device,
// encrypts and "ships" it (charging the download to the device's radio),
// provisions a prepaid meter and a drift monitor, and returns the live
// deployment handle.
func (p *Platform) Deploy(deviceID, modelName string, cfg DeployConfig) (_ *Deployment, err error) {
	dev, ok := p.Fleet.Get(deviceID)
	if !ok {
		return nil, fmt.Errorf("core: unknown device %q", deviceID)
	}
	candidates := p.Registry.Versions(modelName)
	if len(candidates) == 0 {
		return nil, fmt.Errorf("core: model line %q is empty", modelName)
	}
	decision, err := selector.Select(dev, candidates, cfg.Policy)
	if err != nil {
		return nil, fmt.Errorf("core: select for %s: %w", deviceID, err)
	}
	version := decision.Chosen.Version

	// Encrypt the artifact, transfer and flash it, decrypt on device.
	// Compiled (procvm) versions ship the canonical module encoding; the
	// obfuscated bytecode is the protection, so watermarks never apply.
	if version.Kind == registry.KindProcVM && cfg.Watermark != "" {
		return nil, fmt.Errorf("core: compiled module versions cannot carry a watermark")
	}
	img, err := p.shipFull(nil, dev, version, cfg.Watermark, new(UpdateReport))
	if err != nil {
		return nil, err
	}
	// Until the deployment is published the image reference is this call's
	// to give back.
	defer func() {
		if err != nil {
			p.images.release(img)
		}
	}()

	quota := cfg.PrepaidQueries
	if quota == 0 {
		quota = 1000
	}
	voucher, err := p.Issuer.Issue(deviceID, version.ID, quota)
	if err != nil {
		return nil, err
	}

	d := &Deployment{
		DeviceID:  deviceID,
		Version:   version,
		platform:  p,
		device:    dev,
		img:       img,
		policy:    cfg.Policy,
		watermark: cfg.Watermark,
		Meter:     metering.NewMeter(voucher),
		Buffer:    observe.NewBuffer(),
		pre:       cfg.Pre,
		post:      cfg.Post,
		runtime:   procvm.NewRuntime(procvm.CapSensor),
	}
	if cfg.Calibration != nil {
		mon, err := buildMonitor(cfg.Calibration)
		if err != nil {
			return nil, err
		}
		d.Monitor = mon
	}
	if p.verifier != nil {
		// d is not yet published, so no lock is needed for the "Locked"
		// snapshot; the attestor proves against the registry artifact, not
		// the (possibly watermarked) deployed copy.
		if err := d.refreshAttestorLocked(); err != nil {
			return nil, err
		}
		d.Meter.SetAttestor(p.attRate, d.attest)
	}
	p.mu.Lock()
	old := p.deployments[deviceID]
	p.deployments[deviceID] = d
	p.mu.Unlock()
	if old != nil {
		old.disown()
	}
	return d, nil
}

// Deployment returns the live deployment on a device, if any.
func (p *Platform) Deployment(deviceID string) (*Deployment, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.deployments[deviceID]
	return d, ok
}

// Deployments returns all live deployments, sorted by device ID so
// fleet-wide fan-outs are deterministic.
func (p *Platform) Deployments() []*Deployment {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Deployment, 0, len(p.deployments))
	for _, d := range p.deployments {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DeviceID < out[j].DeviceID })
	return out
}

// DeployMany deploys the named model line to every listed device across
// the platform's worker pool, returning the deployments in input order.
// Per-device failures are joined into the returned error; successful
// deployments keep their slots, failed ones are nil.
func (p *Platform) DeployMany(deviceIDs []string, modelName string, cfg DeployConfig) ([]*Deployment, error) {
	return engine.Map(p.eng, len(deviceIDs), func(i int) (*Deployment, error) {
		return p.Deploy(deviceIDs[i], modelName, cfg)
	})
}

// buildMonitor calibrates per-feature CUSUM detectors from a reference
// dataset (cheapest detector; the observability experiment compares the
// alternatives).
func buildMonitor(ref *dataset.Dataset) (*observe.Monitor, error) {
	n := ref.Len()
	rows := make([][]float32, n)
	es := ref.X.Size() / n
	for i := 0; i < n; i++ {
		rows[i] = ref.X.Data[i*es : (i+1)*es]
	}
	cols := observe.ColumnsOf(rows)
	// The monitor alarms when ANY feature's detector fires, which divides
	// the per-feature in-control run length by the feature count; scale
	// the CUSUM threshold with log(features) to compensate.
	h := 10 + float64(4*log2Ceil(len(cols)))
	return observe.NewMonitor(cols, func(col []float64) (observe.Detector, error) {
		var w observe.Welford
		for _, v := range col {
			w.Add(v)
		}
		std := w.Std()
		if std <= 0 {
			std = 1
		}
		return observe.NewCUSUMDetector(w.Mean(), std, 0.5, h)
	})
}

func log2Ceil(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

// WatermarkCapacity reports the per-customer mark size the platform embeds
// into a deployed copy of this model — the convention auditors need to
// re-extract and verify a device's mark. It is a size the first dense layer
// can carry comfortably (≤ a quarter of its weights, at most 32 bits).
func WatermarkCapacity(model *nn.Network) int {
	for _, l := range model.Layers() {
		if d, ok := l.(*nn.Dense); ok {
			c := d.W.Value.Size() / 4
			if c > 32 {
				c = 32
			}
			if c < 4 {
				c = 4
			}
			return c
		}
	}
	return 16
}

// SyncTelemetry flushes every deployment's buffered records for devices
// currently on WiFi into the aggregator (cohort = device class). The
// per-deployment window rolls and radio transfers fan out over the worker
// pool; ingestion stays serial in device-ID order so cohort aggregates are
// reproducible. It returns the number of records ingested and bytes
// uplinked.
func (p *Platform) SyncTelemetry() (records, bytes int, err error) {
	deps := p.Deployments()
	type flushed struct {
		recs  []observe.Record
		bytes int
		class string
	}
	flushes, err := engine.Map(p.eng, len(deps), func(i int) (flushed, error) {
		d := deps[i]
		d.mu.Lock()
		d.rollWindowLocked()
		d.mu.Unlock()
		recs, n, ferr := d.Buffer.FlushIfWiFi(d.device)
		if ferr != nil {
			return flushed{}, ferr
		}
		return flushed{recs: recs, bytes: n, class: d.device.Caps.Class.String()}, nil
	})
	for _, f := range flushes {
		for _, r := range f.recs {
			p.Aggregator.Ingest(f.class, r)
		}
		records += len(f.recs)
		bytes += f.bytes
	}
	return records, bytes, err
}

// SettleAll settles every deployment's meter against a settlement server
// address concurrently, returning per-device errors keyed by device ID. A
// settlement that panics is that device's error.
func (p *Platform) SettleAll(addr string) map[string]error {
	deps := p.Deployments()
	errs := make([]error, len(deps))
	_ = p.eng.ForEach(len(deps), func(i int) error {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("core: settle %s panicked: %v", deps[i].DeviceID, r)
			}
		}()
		errs[i] = metering.MustSettle(addr, deps[i].Meter)
		return nil
	})
	out := make(map[string]error, len(deps))
	for i, d := range deps {
		out[d.DeviceID] = errs[i]
	}
	return out
}

// HierFederatedUpdate runs federated training of the named model line over
// client shards and publishes the improved global model into the registry
// as a rollout candidate (re-deriving all variants, tagged as a federated
// aggregate). With hcfg.Aggregators > 0 the client fleet shards into
// edge-aggregator cohorts, each cohort's updates aggregate at the edge
// (exactly, in fixed point — with pairwise masking when hcfg.SecureAgg is
// set) and the cloud sums only one compact partial per aggregator; with 0
// the clients upload straight to the cloud. It returns the coordinator — its
// Global is the published model and PersonalizeCohorts fine-tunes it per
// cohort — the new versions and per-round stats; chain with Rollout to
// stage the fleet update.
func (p *Platform) HierFederatedUpdate(name string, clients []*fed.Client, test *dataset.Dataset, hcfg fed.HierConfig, spec registry.OptimizationSpec) (*fed.Coordinator, []*registry.ModelVersion, []fed.RoundStats, error) {
	latest, err := p.Registry.Latest(name)
	if err != nil {
		return nil, nil, nil, err
	}
	global, err := p.Registry.Load(latest.ID)
	if err != nil {
		return nil, nil, nil, err
	}
	if hcfg.Engine == nil {
		hcfg.Engine = p.eng
	}
	var co *fed.Coordinator
	if hcfg.Aggregators == 0 && !hcfg.SecureAgg && hcfg.AggFaults == nil {
		co, err = fed.NewCoordinator(global, clients, test.X, test.Y, hcfg.Config)
	} else { // which refuses an edge-tier setting with no edge tier
		co, err = fed.NewHierCoordinator(global, clients, test.X, test.Y, hcfg)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	stats, err := co.Run()
	if err != nil {
		return nil, nil, nil, err
	}
	versions, err := co.PublishGlobal(p.Registry, name, spec)
	if err != nil {
		return nil, nil, nil, err
	}
	return co, versions, stats, nil
}

// DefaultOptimizationSpec derives the standard int8/int4/ternary/binary
// variant matrix evaluated on eval.
func DefaultOptimizationSpec(eval *dataset.Dataset) registry.OptimizationSpec {
	return registry.OptimizationSpec{
		Schemes: []quant.Scheme{quant.Int8, quant.Int4, quant.Ternary, quant.Binary},
		Evaluate: func(n *nn.Network) float64 {
			return nn.Evaluate(n, eval.X, eval.Y)
		},
	}
}
