package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tinymlops/internal/device"
	"tinymlops/internal/exec"
	"tinymlops/internal/metering"
	"tinymlops/internal/nn"
	"tinymlops/internal/observe"
	"tinymlops/internal/procvm"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/selector"
	"tinymlops/internal/tensor"
	"tinymlops/internal/verify"
)

// Deployment is one model running on one device: the installed image (the
// decoded model and the executable serving it — the float engine, or the
// integer-kernel QModel when the variant's scheme has native hardware
// support, see ExecutionScheme), the metering gate, the drift monitor, the
// telemetry buffer and the optional procvm pipeline stages. What is the
// device's own lives here; the image is the platform's one copy per
// (version, executor kind), held by pointer, unless a watermark made it
// this device's. Deployments are updatable: Update hot-swaps the image to a
// new registry version (keeping meter and telemetry buffer) and Rollback
// reverts to the previous one, A/B-slot style.
type Deployment struct {
	DeviceID string
	Version  *registry.ModelVersion

	Meter   *metering.Meter
	Monitor *observe.Monitor
	Buffer  *observe.Buffer

	platform *Platform
	device   *device.Device
	// img is the live image: its model is nil for compiled (procvm)
	// versions, whose artifact is the module in compiled instead.
	img       *image
	policy    selector.Policy
	watermark string
	pre       *procvm.Module
	post      *procvm.Module
	runtime   *procvm.Runtime

	// prev is the previous image (one-deep history, like an A/B flash
	// slot) and prevMonitor the drift monitor calibrated for it: Rollback
	// restores both without re-downloading anything.
	prev        *image
	prevMonitor *observe.Monitor

	mu sync.Mutex

	// Verified-billing attestor state (billing.go): the live version's
	// prepared proved layer (shared per version, see provedWeights), the
	// per-charge retained evidence, and the settled sequence as of the
	// last evidence sweep. retained is non-nil iff verified billing is on.
	att        *verify.PreparedWeights
	attModelID string
	retained   map[uint64]retainedCharge
	sweptSeq   uint64

	// Reusable serving buffers (guarded by d.mu): the admitted-row feature
	// slab, per-row bookkeeping, the input tensor header over the slab and
	// the logits copied out of the arena. Together with the arena-borrowed
	// executor scratch they make the steady-state serving path
	// allocation-free apart from the per-call result slice InferBatch
	// returns.
	batchFeats  []float32
	batchAdm    []admitted
	inHdr       *tensor.Tensor
	batchLogits []float32

	tick        uint64
	window      uint32
	winCount    uint32
	winDenied   uint32
	winFailed   uint32 // post-gate inference failures (battery, pipeline)
	winLatency  observe.Welford
	winEnergyMJ float64
	featStats   []observe.Welford
}

// admitted is one query that cleared the front half of the pipeline, and
// what its execute step reports back: the modeled latency and device
// energy, or the error that failed this query alone.
type admitted struct {
	idx      int
	lat      time.Duration
	energyMJ float64
	err      error
}

// ErrQueryDenied wraps metering denial at the inference entry point.
var ErrQueryDenied = errors.New("core: query denied by meter")

// inputView wraps features in the deployment's cached [rows, dim] header,
// reusing the feature slab so the steady state allocates nothing.
func (d *Deployment) inputView(rows, dim int) *tensor.Tensor {
	if h := d.inHdr; h != nil && h.Dim(0) == rows && h.Dim(1) == dim {
		h.Data = d.batchFeats[:rows*dim]
		return h
	}
	d.inHdr = tensor.FromSlice(d.batchFeats[:rows*dim], rows, dim)
	return d.inHdr
}

// InferenceResult is one query's outcome.
type InferenceResult struct {
	// Label is the predicted class (post-module output if one is bound,
	// otherwise the logits argmax).
	Label int
	// Latency is the modeled on-device execution time.
	Latency time.Duration
	// DriftAlarm reports whether the monitor has latched.
	DriftAlarm bool
}

// BatchOutcome is one query's outcome within InferBatch.
type BatchOutcome struct {
	Result InferenceResult
	Err    error
}

// executeStep is the one step a query path chooses: it runs the admitted
// [len(adm), width] batch and returns the logits row-major, charging the
// device and filling each row's latency, energy or error. An error return
// fails every admitted row.
type executeStep func(in *tensor.Tensor, adm []admitted) ([]float32, error)

// serveLocked is the serving pipeline behind every query path — single,
// batched and split: charge → preprocess → retain evidence → width check →
// monitor → execute → postprocess → record. Whatever a query can cause to
// fail fails that query alone, its charge standing and its evidence
// retained, and counts toward window health: a version that cannot serve
// must look unhealthy to a rollout gate. All admitted rows are observed
// before the shared compute, so DriftAlarm reflects the end of the burst.
// Caller holds d.mu.
func (d *Deployment) serveLocked(rows [][]float32, out []BatchOutcome, execute executeStep) {
	width := exec.Width(d.img.run.InputShape())
	adm := d.batchAdm[:0]
	d.batchFeats = d.batchFeats[:0]
	for qi, x := range rows {
		// Offline enforcement (§III-C): the prepaid meter gates before any
		// compute, and a denial costs the device nothing.
		d.tick++
		seq, err := d.Meter.ChargeSeq(d.tick)
		if err != nil {
			d.device.DenyQuery()
			d.winDenied++
			out[qi].Err = fmt.Errorf("%w: %v", ErrQueryDenied, err)
			continue
		}
		features := x
		if d.pre != nil {
			features, err = d.preprocessLocked(x)
		}
		// The charge stands however the rest fares, so it must stay
		// provable: a failed preprocess retains an empty row.
		d.retainLocked(seq, features)
		if width == 0 {
			// A compiled module declares no width: the first row fixes the
			// batch's, and the VM validates it.
			width = len(features)
		}
		if err == nil && len(features) != width {
			err = fmt.Errorf("core: query has %d features, model wants %d", len(features), width)
		}
		if err != nil {
			d.winFailed++
			out[qi].Err = err
			continue
		}
		if d.Monitor != nil {
			d.Monitor.Observe(features)
		}
		d.batchFeats = append(d.batchFeats, features...)
		adm = append(adm, admitted{idx: qi})
	}
	d.batchAdm = adm
	if len(adm) == 0 {
		return
	}

	logits, err := execute(d.inputView(len(adm), width), adm)
	cols := len(logits) / len(adm)
	drift := d.Monitor != nil && d.Monitor.Drifted()
	for bi, a := range adm {
		label, rowErr := 0, err
		if rowErr == nil {
			rowErr = a.err
		}
		if rowErr == nil {
			label, rowErr = d.postprocessLocked(logits[bi*cols : (bi+1)*cols])
		}
		if rowErr != nil {
			d.winFailed++
			out[a.idx].Err = rowErr
			continue
		}
		// Telemetry covers only queries the full pipeline served, in row
		// order (aggregates only; the input never leaves).
		d.winCount++
		d.winLatency.Add(float64(a.lat.Nanoseconds()) / 1e3) // fractional µs; MCU-class inferences can be sub-µs in the model
		d.winEnergyMJ += a.energyMJ
		features := d.batchFeats[bi*width : (bi+1)*width]
		if d.featStats == nil {
			d.featStats = make([]observe.Welford, width)
		}
		for i := range features[:min(width, len(d.featStats))] {
			d.featStats[i].Add(float64(features[i]))
		}
		out[a.idx].Result = InferenceResult{Label: label, Latency: a.lat, DriftAlarm: drift}
	}
}

// preprocessLocked runs the portable preprocessing module (§III-A / §IV)
// on one query. Caller holds d.mu.
func (d *Deployment) preprocessLocked(x []float32) ([]float32, error) {
	res, err := d.runtime.Run(d.pre, x)
	if err != nil {
		return nil, fmt.Errorf("core: preprocess: %w", err)
	}
	if !res.Output.IsVec {
		return nil, fmt.Errorf("core: preprocess must produce a vector")
	}
	return res.Output.Vec, nil
}

// postprocessLocked turns one query's logits into its label: the optional
// postprocessing module's scalar, otherwise the argmax. The VM copies its
// input, so the logits row is passed as is. Caller holds d.mu.
func (d *Deployment) postprocessLocked(logits []float32) (int, error) {
	if d.post == nil {
		return argMax(logits), nil
	}
	res, err := d.runtime.Run(d.post, logits)
	if err != nil {
		return 0, fmt.Errorf("core: postprocess: %w", err)
	}
	if res.Output.IsVec {
		return 0, fmt.Errorf("core: postprocess must reduce to a scalar label")
	}
	return int(res.Output.Scalar), nil
}

// argMax is the index of the first largest element.
func argMax(v []float32) int {
	best := 0
	for i := range v {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// executeLocal is the on-device execute step: each admitted row is charged
// to the device cost model at the bit width of the kernels that execute
// (native integer or float/emulated), then one batched forward pass serves
// every row the device could pay for.
func (d *Deployment) executeLocal(in *tensor.Tensor, adm []admitted) ([]float32, error) {
	macs := d.Version.Metrics.MACs
	energyMJ := d.device.Caps.InferenceEnergy(macs) * 1e3
	paid := 0
	for i := range adm {
		lat, err := d.device.RunInference(macs, d.img.run.Bits())
		if err != nil {
			adm[i].err = fmt.Errorf("core: device: %w", err)
			continue
		}
		adm[i].lat, adm[i].energyMJ = lat, energyMJ
		paid++
	}
	if paid == 0 {
		return nil, nil
	}
	ar := d.platform.arenas.Acquire()
	defer d.platform.arenas.Release(ar)
	logits, err := d.img.run.Run(in, 0, d.img.run.Steps(), ar)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// The result aliases the arena's slot for this executor, and the
	// executor is the fleet's: the next deployment to borrow this arena
	// overwrites it, so the logits leave before the arena goes back.
	d.batchLogits = append(d.batchLogits[:0], logits.Data...)
	return d.batchLogits, nil
}

// Infer runs one metered, monitored query through the deployed pipeline:
// the batch-of-one case of InferBatch.
func (d *Deployment) Infer(x []float32) (InferenceResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rows, out := [1][]float32{x}, [1]BatchOutcome{}
	d.serveLocked(rows[:], out[:], d.executeLocal)
	return out[0].Result, out[0].Err
}

// InferBatch runs a burst of queries through the deployed pipeline with a
// single batched forward pass over the rows that clear the metering gate.
// Metering, drift observation, device energy and telemetry are identical
// to calling Infer row by row and the labels bit-identical (batching
// preserves accumulation order); only DriftAlarm differs, reflecting the
// monitor at the end of the burst.
func (d *Deployment) InferBatch(rows [][]float32) []BatchOutcome {
	out := make([]BatchOutcome, len(rows))
	d.mu.Lock()
	defer d.mu.Unlock()
	d.serveLocked(rows, out, d.executeLocal)
	return out
}

// rollWindowLocked closes the current telemetry window into the buffer
// (telemetry sync, and the update path at every version boundary so
// post-update health never mixes with the old version's traffic). Caller
// holds d.mu.
func (d *Deployment) rollWindowLocked() {
	if d.winCount == 0 && d.winDenied == 0 && d.winFailed == 0 {
		return
	}
	rec := observe.Record{
		DeviceID:      d.DeviceID,
		Window:        d.window,
		Inferences:    d.winCount,
		Denied:        d.winDenied,
		MeanLatencyUS: float32(d.winLatency.Mean()),
		MaxLatencyUS:  float32(d.winLatency.Max()),
		EnergyMJ:      float32(d.winEnergyMJ),
	}
	if d.Monitor != nil {
		rec.DriftScore = float32(d.Monitor.MaxScore())
		rec.DriftAlarm = d.Monitor.Drifted()
	}
	for i := range d.featStats {
		rec.FeatureMeans = append(rec.FeatureMeans, float32(d.featStats[i].Mean()))
		rec.FeatureStds = append(rec.FeatureStds, float32(d.featStats[i].Std()))
	}
	d.Buffer.Add(rec)
	d.window++
	d.winCount, d.winDenied, d.winFailed = 0, 0, 0
	d.winLatency.Reset()
	d.winEnergyMJ = 0
	for i := range d.featStats {
		d.featStats[i].Reset()
	}
}

// Model exposes the deployed network for white-box operations (ownership
// verification in disputes). Unless the deployment is watermarked this is
// the platform's one decoded copy of the version, which every device on it
// and the cloud tier serve from concurrently: the caller must not mutate
// it, and must not call Forward, Predict or any training entry point on it
// either — those record per-layer inputs inside the network. Use
// ReferenceLogits for the deployment's answer, or Clone for anything else.
// Compiled (procvm) deployments have no network; they return nil — see
// CompiledModule.
func (d *Deployment) Model() *nn.Network {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.img.model
}

// CompiledModule returns the procvm module serving this deployment, nil
// for network-backed deployments.
func (d *Deployment) CompiledModule() *procvm.Module {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.img.compiled
}

// ReferenceLogits runs the deployment's serving executable on one input
// row without metering, telemetry or pipeline stages — the bit-exact
// reference a conformance check compares any other serving path (batched,
// offloaded, enclave-hosted) against. It is read-only on model state.
func (d *Deployment) ReferenceLogits(x []float32) []float32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	ar := d.platform.arenas.Acquire()
	defer d.platform.arenas.Release(ar)
	out, err := d.img.run.Run(tensor.FromSlice(x, 1, len(x)), 0, d.img.run.Steps(), ar)
	if err != nil {
		return nil
	}
	return append([]float32(nil), out.Data...)
}

// ExecutionScheme reports the weight precision of the kernels actually
// serving this deployment: the variant's integer scheme when the device
// executes the QModel natively, Float32 when the float engine serves it
// (float bases, and integer variants falling back to fake-quantized float
// on hardware without the bit width).
func (d *Deployment) ExecutionScheme() quant.Scheme {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.img.run.Scheme()
}

// Device returns the underlying simulated device.
func (d *Deployment) Device() *device.Device { return d.device }

// Watermarked reports whether a per-customer watermark was embedded into
// the deployed copy — such copies intentionally differ from the registry
// artifact, so a bit-exactness audit must skip them.
func (d *Deployment) Watermarked() bool { return d.watermark != "" }

// StateSnapshot returns the live version, model and watermark flag under
// the deployment lock — the auditor's consistent read. The model is shared
// exactly as Model describes, so two unwatermarked deployments on one
// (version, executor kind) return the same pointer; updates swap the
// pointer rather than editing in place, so the snapshot stays coherent even
// if an update lands after.
func (d *Deployment) StateSnapshot() (*registry.ModelVersion, *nn.Network, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.Version, d.img.model, d.watermark != ""
}

// disown gives the deployment's image references back when a fresh Deploy
// has replaced it on its device. A caller still holding the handle keeps
// serving, from private views of the same images: later releases and the
// delta path treat them like any private copy.
func (d *Deployment) disown() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, slot := range []**image{&d.img, &d.prev} {
		if img := *slot; img != nil {
			d.platform.images.release(img)
			*slot = &image{version: img.version, model: img.model, compiled: img.compiled, run: img.run}
		}
	}
}

// CurrentWindow returns the index of the open telemetry window. Every
// record this deployment has ever emitted carries a strictly smaller
// index — the monotonicity invariant the fleet auditor checks.
func (d *Deployment) CurrentWindow() uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.window
}
