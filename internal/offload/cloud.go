package offload

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tinymlops/internal/device"
	"tinymlops/internal/engine"
	"tinymlops/internal/exec"
)

// maxInFlight bounds the suffix requests the tier executes at once; Submit
// sheds with ErrShed beyond it.
const maxInFlight = 256

// ErrShed is returned by Submit when the tier is at its in-flight cap.
// Shedding is the cloud tier's overload valve: the device retries
// (shedAttempts tries in all) and, if the retries exhaust, finishes the
// query locally — the cloud being busy must never lose a
// query, only move its compute back to the edge.
var ErrShed = errors.New("offload: cloud tier at capacity")

// ErrClosed is returned by Submit after the tier has been closed.
var ErrClosed = errors.New("offload: cloud tier closed")

// ErrUnknownModel is returned for suffix requests naming an unregistered
// model version.
var ErrUnknownModel = errors.New("offload: unknown model version")

// CloudConfig is the tier's configuration; the tier has nothing to tune.
type CloudConfig struct{}

// Response is the cloud's answer to one suffix request.
type Response struct {
	// Payload is the output activation (usually the logits row), encoded
	// with the tensor codec like the request was.
	Payload []byte
	// Latency is the modeled cloud compute time for this query.
	Latency time.Duration
}

// CloudStats aggregates a tier's serving counters.
type CloudStats struct {
	Submitted int64
	Served    int64
	Shed      int64
	// Batches counts executor calls, failed ones included: one per
	// admitted request.
	Batches int64
	// MaxQueueDepth is the high-water mark of requests in flight.
	MaxQueueDepth int
}

// CloudTier is the cloud half of the offload plane: bounded admission in
// front of suffix execution. A device Submits its boundary activation and
// the registered executor resumes the model from it in the submitting
// goroutine, on an arena borrowed from the tier's pool — the suffix is a
// call, so its answer and the tier's counters depend on nothing but the
// requests.
type CloudTier struct {
	// caps models the cloud hardware: the wall-powered edge-server profile.
	caps   device.Capabilities
	arenas *engine.ArenaPool

	mu       sync.Mutex
	models   map[string]exec.Executor
	inFlight int
	closed   bool
	stats    CloudStats
}

// NewCloud returns a cloud tier, serving from the moment it is made.
func NewCloud(CloudConfig) *CloudTier {
	c := &CloudTier{arenas: engine.NewArenaPool(), models: make(map[string]exec.Executor)}
	for _, p := range device.StandardProfiles() {
		if p.Class == device.ClassEdgeServer {
			c.caps = p
		}
	}
	return c
}

// Caps returns the modeled cloud hardware profile.
func (c *CloudTier) Caps() device.Capabilities { return c.caps }

// Register makes a model version servable from its executor: a float
// network, an integer model resumed from quantized boundary codes, or
// either of them or a compiled module hosted in an enclave. The
// executor is shared, not copied. Repeated registration of the same version
// is a no-op.
func (c *CloudTier) Register(versionID string, ex exec.Executor) error {
	if versionID == "" || ex == nil {
		return fmt.Errorf("offload: register needs a version ID and an executor")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.models[versionID]; !ok {
		c.models[versionID] = ex
	}
	return nil
}

// Registered reports whether a model version is already servable —
// callers holding only a version ID can skip materializing the artifact.
func (c *CloudTier) Registered(versionID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.models[versionID]
	return ok
}

// Start does nothing: a tier serves from NewCloud on.
func (c *CloudTier) Start() {}

// Close stops admission; requests already admitted finish.
func (c *CloudTier) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}

// Stats returns a snapshot of the serving counters.
func (c *CloudTier) Stats() CloudStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Submit hands the cloud one boundary activation (encoded by the device's
// executor) for steps [cut, n) of the registered model version, runs the
// suffix and returns its encoded output. The tenant is not read.
func (c *CloudTier) Submit(tenant, versionID string, cut int, activation []byte) (Response, error) {
	c.mu.Lock()
	ex, ok := c.models[versionID]
	c.mu.Unlock()
	if !ok {
		return Response{}, fmt.Errorf("%w: %s", ErrUnknownModel, versionID)
	}
	// The registered executor owns the wire format: it decodes the payload
	// into the arena the suffix then runs in, and checks it and the cut
	// against its geometry, outside the tier lock.
	ar := c.arenas.Acquire()
	defer c.arenas.Release(ar)
	b, err := ex.DecodeBoundary(activation, cut, ar)
	if err != nil {
		return Response{}, fmt.Errorf("offload: %s@%d: %w", versionID, cut, err)
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Response{}, ErrClosed
	}
	if c.inFlight >= maxInFlight {
		c.stats.Shed++
		c.mu.Unlock()
		return Response{}, fmt.Errorf("%w (%d in flight)", ErrShed, maxInFlight)
	}
	c.inFlight++
	c.stats.Submitted++
	c.stats.MaxQueueDepth = max(c.stats.MaxQueueDepth, c.inFlight)
	c.mu.Unlock()

	resp, err := c.resume(ex, b, cut, ar)

	c.mu.Lock()
	c.inFlight--
	c.stats.Batches++
	if err == nil {
		c.stats.Served++
	}
	c.mu.Unlock()
	return resp, err
}

// resume runs the suffix for one boundary decoded into ar and encodes its
// output. An executor error (a module out of gas, say) fails the request:
// the device then finishes its own query locally.
func (c *CloudTier) resume(ex exec.Executor, b *exec.Boundary, cut int, ar *engine.Arena) (Response, error) {
	out, err := ex.Resume(b, cut, ar)
	if err != nil {
		return Response{}, fmt.Errorf("offload: suffix: %w", err)
	}
	var sufMACs int64
	for _, lc := range ex.Costs()[cut:] {
		sufMACs += lc.Info.MACs
	}
	// Protected execution pays the enclave's slowdown on cloud compute.
	lat := time.Duration(float64(c.caps.InferenceLatency(sufMACs, ex.Scheme().Bits())) * ex.Slowdown())
	// The reply owns its bytes, encoded straight into one allocation of
	// their size: out aliases the arena, which the next borrower reuses.
	return Response{Payload: out.AppendBinary(nil), Latency: lat}, nil
}
