package offload

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"tinymlops/internal/device"
	"tinymlops/internal/engine"
	"tinymlops/internal/exec"
	"tinymlops/internal/tensor"
)

// ErrShed is returned by Submit when the bounded admission queue is full.
// Shedding is the cloud tier's overload valve: the device retries
// (shedAttempts tries in all) and, if the retries exhaust, finishes the
// query locally — the cloud being busy must never lose a
// query, only move its compute back to the edge.
var ErrShed = errors.New("offload: admission queue full")

// ErrClosed is returned by Submit after the tier has been closed.
var ErrClosed = errors.New("offload: cloud tier closed")

// ErrUnknownModel is returned for suffix requests naming an unregistered
// model version.
var ErrUnknownModel = errors.New("offload: unknown model version")

// CloudConfig sizes a CloudTier.
type CloudConfig struct {
	// MaxBatch bounds how many queued suffix requests one dispatch
	// coalesces into a single executor call (default 16). Coalescing is
	// opportunistic: a dispatcher drains whatever is queued up to this
	// limit, it never waits for a batch to fill.
	MaxBatch int
	// QueueCap bounds admitted-but-unserved requests across all tenants;
	// Submit sheds with ErrShed beyond it (default 256).
	QueueCap int
	// Dispatchers is the number of serving goroutines (default 2). Each
	// drains and executes one batch at a time on its own arena; executors
	// perform no model writes, so dispatchers share them safely.
	Dispatchers int
}

// Response is the cloud's answer to one suffix request.
type Response struct {
	// Payload is the output activation (usually the logits row), encoded
	// with the tensor codec like the request was.
	Payload []byte
	// Latency is the modeled cloud compute time for this query.
	Latency time.Duration
	// BatchSize is how many requests the serving batch coalesced —
	// observability for the batching efficiency the tier exists for.
	BatchSize int
}

// CloudStats aggregates a tier's serving counters.
type CloudStats struct {
	Submitted int64
	Served    int64
	Shed      int64
	Batches   int64
	// MaxQueueDepth is the high-water mark of admitted requests.
	MaxQueueDepth int
	// MaxBatchSize is the largest coalesced batch dispatched.
	MaxBatchSize int
}

// request is one admitted suffix query waiting for service: the boundary
// its executor decoded at admission.
type request struct {
	boundary exec.Boundary
	reply    chan result
}

// result is what a dispatcher delivers back to a waiting Submit.
type result struct {
	resp Response
	err  error
}

// classKey identifies a batchable request class: only requests for the
// same model version at the same cut share activation shapes and suffix
// weights, so only they can ride one batch.
type classKey struct {
	version string
	cut     int
}

// class is the per-(version, cut) queue state: the executor resuming at
// the cut, per-tenant FIFOs and the round-robin cursor that makes draining
// fair — a tenant flooding the queue gets at most one slot per turn while
// other tenants have work.
type class struct {
	key     classKey
	ex      exec.Executor
	sufMACs int64

	tenants map[string][]*request
	order   []string // tenants with pending work, in arrival order
	next    int      // round-robin cursor into order
	pending int
}

// CloudTier is the cloud half of the offload plane: a bounded, batched
// admission queue in front of suffix execution. Devices Submit boundary
// activations; dispatcher goroutines coalesce concurrent requests of the
// same (model, cut) class into single executor Resume calls with
// per-tenant fair scheduling. Because batched execution is bit-identical
// to per-sample execution, the answer a device gets does not depend on
// which batch its request rode in — batching changes throughput, never
// results.
type CloudTier struct {
	cfg CloudConfig
	// caps models the cloud hardware: the wall-powered edge-server profile.
	caps device.Capabilities

	mu         sync.Mutex
	cond       *sync.Cond
	models     map[string]exec.Executor
	classes    map[classKey]*class
	classOrder []classKey
	nextClass  int
	queued     int
	started    bool
	closed     bool
	stats      CloudStats
	wg         sync.WaitGroup
}

// NewCloud returns a cloud tier over the configuration. Call Start to
// begin serving; Submit before Start queues (and may shed) but is not
// served until dispatchers run.
func NewCloud(cfg CloudConfig) *CloudTier {
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 16
	}
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 256
	}
	if cfg.Dispatchers < 1 {
		cfg.Dispatchers = 2
	}
	c := &CloudTier{
		cfg:     cfg,
		models:  make(map[string]exec.Executor),
		classes: make(map[classKey]*class),
	}
	for _, p := range device.StandardProfiles() {
		if p.Class == device.ClassEdgeServer {
			c.caps = p
		}
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Caps returns the modeled cloud hardware profile.
func (c *CloudTier) Caps() device.Capabilities { return c.caps }

// Register makes a model version servable from its executor: a float
// network, an integer-native model resumed from quantized boundary codes,
// or either of them or a compiled module hosted in an enclave. The
// executor is shared, not copied. It must declare its input shape — the
// tier validates every boundary before it queues. Repeated registration
// of the same version is a no-op.
func (c *CloudTier) Register(versionID string, ex exec.Executor) error {
	if versionID == "" || ex == nil {
		return fmt.Errorf("offload: register needs a version ID and an executor")
	}
	if ex.InputShape() == nil {
		return fmt.Errorf("offload: register %s: executor declares no input shape", versionID)
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

// Start launches the dispatcher goroutines. Idempotent.
func (c *CloudTier) Start() {
	c.mu.Lock()
	if c.started || c.closed {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.mu.Unlock()
	for i := 0; i < c.cfg.Dispatchers; i++ {
		c.wg.Add(1)
		go c.dispatch()
	}
}

// Close stops admission, drains queued requests (failing them with
// ErrClosed if the tier never started) and waits for dispatchers to exit.
func (c *CloudTier) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	if !c.started {
		// No dispatcher will ever drain; fail the queued requests here.
		for _, cl := range c.classes {
			for _, q := range cl.tenants {
				for _, r := range q {
					r.reply <- result{err: ErrClosed}
				}
			}
			cl.tenants = make(map[string][]*request)
			cl.order, cl.pending = nil, 0
		}
		c.queued = 0
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
}

// Stats returns a snapshot of the serving counters.
func (c *CloudTier) Stats() CloudStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Submit hands the cloud one boundary activation (encoded by the device's
// executor) for steps [cut, n) of the registered model version and blocks
// until the suffix result returns or admission fails. tenant scopes fair
// scheduling — use a stable per-device identity.
func (c *CloudTier) Submit(tenant, versionID string, cut int, activation []byte) (Response, error) {
	c.mu.Lock()
	ex, ok := c.models[versionID]
	c.mu.Unlock()
	if !ok {
		return Response{}, fmt.Errorf("%w: %s", ErrUnknownModel, versionID)
	}
	// The registered executor owns the wire format: it decodes the payload
	// and checks it and the cut against its geometry, outside the tier lock.
	b, err := ex.DecodeBoundary(activation, cut)
	if err != nil {
		return Response{}, fmt.Errorf("offload: %s@%d: %w", versionID, cut, err)
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Response{}, ErrClosed
	}
	if c.queued >= c.cfg.QueueCap {
		c.stats.Shed++
		c.mu.Unlock()
		return Response{}, fmt.Errorf("%w (%d queued)", ErrShed, c.cfg.QueueCap)
	}
	key := classKey{version: versionID, cut: cut}
	cl, ok := c.classes[key]
	if !ok {
		cl = &class{key: key, ex: ex, tenants: make(map[string][]*request)}
		for _, lc := range ex.Costs()[cut:] {
			cl.sufMACs += lc.Info.MACs
		}
		c.classes[key] = cl
		c.classOrder = append(c.classOrder, key)
	}
	req := &request{boundary: b, reply: make(chan result, 1)}
	if _, ok := cl.tenants[tenant]; !ok {
		cl.order = append(cl.order, tenant)
	}
	cl.tenants[tenant] = append(cl.tenants[tenant], req)
	cl.pending++
	c.queued++
	c.stats.Submitted++
	if c.queued > c.stats.MaxQueueDepth {
		c.stats.MaxQueueDepth = c.queued
	}
	c.cond.Signal()
	c.mu.Unlock()

	r := <-req.reply
	return r.resp, r.err
}

// dispatch is one serving goroutine: wait for work, drain a fair batch,
// execute it on the goroutine's own arena, repeat until closed and drained.
func (c *CloudTier) dispatch() {
	defer c.wg.Done()
	ar := engine.NewArena()
	for {
		c.mu.Lock()
		for c.queued == 0 && !c.closed {
			c.cond.Wait()
		}
		if c.queued == 0 && c.closed {
			c.mu.Unlock()
			return
		}
		cl, reqs := c.drainLocked()
		c.mu.Unlock()
		if len(reqs) > 0 {
			c.execBatch(cl, reqs, ar)
		}
	}
}

// drainLocked picks the next class with pending work (round-robin across
// classes) and drains up to MaxBatch requests from it, one per tenant per
// turn. Caller holds c.mu.
func (c *CloudTier) drainLocked() (*class, []*request) {
	var cl *class
	for range c.classOrder {
		key := c.classOrder[c.nextClass%len(c.classOrder)]
		c.nextClass = (c.nextClass + 1) % len(c.classOrder)
		if cand := c.classes[key]; cand.pending > 0 {
			cl = cand
			break
		}
	}
	if cl == nil {
		return nil, nil
	}
	take := cl.pending
	if take > c.cfg.MaxBatch {
		take = c.cfg.MaxBatch
	}
	reqs := make([]*request, 0, take)
	for len(reqs) < take {
		tenant := cl.order[cl.next]
		q := cl.tenants[tenant]
		reqs = append(reqs, q[0])
		q = q[1:]
		if len(q) == 0 {
			delete(cl.tenants, tenant)
			cl.order = append(cl.order[:cl.next], cl.order[cl.next+1:]...)
			if len(cl.order) == 0 {
				cl.next = 0
			} else {
				cl.next %= len(cl.order)
			}
		} else {
			cl.tenants[tenant] = q
			cl.next = (cl.next + 1) % len(cl.order)
		}
		cl.pending--
	}
	c.queued -= len(reqs)
	return cl, reqs
}

// execBatch runs one coalesced suffix batch and replies to every request.
// An executor error (a module out of gas, say) fails the whole batch: each
// device then finishes its own query locally.
func (c *CloudTier) execBatch(cl *class, reqs []*request, ar *engine.Arena) {
	rows := len(reqs)
	bs := make([]exec.Boundary, rows)
	for i, r := range reqs {
		bs[i] = r.boundary
	}
	out, err := cl.ex.Resume(bs, cl.key.cut, ar)
	// Protected execution pays the enclave's slowdown on cloud compute.
	perQuery := time.Duration(float64(c.caps.InferenceLatency(cl.sufMACs, cl.ex.Bits())) * cl.ex.Slowdown())
	// Stats commit BEFORE any reply is delivered: a caller unblocked by
	// its reply must observe its own request in Stats() — the chaos
	// scenario's CloudServed == Split invariant depends on it.
	c.mu.Lock()
	c.stats.Batches++
	if err == nil {
		c.stats.Served += int64(rows)
	}
	if rows > c.stats.MaxBatchSize {
		c.stats.MaxBatchSize = rows
	}
	c.mu.Unlock()
	if err != nil {
		for _, r := range reqs {
			r.reply <- result{err: fmt.Errorf("offload: suffix: %w", err)}
		}
		return
	}
	// One header walks the output rows; each reply owns its encoded bytes.
	outLen := out.Size() / rows
	row := tensor.FromSlice(out.Data[:outLen], append([]int{1}, out.Shape()[1:]...)...)
	for i, r := range reqs {
		row.Data = out.Data[i*outLen : (i+1)*outLen]
		var buf bytes.Buffer
		if _, err := row.WriteTo(&buf); err != nil {
			r.reply <- result{err: fmt.Errorf("offload: encode result: %w", err)}
			continue
		}
		r.reply <- result{resp: Response{Payload: buf.Bytes(), Latency: perQuery, BatchSize: rows}}
	}
}
