package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/quant"
)

// Metrics summarizes a model version for deployment decisions.
type Metrics struct {
	// Accuracy on the registry's validation set, in [0,1].
	Accuracy float64
	// SizeBytes is the deployment footprint at the variant's precision
	// (quantized variants are stored as float32 artifacts for exactness
	// but ship at their packed size; this field is what transfer and
	// flash accounting use).
	SizeBytes int
	// MACs per inference.
	MACs int64
	// PeakActivationBytes approximates the working-set memory of one
	// inference: the largest adjacent input+output activation pair across
	// layers, at 4 bytes per float.
	PeakActivationBytes int64
}

// Artifact kinds a ModelVersion can carry. The zero value (KindNetwork)
// is a serialized nn.Network; KindProcVM is a compiled procvm module in
// its canonical PVM1 encoding — the portable obfuscated deployment format.
const (
	KindNetwork = ""
	KindProcVM  = "procvm"
)

// ModelVersion is one node of the lineage DAG.
type ModelVersion struct {
	// ID is the hex-truncated content digest of the artifact.
	ID string
	// Kind discriminates the artifact encoding: KindNetwork (default) or
	// KindProcVM. Selection policies must opt in to non-network kinds.
	Kind string
	// Name is the logical model line ("wakeword", "defect-detector").
	Name string
	// Seq is the registration sequence number within the registry
	// (a logical clock; the registry is deterministic and offline).
	Seq uint64
	// ParentID is empty for base models, otherwise the version this one
	// was derived from.
	ParentID string
	// Scheme is the weight precision of this variant.
	Scheme quant.Scheme
	// PruneFraction is the magnitude-pruning level applied (0 for dense).
	PruneFraction float64
	// OpKinds lists the operator types the model uses (for target
	// compatibility checks).
	OpKinds []string
	// Metrics summarizes quality and cost.
	Metrics Metrics
	// Tags carries free-form metadata (e.g. the watermark owner a variant
	// was fingerprinted for).
	Tags map[string]string
	// Digest is the full SHA-256 of the artifact bytes.
	Digest [32]byte
}

// Registry is an in-memory, concurrency-safe model store.
type Registry struct {
	mu       sync.RWMutex
	seq      uint64
	blobs    map[string][]byte        // model artifacts by version ID
	models   map[string]*ModelVersion // version ID -> metadata
	byName   map[string][]string      // logical name -> version IDs in order
	children map[string][]string      // parent ID -> child IDs

	// Weight-delta cache with single-flight computation: a rollout wave
	// asks for the same (from, to) pair from every worker at once, and the
	// encoding is O(params), so exactly one goroutine computes it while
	// the rest wait. Results (including deterministic failures like a
	// topology mismatch) are cached forever; artifacts are immutable.
	deltaMu   sync.Mutex
	deltas    map[string]deltaEntry // "from->to" -> result
	deltaWait map[string]chan struct{}
	// deltaComputes counts actual encodings (not cache hits) — the
	// observable the single-flight tests pin down.
	deltaComputes atomic.Int64
}

// deltaEntry is one cached Delta result.
type deltaEntry struct {
	data []byte
	err  error
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		blobs:     make(map[string][]byte),
		models:    make(map[string]*ModelVersion),
		byName:    make(map[string][]string),
		children:  make(map[string][]string),
		deltas:    make(map[string]deltaEntry),
		deltaWait: make(map[string]chan struct{}),
	}
}

// idFromDigest truncates a SHA-256 to the 16-hex-char version ID.
func idFromDigest(d [32]byte) string { return hex.EncodeToString(d[:8]) }

// RegisterModel stores net as a new base version of the named model line.
func (r *Registry) RegisterModel(name string, net *nn.Network, accuracy float64) (*ModelVersion, error) {
	return r.register(name, "", net, quant.Float32, 0, accuracy)
}

// RegisterVariant stores net as a variant derived from parentID.
func (r *Registry) RegisterVariant(parentID string, net *nn.Network, scheme quant.Scheme, pruneFraction float64, accuracy float64) (*ModelVersion, error) {
	r.mu.RLock()
	_, ok := r.models[parentID]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("registry: unknown parent version %q", parentID)
	}
	parent := r.mustGet(parentID)
	return r.register(parent.Name, parentID, net, scheme, pruneFraction, accuracy)
}

func (r *Registry) mustGet(id string) *ModelVersion {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.models[id]
}

func (r *Registry) register(name, parentID string, net *nn.Network, scheme quant.Scheme, prune float64, accuracy float64) (*ModelVersion, error) {
	if name == "" {
		return nil, fmt.Errorf("registry: model name must not be empty")
	}
	data, err := net.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("registry: serialize: %w", err)
	}
	summary, _ := net.Summary() // the kept plan; it cannot fail
	var macs int64
	prevFloats := int64(1)
	for _, d := range net.InputShape {
		prevFloats *= int64(d)
	}
	var peakActBytes int64
	for _, lc := range summary {
		macs += lc.Info.MACs
		if pair := 4 * (prevFloats + lc.Info.ActivationFloats); pair > peakActBytes {
			peakActBytes = pair
		}
		prevFloats = lc.Info.ActivationFloats
	}
	digest := sha256.Sum256(data)
	id := idFromDigest(digest)

	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.models[id]; ok {
		// Content-addressed: identical bytes are the same version.
		return existing, nil
	}
	r.seq++
	v := &ModelVersion{
		ID: id, Name: name, Seq: r.seq, ParentID: parentID,
		Scheme: scheme, PruneFraction: prune,
		OpKinds: net.OpKinds(),
		Metrics: Metrics{
			Accuracy:            accuracy,
			SizeBytes:           quant.NetworkSizeBytes(net, scheme),
			MACs:                macs,
			PeakActivationBytes: peakActBytes,
		},
		Tags:   make(map[string]string),
		Digest: digest,
	}
	r.blobs[id] = data
	r.models[id] = v
	r.byName[name] = append(r.byName[name], id)
	if parentID != "" {
		r.children[parentID] = append(r.children[parentID], id)
	}
	return v, nil
}

// Get returns the metadata of a version.
func (r *Registry) Get(id string) (*ModelVersion, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.models[id]
	if !ok {
		return nil, fmt.Errorf("registry: unknown version %q", id)
	}
	return v, nil
}

// ErrArtifactMissing reports that a version's artifact bytes are not in
// the store — the version is unknown, or its blob was evicted while the
// metadata survives. Callers that can recover (a delta encoder falling
// back to a full transfer) classify on this instead of failing silently.
var ErrArtifactMissing = fmt.Errorf("registry: artifact missing")

// Load deserializes the network stored under a version ID, verifying the
// artifact digest first (integrity check on the registry's own storage).
// Compiled-module versions reject: their bytes are not a network, and a
// caller expecting one must follow ParentID to the float artifact instead.
func (r *Registry) Load(id string) (*nn.Network, error) {
	r.mu.RLock()
	data, ok := r.blobs[id]
	v := r.models[id]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: version %q", ErrArtifactMissing, id)
	}
	if v.Kind == KindProcVM {
		return nil, fmt.Errorf("registry: version %q is a compiled module, not a network", id)
	}
	if sha256.Sum256(data) != v.Digest {
		return nil, fmt.Errorf("registry: artifact %q failed integrity check", id)
	}
	return nn.UnmarshalNetwork(data)
}

// RegisterCompiled stores a compiled procvm module as a first-class
// variant of the float version it was lowered from: the canonical PVM1
// encoding is the digest-pinned artifact, cost metrics carry over from the
// parent (the module executes the same arithmetic), and the variant is
// selectable only by policies that opt in to registry.KindProcVM.
func (r *Registry) RegisterCompiled(parentID string, m *procvm.Module, accuracy float64) (*ModelVersion, error) {
	parent := r.mustGet(parentID)
	if parent == nil {
		return nil, fmt.Errorf("registry: unknown parent version %q", parentID)
	}
	if parent.Kind != KindNetwork {
		return nil, fmt.Errorf("registry: compiled parent %q must be a network artifact", parentID)
	}
	if err := procvm.Validate(m); err != nil {
		return nil, fmt.Errorf("registry: compiled module: %w", err)
	}
	data := m.Encode()
	digest := sha256.Sum256(data)
	id := idFromDigest(digest)

	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.models[id]; ok {
		return existing, nil
	}
	r.seq++
	v := &ModelVersion{
		ID: id, Kind: KindProcVM, Name: parent.Name, Seq: r.seq, ParentID: parentID,
		Scheme: quant.Float32,
		Metrics: Metrics{
			Accuracy:            accuracy,
			SizeBytes:           len(data),
			MACs:                parent.Metrics.MACs,
			PeakActivationBytes: parent.Metrics.PeakActivationBytes,
		},
		Tags:   make(map[string]string),
		Digest: digest,
	}
	r.blobs[id] = data
	r.models[id] = v
	r.byName[v.Name] = append(r.byName[v.Name], id)
	r.children[parentID] = append(r.children[parentID], id)
	return v, nil
}

// Bytes returns the raw artifact (for transfer-size accounting and
// encryption). The returned slice must not be modified.
func (r *Registry) Bytes(id string) ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	data, ok := r.blobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: version %q", ErrArtifactMissing, id)
	}
	return data, nil
}

// Evict drops a version's stored artifact bytes while keeping its
// metadata — vendor-side blob pruning of superseded images. Devices still
// running the version keep working (audits compare against the retained
// digest), but transfers that need the bytes — full ships of it, deltas
// *from* it — fail with ErrArtifactMissing from then on. Already-cached
// deltas survive: they are derived artifacts in their own right.
func (r *Registry) Evict(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[id]; !ok {
		return fmt.Errorf("registry: unknown version %q", id)
	}
	delete(r.blobs, id)
	return nil
}

// Delta returns the encoded weight delta that upgrades fromID's artifact
// to toID's, computing and caching it on first use (single-flight: a
// fleet-wide fan-out asking for the same pair computes it once). It fails
// when the two versions do not share a topology — the caller falls back
// to a full transfer. The returned slice must not be modified.
func (r *Registry) Delta(fromID, toID string) ([]byte, error) {
	key := fromID + "->" + toID
	for {
		r.deltaMu.Lock()
		if e, ok := r.deltas[key]; ok {
			r.deltaMu.Unlock()
			return e.data, e.err
		}
		if ch, ok := r.deltaWait[key]; ok {
			r.deltaMu.Unlock()
			<-ch // another goroutine is computing this pair
			continue
		}
		ch := make(chan struct{})
		r.deltaWait[key] = ch
		r.deltaMu.Unlock()

		e := r.computeDelta(key, fromID, toID)
		r.deltaMu.Lock()
		r.deltas[key] = e
		delete(r.deltaWait, key)
		r.deltaMu.Unlock()
		close(ch)
		return e.data, e.err
	}
}

func (r *Registry) computeDelta(key, fromID, toID string) deltaEntry {
	r.deltaComputes.Add(1)
	from, err := r.Load(fromID)
	if err != nil {
		return deltaEntry{err: err}
	}
	to, err := r.Load(toID)
	if err != nil {
		return deltaEntry{err: err}
	}
	d, err := nn.EncodeDelta(from, to)
	if err != nil {
		return deltaEntry{err: fmt.Errorf("registry: delta %s: %w", key, err)}
	}
	return deltaEntry{data: d}
}

// Versions returns all versions of a model line in registration order.
func (r *Registry) Versions(name string) []*ModelVersion {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := r.byName[name]
	out := make([]*ModelVersion, 0, len(ids))
	for _, id := range ids {
		out = append(out, r.models[id])
	}
	return out
}

// Latest returns the most recently registered *base* version of the line.
func (r *Registry) Latest(name string) (*ModelVersion, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := r.byName[name]
	for i := len(ids) - 1; i >= 0; i-- {
		v := r.models[ids[i]]
		if v.ParentID == "" {
			return v, nil
		}
	}
	return nil, fmt.Errorf("registry: no base version of %q", name)
}

// Variants returns the direct children of a version, ordered by sequence.
func (r *Registry) Variants(parentID string) []*ModelVersion {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ids := r.children[parentID]
	out := make([]*ModelVersion, 0, len(ids))
	for _, id := range ids {
		out = append(out, r.models[id])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// SetTag attaches free-form metadata to a version.
func (r *Registry) SetTag(id, key, value string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.models[id]
	if !ok {
		return fmt.Errorf("registry: unknown version %q", id)
	}
	v.Tags[key] = value
	return nil
}

// Stats reports registry contents.
type Stats struct {
	Models    int
	Bases     int
	Variants  int
	BlobBytes int
}

// Stats returns aggregate counts.
func (r *Registry) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Stats{Models: len(r.models)}
	for _, v := range r.models {
		if v.ParentID == "" {
			s.Bases++
		} else {
			s.Variants++
		}
	}
	for _, b := range r.blobs {
		s.BlobBytes += len(b)
	}
	return s
}
