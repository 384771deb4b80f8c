package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
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
	// ParentID is empty for base models, otherwise the version this one
	// was derived from.
	ParentID string
	// Scheme is the weight precision of this variant.
	Scheme quant.Scheme
	// OpKinds lists the operator types the model uses (for target
	// compatibility checks).
	OpKinds []string
	// InputShape is the per-example input shape. A compiled version has
	// its parent's: bytecode does not declare its own geometry.
	InputShape []int
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
	blobs    map[string][]byte          // model artifacts by version ID
	nets     map[string]*nn.Network     // network artifacts decoded, by version ID; never handed out
	models   map[string]*ModelVersion   // version ID -> metadata
	byName   map[string][]string        // logical name -> version IDs in order
	children map[string][]*ModelVersion // parent ID -> children, in registration order

	// Version moves, single-flight: a rollout wave asks for the same
	// (from, to) move from every worker at once, and the encoding is
	// O(params), so exactly one goroutine plans it while the rest wait.
	// Plans (including deterministic failures like a topology mismatch) are
	// cached forever; artifacts are immutable.
	moveMu sync.Mutex
	moves  map[versionPair]*Move
	// deltaComputes counts actual encodings (not cache hits) — the
	// observable the single-flight tests pin down.
	deltaComputes atomic.Int64
}

// versionPair keys the move cache: a lookup builds no string.
type versionPair struct{ from, to string }

// Move is how one version move ships, the same for every device that makes
// it, worked out once by the registry. Its fields are final once Plan
// returns it.
type Move struct {
	// Key names the move's delta artifact, "delta:<from>><to>": the swarm
	// key and the install token, which names the exact patch (source and
	// target bytes).
	Key string
	// Delta is the encoded weight delta, nil when the versions share no
	// topology, and Cost its modelled cost at the target's bit width.
	Delta []byte
	Cost  nn.DeltaCost
	// AsDelta reports whether the move ships as its delta: Cost.ShipBytes
	// beats the target's packed size. A full retrain degrades to a dense
	// delta whose index overhead can exceed what it patches, and then the
	// move ships the full image.
	AsDelta bool

	err  error
	done chan struct{}
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		blobs:    make(map[string][]byte),
		nets:     make(map[string]*nn.Network),
		models:   make(map[string]*ModelVersion),
		byName:   make(map[string][]string),
		children: make(map[string][]*ModelVersion),
		moves:    make(map[versionPair]*Move),
	}
}

// idFromDigest truncates a SHA-256 to the 16-hex-char version ID.
func idFromDigest(d [32]byte) string { return hex.EncodeToString(d[:8]) }

// RegisterModel stores net as a new base version of the named model line.
func (r *Registry) RegisterModel(name string, net *nn.Network, accuracy float64) (*ModelVersion, error) {
	return r.register(name, "", net, quant.Float32, accuracy)
}

// RegisterVariant stores net as a variant derived from parentID.
func (r *Registry) RegisterVariant(parentID string, net *nn.Network, scheme quant.Scheme, accuracy float64) (*ModelVersion, error) {
	parent := r.mustGet(parentID)
	if parent == nil {
		return nil, fmt.Errorf("registry: unknown parent version %q", parentID)
	}
	return r.register(parent.Name, parentID, net, scheme, accuracy)
}

func (r *Registry) mustGet(id string) *ModelVersion {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.models[id]
}

func (r *Registry) register(name, parentID string, net *nn.Network, scheme quant.Scheme, accuracy float64) (*ModelVersion, error) {
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
	// The registry keeps its own copy: a caller may go on training net.
	return r.insert(data, net.Clone(), &ModelVersion{
		Name: name, ParentID: parentID, Scheme: scheme,
		OpKinds: net.OpKinds(), InputShape: slices.Clone(net.InputShape),
		Metrics: Metrics{
			Accuracy:            accuracy,
			SizeBytes:           quant.NetworkSizeBytes(net, scheme),
			MACs:                macs,
			PeakActivationBytes: peakActBytes,
		},
	}), nil
}

// insert stores an artifact, with the network it encodes (nil for a
// compiled module), under its content address and returns its version: v,
// numbered and indexed, or the version already holding these bytes —
// identical bytes are the same version.
func (r *Registry) insert(data []byte, net *nn.Network, v *ModelVersion) *ModelVersion {
	v.Digest = sha256.Sum256(data)
	v.ID = idFromDigest(v.Digest)
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.models[v.ID]; ok {
		return existing
	}
	v.Tags = make(map[string]string)
	r.blobs[v.ID] = data
	r.nets[v.ID] = net
	r.models[v.ID] = v
	r.byName[v.Name] = append(r.byName[v.Name], v.ID)
	if v.ParentID != "" {
		r.children[v.ParentID] = append(r.children[v.ParentID], v)
	}
	return v
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

// ErrArtifactMissing reports that the store holds no artifact bytes under
// a version ID: the version is unknown.
var ErrArtifactMissing = fmt.Errorf("registry: artifact missing")

// Load returns the network stored under a version ID, as a copy the caller
// owns. It verifies the artifact digest first (an integrity check on the
// registry's own storage), then clones the network the registry kept when
// the version was registered, which the stored bytes encode; nothing is
// decoded. Compiled-module versions reject: their bytes are not a network,
// and a caller expecting one must follow ParentID to the float artifact
// instead.
func (r *Registry) Load(id string) (*nn.Network, error) {
	r.mu.RLock()
	data, ok := r.blobs[id]
	v, net := r.models[id], r.nets[id]
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
	return net.Clone(), nil
}

// RegisterCompiled stores a compiled procvm module as a first-class
// variant of the float version it was lowered from: the canonical PVM1
// encoding is the digest-pinned artifact, cost metrics and the input shape
// carry over from the parent (the module executes the same arithmetic), and
// the variant is selectable only by policies that opt in to
// registry.KindProcVM.
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
	return r.insert(data, nil, &ModelVersion{
		Kind: KindProcVM, Name: parent.Name, ParentID: parentID,
		Scheme: quant.Float32, InputShape: parent.InputShape,
		Metrics: Metrics{
			Accuracy:            accuracy,
			SizeBytes:           len(data),
			MACs:                parent.Metrics.MACs,
			PeakActivationBytes: parent.Metrics.PeakActivationBytes,
		},
	}), nil
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

// FullKey names a version's stored artifact, "full:<id>": the swarm key and
// the install token of a full ship.
func FullKey(id string) string { return "full:" + id }

// Artifact resolves an artifact name to the registry's canonical bytes:
// FullKey's is the stored artifact, a Move's Key its delta. These are the
// exact bytes every holder of the name seeds, which is what
// content-addressed chunks require. The returned slice must not be
// modified.
func (r *Registry) Artifact(key string) ([]byte, error) {
	if id, ok := strings.CutPrefix(key, "full:"); ok {
		return r.Bytes(id)
	}
	spec, ok := strings.CutPrefix(key, "delta:")
	if !ok {
		return nil, fmt.Errorf("registry: unknown artifact key %q", key)
	}
	if from, to, ok := strings.Cut(spec, ">"); ok && from != "" && to != "" {
		return r.Delta(from, to)
	}
	return nil, fmt.Errorf("registry: malformed delta key %q", key)
}

// Delta returns the encoded weight delta that upgrades fromID's artifact
// to toID's, from the move's plan. It fails when the two versions do not
// share a topology — the caller falls back to a full transfer. The
// returned slice must not be modified.
func (r *Registry) Delta(fromID, toID string) ([]byte, error) {
	m := r.Plan(fromID, toID)
	return m.Delta, m.err
}

// Plan returns how the move from fromID to toID ships, working it out on
// first use (single-flight: a fleet-wide fan-out making the same move
// plans it once).
func (r *Registry) Plan(fromID, toID string) *Move {
	key := versionPair{fromID, toID}
	r.moveMu.Lock()
	m, cached := r.moves[key]
	if !cached {
		m = &Move{done: make(chan struct{})}
		r.moves[key] = m
	}
	r.moveMu.Unlock()
	if cached {
		<-m.done // the first asker may still be planning it
		return m
	}
	m.Key = "delta:" + fromID + ">" + toID
	m.Delta, m.Cost, m.err = r.computeDelta(fromID, toID)
	m.AsDelta = m.err == nil && m.Cost.ShipBytes < r.mustGet(toID).Metrics.SizeBytes
	close(m.done)
	return m
}

// computeDelta encodes the move between the two kept networks, which
// EncodeDelta only reads: an artifact is immutable once stored, so a move
// neither re-hashes nor decodes it.
func (r *Registry) computeDelta(fromID, toID string) ([]byte, nn.DeltaCost, error) {
	r.deltaComputes.Add(1)
	r.mu.RLock()
	from, to := r.nets[fromID], r.nets[toID]
	r.mu.RUnlock()
	if from == nil || to == nil {
		return nil, nn.DeltaCost{}, fmt.Errorf("registry: delta %s->%s: both versions must be stored networks", fromID, toID)
	}
	d, err := nn.EncodeDelta(from, to)
	var cost nn.DeltaCost
	if err == nil {
		cost, err = nn.CostOfDelta(d, r.mustGet(toID).Scheme.Bits())
	}
	if err != nil {
		return nil, nn.DeltaCost{}, fmt.Errorf("registry: delta %s->%s: %w", fromID, toID, err)
	}
	return d, cost, nil
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

// Variants returns the direct children of a version in registration order:
// a child is appended under the lock that stores it. The returned slice
// must not be modified.
func (r *Registry) Variants(parentID string) []*ModelVersion {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Clip(r.children[parentID])
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
	// BlobBytes sums the stored artifacts.
	BlobBytes int
}

// Stats returns aggregate counts.
func (r *Registry) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var s Stats
	for _, b := range r.blobs {
		s.BlobBytes += len(b)
	}
	return s
}
