package core

import (
	"sync"

	"tinymlops/internal/exec"
	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
)

// image is one installed model generation: the decoded artifact (a network,
// or a procvm module for a compiled version) and the executor lowered from
// it, immutable once built. Every unwatermarked deployment of a version
// holds the platform's one image of it in its live or rollback slot; a
// watermarked deployment holds a private one, because the marked copy is
// the device's own.
type image struct {
	version  *registry.ModelVersion
	key      string // the swarm key of the version's artifact, which a holder seeds
	model    *nn.Network
	compiled *procvm.Module
	run      exec.Executor

	// refs is the image table's, guarded by its mutex: it counts the
	// deployment slots holding a shared image, and stays 0 on a private one.
	refs int
}

// newExecutor builds the executor serving a version — the one place core
// decides which kernels run a variant, from the version alone. A compiled
// version runs on the VM under the device's capability grant, at the input
// width its version records, an integer variant on the integer kernels of
// its scheme and a float one on the float engine. One version is one
// function on every device: hardware without the bit width runs the same
// kernels, and the device cost model charges it the emulation penalty. The
// cloud enclave builds its executor over a protected deployment's sealed
// copy here too (Platform.hostSealed), so the grant holds in every world.
func newExecutor(v *registry.ModelVersion, model *nn.Network, compiled *procvm.Module) (exec.Executor, error) {
	switch {
	case compiled != nil:
		return exec.Module(compiled, procvm.CapSensor, exec.Width(v.InputShape), v.Metrics.MACs)
	case v.Scheme != quant.Float32:
		return exec.Quant(model, v.Scheme)
	default:
		return exec.Float(model)
	}
}

// imageTable is the platform's single-flight version → image lookup: a
// wave of a thousand devices moving to one version decodes and lowers it
// once. An entry lives exactly as long as some deployment's live or
// rollback slot references it, so residency follows what the fleet runs,
// not what the registry has published.
type imageTable struct {
	mu      sync.Mutex
	entries map[string]*image // by version ID
	misses  int               // images built into the table
}

// install returns the image a device runs v as, given decode for the
// artifact the device holds. A private install decodes and lowers for that
// device alone. Otherwise the device takes the table's image with one more
// reference; the first to need a version builds it with the mutex held, so
// concurrent installs of one version build it once, and a failed build
// inserts nothing and fails its caller alone. Variants exist per device
// class, not per device (§III-A), so a fleet of any size holds a handful.
func (t *imageTable) install(v *registry.ModelVersion, private bool, decode func() (*nn.Network, *procvm.Module, error)) (*image, error) {
	if !private {
		t.mu.Lock()
		defer t.mu.Unlock()
		if img, ok := t.entries[v.ID]; ok {
			img.refs++
			return img, nil
		}
	}
	model, compiled, err := decode()
	if err != nil {
		return nil, err
	}
	run, err := newExecutor(v, model, compiled)
	if err != nil {
		return nil, err
	}
	img := &image{version: v, key: registry.FullKey(v.ID), model: model, compiled: compiled, run: run}
	if !private {
		if t.entries == nil {
			t.entries = make(map[string]*image)
		}
		img.refs = 1
		t.entries[v.ID] = img
		t.misses++
	}
	return img, nil
}

// shares reports whether img is the table's own image of its version; it
// stays true while the asking deployment holds its reference.
func (t *imageTable) shares(img *image) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return img != nil && t.entries[img.version.ID] == img
}

// release drops one slot's reference, and the entry with its last one.
// Private images and nil are not the table's and pass through.
func (t *imageTable) release(img *image) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if img == nil || t.entries[img.version.ID] != img {
		return
	}
	if img.refs--; img.refs == 0 {
		delete(t.entries, img.version.ID)
	}
}
