package core

import (
	"sync"

	"tinymlops/internal/device"
	"tinymlops/internal/enclave"
	"tinymlops/internal/exec"
	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
)

// image is one installed model generation: the decoded artifact (a network,
// or a procvm module for a compiled version) and the executor lowered from
// it, immutable once built. Every unwatermarked deployment of a (version,
// executor kind) holds the platform's one image of it in its live or
// rollback slot; a watermarked deployment holds a private one, because the
// marked copy is the device's own.
type image struct {
	version  *registry.ModelVersion
	model    *nn.Network
	compiled *procvm.Module
	run      exec.Executor

	// key and refs are the image table's, guarded by its mutex: refs counts
	// the deployment slots holding a shared image, and stays 0 on a private
	// one.
	key  imageKey
	refs int
}

// imageKey names a shared image: a version lowered for one executor kind.
// Variants exist per device class, not per device (§III-A), so a fleet of
// any size holds a handful of keys.
type imageKey struct {
	versionID string
	// native selects the integer kernels at the version's scheme; false is
	// the float engine, or the VM for a compiled version.
	native bool
}

// newExecutor builds the executor serving an image — the one place core
// decides which kernels run a variant. A compiled image runs on the VM
// under the device's capability grant. native lowers the network onto the
// integer kernels of the version's scheme (§III-A: low precision buys
// nothing without them). Everything else — float bases, devices without
// the bit width, models the integer runtime cannot lower — runs the float
// engine over the artifact's (fake-quantized) weights, charged at the
// variant's bit width so unsupported widths pay the emulation penalty.
func newExecutor(v *registry.ModelVersion, native bool, model *nn.Network, compiled *procvm.Module) (exec.Executor, error) {
	if compiled != nil {
		return exec.Module(compiled, procvm.CapSensor, 0, v.Metrics.MACs), nil
	}
	if native {
		if ex, err := exec.Quant(model, v.Scheme); err == nil {
			return ex, nil
		}
	}
	return exec.Float(model, v.Scheme.Bits())
}

// hostedExecutor is the executor over an artifact sealed into an enclave
// session under artID: the protected world's own decoded copy runs, granted
// what a module asks for, at the enclave's slowdown. features is a compiled
// module's input width, which it does not declare itself.
func hostedExecutor(sess *enclave.Session, artID string, v *registry.ModelVersion, features int) (exec.Executor, error) {
	if v.Kind == registry.KindProcVM {
		mod, err := sess.Module(artID)
		if err != nil {
			return nil, err
		}
		return exec.Hosted(exec.Module(mod, mod.Caps, features, v.Metrics.MACs), sess.Enclave().Slowdown), nil
	}
	inside, err := sess.Network(artID)
	if err != nil {
		return nil, err
	}
	ex, err := exec.Float(inside, v.Scheme.Bits())
	if err != nil {
		return nil, err
	}
	return exec.Hosted(ex, sess.Enclave().Slowdown), nil
}

// imageTable is the platform's single-flight (version, executor kind) →
// image lookup: a wave of a thousand devices moving to one version decodes
// and lowers it once. An entry lives exactly as long as some deployment's
// live or rollback slot references it, so residency follows what the fleet
// runs, not what the registry has published.
type imageTable struct {
	mu      sync.Mutex
	entries map[imageKey]*image
	misses  int // images built into the table
}

// install returns the image dev runs v as, given decode for the artifact
// the device holds. A private install decodes and lowers for this device
// alone. Otherwise the device takes the table's image with one more
// reference; the first to need a key builds it with the mutex held, so
// concurrent installs of one key build it once, and a failed build inserts
// nothing and fails its caller alone.
func (t *imageTable) install(dev *device.Device, v *registry.ModelVersion, private bool, decode func() (*nn.Network, *procvm.Module, error)) (*image, error) {
	native := v.Kind != registry.KindProcVM && v.Scheme != quant.Float32 && dev.Caps.SupportsBits(v.Scheme.Bits())
	key := imageKey{v.ID, native}
	if !private {
		t.mu.Lock()
		defer t.mu.Unlock()
		if img, ok := t.entries[key]; ok {
			img.refs++
			return img, nil
		}
	}
	model, compiled, err := decode()
	if err != nil {
		return nil, err
	}
	run, err := newExecutor(v, native, model, compiled)
	if err != nil {
		return nil, err
	}
	img := &image{version: v, model: model, compiled: compiled, run: run}
	if !private {
		if t.entries == nil {
			t.entries = make(map[imageKey]*image)
		}
		img.key, img.refs = key, 1
		t.entries[key] = img
		t.misses++
	}
	return img, nil
}

// shares reports whether img is the table's own image of its key; it stays
// true while the asking deployment holds its reference.
func (t *imageTable) shares(img *image) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return img != nil && t.entries[img.key] == img
}

// release drops one slot's reference, and the entry with its last one.
// Private images and nil are not the table's and pass through.
func (t *imageTable) release(img *image) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if img == nil || t.entries[img.key] != img {
		return
	}
	if img.refs--; img.refs == 0 {
		delete(t.entries, img.key)
	}
}
