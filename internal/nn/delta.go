package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"tinymlops/internal/tensor"
	"tinymlops/internal/wire"
)

// deltaMagic identifies the weight-delta wire format: a per-tensor patch
// that upgrades one serialized network to another of identical topology.
// Same-topology OTA updates (a retrained base, a fine-tuned head) ship as
// deltas instead of full artifacts; the registry computes them, the rollout
// controller accounts their transfer cost, and the device applies them.
const deltaMagic = "TMLD1\n"

// Per-tensor delta encodings. Sparse stores (index, value) pairs for the
// changed elements; dense stores every element. The encoder picks whichever
// is smaller, so a head-only fine-tune ships a few hundred bytes while a
// full retrain degrades gracefully to dense (≈ the full tensor).
const (
	deltaDense  = 0
	deltaSparse = 1
)

// TopologySignature summarizes the network's architecture and all
// non-tensor layer configuration (shapes, strides, epsilons) without the
// weights: per layer the kind and, in kind-table order, its config ints
// and the bits of its config floats. Two networks with equal signatures
// serialize to artifacts that differ only in tensor data, which is exactly
// the precondition for a weight delta to reproduce the target bit-exactly.
func (n *Network) TopologySignature() string {
	b := appendShapeSignature(nil, n.InputShape)
	var s LayerSpec
	for _, l := range n.layers {
		s.load(l)
		b = appendLayerSignature(b, &s)
	}
	return string(b)
}

// appendShapeSignature appends the signature's head: "in" and the input
// shape as fmt's %v prints it.
func appendShapeSignature(b []byte, shape []int) []byte {
	b = append(b, "in["...)
	for i, d := range shape {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(d), 10)
	}
	return append(b, ']')
}

// appendLayerSignature appends one layer's part of the signature.
func appendLayerSignature(b []byte, s *LayerSpec) []byte {
	b = append(append(b, '|'), s.Kind...)
	sep := byte('(')
	for _, v := range s.Ints {
		b = strconv.AppendInt(append(b, sep), int64(v), 10)
		sep = ','
	}
	for _, v := range s.Floats {
		b = strconv.AppendUint(append(b, sep), uint64(math.Float32bits(v)), 16)
		sep = ','
	}
	if sep == ',' {
		b = append(b, ')')
	}
	return b
}

// stateTensors returns every tensor the binary model format serializes, in
// encode order: trainable parameters plus batch-norm running statistics.
func (n *Network) stateTensors() []*tensor.Tensor {
	var s LayerSpec
	var out []*tensor.Tensor
	for _, l := range n.layers {
		s.load(l)
		out = append(out, s.Tensors...)
	}
	return out
}

// EncodeDelta computes the weight delta that transforms oldNet's state into
// newNet's. The networks must have identical topology (TopologySignature).
// Changed elements store the new value's raw bits, so applying the delta to
// oldNet reproduces newNet bit-exactly — including NaN payloads.
func EncodeDelta(oldNet, newNet *Network) ([]byte, error) {
	sig := oldNet.TopologySignature()
	if got := newNet.TopologySignature(); got != sig {
		return nil, fmt.Errorf("nn: delta topology mismatch: %q vs %q", sig, got)
	}
	oldTs, newTs := oldNet.stateTensors(), newNet.stateTensors()
	le := binary.LittleEndian
	w := append([]byte(nil), deltaMagic...)
	w = le.AppendUint32(w, uint32(len(sig)))
	w = append(w, sig...)
	w = le.AppendUint32(w, uint32(len(oldTs)))
	for ti := range oldTs {
		ov, nv := oldTs[ti].Data, newTs[ti].Data
		if len(ov) != len(nv) {
			return nil, fmt.Errorf("nn: delta tensor %d size %d vs %d", ti, len(ov), len(nv))
		}
		var changed []int
		for i := range ov {
			if math.Float32bits(ov[i]) != math.Float32bits(nv[i]) {
				changed = append(changed, i)
			}
		}
		w = le.AppendUint32(w, uint32(len(ov)))
		if sparseWins(len(changed), len(ov)) {
			w = append(w, deltaSparse)
			w = le.AppendUint32(w, uint32(len(changed)))
			for _, i := range changed {
				w = le.AppendUint32(w, uint32(i))
				w = le.AppendUint32(w, math.Float32bits(nv[i]))
			}
		} else {
			w = append(w, deltaDense)
			for _, v := range nv {
				w = le.AppendUint32(w, math.Float32bits(v))
			}
		}
	}
	return w, nil
}

// sparseWins is TMLD1's per-tensor encoding rule: sparse costs 8 bytes per
// changed element, dense 4 per element, and the smaller one ships.
func sparseWins(changed, total int) bool { return changed*8 < total*4 }

// DeltaSize is len(EncodeDelta(oldNet, newNet)) for the newNet whose
// parameters are oldNet's flat parameters g plus d (FlatParams order) and
// whose other state — batch-norm running statistics — is oldNet's. An element
// counts as changed when the float32 bits of g+d differ from those of g, as
// EncodeDelta compares them. It sizes the patch without building either the
// network or the patch, and allocates nothing: what the topology fixes was
// counted when oldNet was assembled.
func DeltaSize(oldNet *Network, d []float32) (int, error) {
	if len(d) != oldNet.ParamCount() {
		return 0, fmt.Errorf("nn: delta size: %d values, model has %d parameters", len(d), oldNet.ParamCount())
	}
	size := oldNet.deltaFixed
	for _, p := range oldNet.params {
		g := p.Value.Data
		changed := 0
		for k := range g {
			if math.Float32bits(g[k]+d[k]) != math.Float32bits(g[k]) {
				changed++
			}
		}
		d = d[len(g):]
		size += patchSize(changed, len(g))
	}
	return size, nil
}

// deltaFixed is what layer s, whose parameters are params, adds to a TMLD1
// patch whatever the parameters hold: its part of the topology signature,
// and each state tensor that is not a parameter, which a delta never
// changes. buf is room to write the signature part in, so that assembling
// a network allocates nothing for it.
func (s *LayerSpec) deltaFixed(params []*Param, buf []byte) int {
	size := len(appendLayerSignature(buf, s))
	// The parameters are a subsequence of the state tensors, in order.
	for _, t := range s.Tensors {
		if len(params) > 0 && params[0].Value == t {
			params = params[1:]
		} else {
			size += patchSize(0, t.Size())
		}
	}
	return size
}

// patchSize is the bytes one tensor of total elements, changed of them
// changed, takes in a patch: its element count and mode byte, then the
// payload.
func patchSize(changed, total int) int {
	if sparseWins(changed, total) {
		return 5 + 4 + 8*changed
	}
	return 5 + 4*total
}

// walkDelta is the one TMLD1 parser. It checks the magic, hands head the
// topology signature and the tensor count, then hands visit each tensor's
// element count, encoding and raw payload: 4 bytes per element when dense,
// 8 bytes per (index, value) pair when sparse, and never more pairs than
// elements. Truncated streams, trailing bytes and unknown encodings are
// errors here; what the payload holds is the visitor's to check.
func walkDelta(delta []byte, head func(sig string, tensors int) error,
	visit func(ti, total int, mode byte, payload []byte) error) error {
	r := wire.NewReader(delta)
	r.Magic(deltaMagic)
	// Topology signatures of deep networks exceed the 1 KiB kind-string bound.
	sig := r.String(1 << 20)
	count := int(r.U32())
	if err := r.Err(); err != nil {
		return fmt.Errorf("nn: delta header: %w", err)
	}
	if err := head(sig, count); err != nil {
		return err
	}
	for ti := 0; ti < count; ti++ {
		total, mode := int(r.U32()), r.U8()
		var payload []byte
		switch mode {
		case deltaDense:
			payload = r.Bytes(4 * total)
		case deltaSparse:
			payload = r.Bytes(8 * r.Count(total, 8))
		default:
			return fmt.Errorf("nn: delta tensor %d unknown mode %d", ti, mode)
		}
		if err := r.Err(); err != nil {
			return fmt.Errorf("nn: delta tensor %d: %w", ti, err)
		}
		if err := visit(ti, total, mode, payload); err != nil {
			return err
		}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("nn: delta: %w", err)
	}
	return nil
}

// ApplyDelta returns a new network equal to oldNet with the delta applied.
// It fails if the delta was encoded against a different topology, so a
// device cannot corrupt its model with a patch meant for another variant.
// The input network is not modified.
func ApplyDelta(oldNet *Network, delta []byte) (*Network, error) {
	var out *Network
	var ts []*tensor.Tensor
	err := walkDelta(delta, func(sig string, tensors int) error {
		if want := oldNet.TopologySignature(); sig != want {
			return fmt.Errorf("nn: delta targets topology %q, model is %q", sig, want)
		}
		out = oldNet.Clone()
		ts = out.stateTensors()
		if tensors != len(ts) {
			return fmt.Errorf("nn: delta has %d tensors, model has %d", tensors, len(ts))
		}
		return nil
	}, func(ti, total int, mode byte, payload []byte) error {
		data := ts[ti].Data
		if total != len(data) {
			return fmt.Errorf("nn: delta tensor %d size %d, model has %d", ti, total, len(data))
		}
		if mode == deltaDense {
			for i := range data {
				data[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
			}
			return nil
		}
		for ; len(payload) > 0; payload = payload[8:] {
			idx := binary.LittleEndian.Uint32(payload)
			if int(idx) >= len(data) {
				return fmt.Errorf("nn: delta tensor %d index %d out of range", ti, idx)
			}
			data[idx] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4:]))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DeltaCost is the modeled transfer and flash footprint of shipping a
// delta at a given weight precision, mirroring how Metrics.SizeBytes
// models the packed size of a float32-stored artifact.
type DeltaCost struct {
	// ShipBytes go over the radio: packed changed weights plus 4-byte
	// indices for sparse tensors, packed full tensors for dense ones.
	ShipBytes int
	// FlashBytes are rewritten on device: only the changed weights (sparse)
	// or the whole tensor (dense), at packed precision.
	FlashBytes int
	// ChangedParams / TotalParams summarize sparsity for reporting.
	ChangedParams int
	TotalParams   int
}

// CostOfDelta parses an encoded delta and returns its modeled cost at the
// given weight bit width (≤ 0 means 32). The cost model matches SizeBytes
// semantics: weights ship and flash at packed precision even though the
// registry stores float32 artifacts for exactness.
func CostOfDelta(delta []byte, bits int) (DeltaCost, error) {
	if bits <= 0 {
		bits = 32
	}
	packed := func(n int) int { return (n*bits + 7) / 8 }
	// A small fixed allowance for the header and per-tensor metadata.
	cost := DeltaCost{ShipBytes: 64}
	err := walkDelta(delta, func(string, int) error { return nil },
		func(_, total int, mode byte, payload []byte) error {
			cost.TotalParams += total
			if mode == deltaDense {
				cost.ChangedParams += total
				cost.ShipBytes += packed(total)
				cost.FlashBytes += packed(total)
				return nil
			}
			nc := len(payload) / 8
			cost.ChangedParams += nc
			cost.ShipBytes += 4*nc + packed(nc)
			cost.FlashBytes += packed(nc)
			return nil
		})
	if err != nil {
		return DeltaCost{}, err
	}
	return cost, nil
}
