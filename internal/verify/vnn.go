package verify

import (
	"fmt"

	"tinymlops/internal/nn"
	"tinymlops/internal/quant"
	"tinymlops/internal/tensor"
)

// Verifiable inference for dense networks. The device (prover) runs int8
// inference and attaches, for every dense layer, the integer accumulator
// matrix it claims plus a sum-check proof of the underlying matrix
// product. The verifier — who owns the model and the input, e.g. the
// payment authorizer of §VI — re-derives the quantized operands
// deterministically, checks each proof, and recomputes the cheap O(n)
// nonlinear glue itself. Soundness comes from the sum-check; the verifier
// never performs an O(m·n·k) multiplication.
//
// As in SafetyNets, the saving amortizes over a batch: for a batch of m
// inputs the verifier does O(m·k + k·n + m·n) work per layer versus
// O(m·k·n) for re-execution.

// LayerEvidence is the prover's claim for one dense layer.
type LayerEvidence struct {
	// Claimed is the integer accumulator matrix (batch × out).
	Claimed []int64
	// Proof is the sum-check proof that Claimed = Xq × Wq.
	Proof *Proof
}

// InferenceProof accompanies a batch of inference results.
type InferenceProof struct {
	Layers []LayerEvidence
	// Output is the final float logits the device reports.
	Output *tensor.Tensor
	// ProverStats aggregates prover-side cost.
	ProverStats Stats
}

// SizeBytes returns the total evidence size: claimed accumulators plus
// proofs (the logits are the result itself, not overhead).
func (ip *InferenceProof) SizeBytes() int {
	total := 0
	for _, le := range ip.Layers {
		total += 8 * len(le.Claimed)
		total += le.Proof.SizeBytes()
	}
	return total
}

// QuantizeWeights quantizes a weight matrix to int8 codes (as int32
// operands) with a single symmetric scale: quant.QuantizeBlock's codes and
// scale, so a non-finite weight gets that rule's code too. Deterministic,
// so a prover and a verifier holding the same weights derive bit-identical
// operands — settlement relies on this to re-derive a deployment's proved
// layer from the registry artifact alone.
func QuantizeWeights(w *tensor.Tensor) ([]int32, float32) {
	codes := make([]int8, w.Size())
	scale := quant.QuantizeBlock(w.Data, codes)
	return toInt32(codes), scale
}

func toInt32(codes []int8) []int32 {
	out := make([]int32, len(codes))
	for i, c := range codes {
		out[i] = int32(c)
	}
	return out
}

// walkInference runs the shared prover/verifier pass over the network.
// onDense is called with the quantized operands and must return the
// accumulator matrix to continue with (the prover computes it with a
// proof; the verifier checks the claimed one and returns it).
func walkInference(net *nn.Network, x *tensor.Tensor,
	onDense func(layerIdx int, xq []int32, m, k int, wq []int32, n int) ([]int64, error),
) (*tensor.Tensor, error) {
	cur := x
	denseIdx := 0
	for i, l := range net.Layers() {
		d, ok := l.(*nn.Dense)
		if !ok {
			// A layer the proof does not cover is plain float inference:
			// the network's compiled program over that one layer.
			glue, err := net.Subnet(i, i+1)
			if err != nil {
				return nil, err
			}
			cur = glue.ForwardBatch(cur, nil)
			continue
		}
		codes, sx := quant.QuantizeActivations(cur)
		wq, sw := QuantizeWeights(d.W.Value)
		m := cur.Dim(0)
		acc, err := onDense(denseIdx, toInt32(codes), m, d.In, wq, d.Out)
		if err != nil {
			return nil, err
		}
		out := tensor.New(m, d.Out)
		for i := range acc {
			out.Data[i] = float32(acc[i]) * sx * sw
		}
		out.AddRowVector(d.B.Value)
		cur = out
		denseIdx++
	}
	return cur, nil
}

// ProveInference runs verifiable int8 inference of net on the batch x and
// returns the logits plus the proof bundle.
func ProveInference(net *nn.Network, x *tensor.Tensor) (*InferenceProof, error) {
	ip := &InferenceProof{}
	out, err := walkInference(net, x, func(idx int, xq []int32, m, k int, wq []int32, n int) ([]int64, error) {
		acc, proof, stats, err := ProveMatMul(xq, m, k, wq, n)
		if err != nil {
			return nil, fmt.Errorf("verify: layer %d: %w", idx, err)
		}
		ip.Layers = append(ip.Layers, LayerEvidence{Claimed: acc, Proof: proof})
		ip.ProverStats.ProverMuls += stats.ProverMuls
		ip.ProverStats.DirectMuls += stats.DirectMuls
		ip.ProverStats.ProofBytes += stats.ProofBytes
		return acc, nil
	})
	if err != nil {
		return nil, err
	}
	ip.Output = out
	return ip, nil
}

// VerifyInference checks an inference proof against the verifier's own
// copies of the model and input. It returns false (with nil error) when
// the evidence is inconsistent with an honest execution.
func VerifyInference(net *nn.Network, x *tensor.Tensor, ip *InferenceProof) (bool, Stats, error) {
	var agg Stats
	denseCount := 0
	for _, l := range net.Layers() {
		if _, ok := l.(*nn.Dense); ok {
			denseCount++
		}
	}
	if len(ip.Layers) != denseCount {
		return false, agg, fmt.Errorf("verify: proof covers %d layers, model has %d dense layers", len(ip.Layers), denseCount)
	}
	ok := true
	out, err := walkInference(net, x, func(idx int, xq []int32, m, k int, wq []int32, n int) ([]int64, error) {
		le := ip.Layers[idx]
		if len(le.Claimed) != m*n {
			ok = false
			return nil, fmt.Errorf("verify: layer %d claim size %d, want %d", idx, len(le.Claimed), m*n)
		}
		valid, stats, err := VerifyMatMul(xq, m, k, wq, n, le.Claimed, le.Proof)
		agg.VerifierMuls += stats.VerifierMuls
		agg.DirectMuls += stats.DirectMuls
		agg.ProofBytes += stats.ProofBytes
		if err != nil {
			return nil, err
		}
		if !valid {
			ok = false
			return nil, errEvidence
		}
		return le.Claimed, nil
	})
	if err == errEvidence {
		return false, agg, nil
	}
	if err != nil {
		return ok, agg, err
	}
	// The reported logits must match the verified recomputation exactly
	// (both sides run identical deterministic arithmetic).
	if !tensor.SameShape(out, ip.Output) {
		return false, agg, nil
	}
	for i := range out.Data {
		d := out.Data[i] - ip.Output.Data[i]
		if d < 0 {
			d = -d
		}
		if d > 1e-5 {
			return false, agg, nil
		}
	}
	return ok, agg, nil
}

// errEvidence is an internal sentinel to abort the walk on a bad proof.
var errEvidence = fmt.Errorf("verify: evidence rejected")
