package compat

import (
	"fmt"
	"math"

	"tinymlops/internal/device"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// LoweringResult records what the per-target lowering pipeline did.
type LoweringResult struct {
	Network *nn.Network
	// Passes lists the applied transformations in order.
	Passes []string
}

// Lower prepares a trained network for deployment to a target: it always
// strips training-only layers (dropout), folds batch normalization into
// the preceding dense layer when the target has no batch-norm kernel, and
// fails with a descriptive error when an operator remains unsupported.
// The input network is not modified.
func Lower(net *nn.Network, caps device.Capabilities) (LoweringResult, error) {
	res := LoweringResult{Network: net.Clone()}

	if n := dropDropout(res.Network); n > 0 {
		res.Passes = append(res.Passes, fmt.Sprintf("drop-dropout(%d)", n))
	}
	if !caps.SupportsOp("batchnorm1d") {
		n, err := FoldBatchNorm(res.Network)
		if err != nil {
			return res, err
		}
		if n > 0 {
			res.Passes = append(res.Passes, fmt.Sprintf("fold-batchnorm(%d)", n))
		}
	}
	for _, op := range res.Network.OpKinds() {
		if !caps.SupportsOp(op) {
			return res, fmt.Errorf("compat: operator %q has no kernel on %s and no lowering exists", op, caps.Name)
		}
	}
	res.Passes = append(res.Passes, "verify-ops")
	return res, nil
}

// dropDropout removes Dropout layers in place, returning how many were
// removed. Dropout is the identity at inference, so this is always sound
// for deployment artifacts.
func dropDropout(net *nn.Network) int {
	var kept []nn.Layer
	removed := 0
	for _, l := range net.Layers() {
		if _, ok := l.(*nn.Dropout); ok {
			removed++
			continue
		}
		kept = append(kept, l)
	}
	if removed > 0 {
		*net = *nn.NewNetwork(net.InputShape, kept...)
	}
	return removed
}

// FoldBatchNorm folds every BatchNorm1D that directly follows a Dense
// layer into that layer's weights and bias:
//
//	y = γ·(xW + b − μ)/σ + β  ⇒  W'ⱼ = Wⱼ·γⱼ/σⱼ,  b'ⱼ = (bⱼ−μⱼ)·γⱼ/σⱼ + βⱼ
//
// using the batch norm's running statistics. The transform is exact for
// inference. It returns the number of folded layers; a BatchNorm1D in any
// other position is an error (no sound fold exists).
func FoldBatchNorm(net *nn.Network) (int, error) {
	layers := net.Layers()
	var kept []nn.Layer
	folded := 0
	for i := 0; i < len(layers); i++ {
		bn, ok := layers[i].(*nn.BatchNorm1D)
		if !ok {
			kept = append(kept, layers[i])
			continue
		}
		if len(kept) == 0 {
			return folded, fmt.Errorf("compat: batchnorm1d at layer %d has no preceding dense layer to fold into", i)
		}
		dense, ok := kept[len(kept)-1].(*nn.Dense)
		if !ok {
			return folded, fmt.Errorf("compat: batchnorm1d at layer %d follows %s, can only fold into dense", i, kept[len(kept)-1].Kind())
		}
		if dense.Out != bn.F {
			return folded, fmt.Errorf("compat: batchnorm1d width %d does not match dense output %d", bn.F, dense.Out)
		}
		for j := 0; j < bn.F; j++ {
			invStd := float32(1 / math.Sqrt(float64(bn.RunVar.Data[j]+bn.Eps)))
			g := bn.Gamma.Value.Data[j] * invStd
			for k := 0; k < dense.In; k++ {
				dense.W.Value.Data[k*dense.Out+j] *= g
			}
			dense.B.Value.Data[j] = (dense.B.Value.Data[j]-bn.RunMean.Data[j])*g + bn.Beta.Value.Data[j]
		}
		folded++
	}
	if folded > 0 {
		*net = *nn.NewNetwork(net.InputShape, kept...)
	}
	return folded, nil
}

// VerifyLowering checks that a lowered network predicts (near-)identically
// to the original on probe inputs — the numerical regression test a
// deployment pipeline runs after every pass.
func VerifyLowering(original, lowered *nn.Network, probes *tensor.Tensor, tol float32) error {
	a := original.Predict(probes)
	b := lowered.Predict(probes)
	if !tensor.SameShape(a, b) {
		return fmt.Errorf("compat: lowered output shape %v != %v", b.Shape(), a.Shape())
	}
	for i := range a.Data {
		d := a.Data[i] - b.Data[i]
		if d < 0 {
			d = -d
		}
		if d > tol {
			return fmt.Errorf("compat: lowered output deviates by %v at %d (tol %v)", d, i, tol)
		}
	}
	return nil
}
