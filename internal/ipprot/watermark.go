package ipprot

import (
	"fmt"

	"tinymlops/internal/dataset"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// Static (white-box) watermarking after Uchida et al.: a secret projection
// matrix X (derived from the owner key) maps the flattened weights w of a
// carrier layer to capacity logits; embedding nudges w so that
// sigmoid(X·w) reproduces the owner's bit string, extraction recomputes
// X·w and thresholds at zero. Verification requires white-box access to
// the weights — the trade-off §V describes for static schemes.

// Embedding strength, fixed at values good for this repository's scales.
const (
	// wmSteps and wmLR drive the embedding optimization. The step budget is
	// generous: embedding stops early as soon as every bit clears the
	// margin, so the cap only matters for high capacity-to-carrier ratios.
	wmSteps         = 4000
	wmLR    float32 = 0.05
	// wmLambda penalizes distance from the original weights (fidelity).
	wmLambda float32 = 0.005
	// wmMargin is the minimum |X·w| each bit is driven to: a larger margin
	// survives more pruning or fine-tuning at a larger fidelity cost.
	wmMargin float32 = 2
)

// StaticWMConfig places the mark.
type StaticWMConfig struct {
	// Layer selects which dense layer's weights carry the mark (index
	// among the network's dense layers, not all layers).
	Layer int
}

// DefaultStaticWMConfig marks the first dense layer.
func DefaultStaticWMConfig() StaticWMConfig { return StaticWMConfig{} }

// denseLayers returns the dense layers of a network in order.
func denseLayers(net *nn.Network) []*nn.Dense {
	var out []*nn.Dense
	for _, l := range net.Layers() {
		if d, ok := l.(*nn.Dense); ok {
			out = append(out, d)
		}
	}
	return out
}

// projection builds the capacity×n secret matrix from the owner key.
func projection(key string, capacity, n int) *tensor.Tensor {
	rng := tensor.NewRNG(keySeed(key, "static-wm"))
	return tensor.Randn(rng, 1, capacity, n)
}

// EmbedStatic embeds bits into net's carrier layer in place. The embedding
// minimizes binary cross-entropy of sigmoid(X·w) against the bits plus
// λ‖w−w₀‖², so fidelity degrades gracefully as capacity grows (the E8
// trade-off).
func EmbedStatic(net *nn.Network, key string, bits []bool, cfg StaticWMConfig) error {
	if len(bits) == 0 {
		return fmt.Errorf("ipprot: empty watermark")
	}
	dl := denseLayers(net)
	if cfg.Layer < 0 || cfg.Layer >= len(dl) {
		return fmt.Errorf("ipprot: carrier layer %d out of range (%d dense layers)", cfg.Layer, len(dl))
	}
	w := dl[cfg.Layer].W.Value
	n := w.Size()
	if len(bits) > n/2 {
		return fmt.Errorf("ipprot: capacity %d too large for %d weights", len(bits), n)
	}
	x := projection(key, len(bits), n)
	w0 := append([]float32(nil), w.Data...)
	sign := make([]float32, len(bits))
	for i, b := range bits {
		if b {
			sign[i] = 1
		} else {
			sign[i] = -1
		}
	}
	grad := make([]float32, n)
	for step := 0; step < wmSteps; step++ {
		for i := range grad {
			grad[i] = 2 * wmLambda * (w.Data[i] - w0[i])
		}
		// Hinge on each bit: push s·(X·w) past the margin.
		satisfied := 0
		for r := 0; r < len(bits); r++ {
			row := x.Data[r*n : (r+1)*n]
			var dot float64
			for i, wi := range w.Data {
				dot += float64(row[i]) * float64(wi)
			}
			if float32(dot)*sign[r] >= wmMargin {
				satisfied++
				continue
			}
			scale := sign[r] / float32(len(bits))
			for i, xi := range row {
				grad[i] -= scale * xi
			}
		}
		if satisfied == len(bits) {
			return nil
		}
		for i := range w.Data {
			w.Data[i] -= wmLR * grad[i]
		}
	}
	// Verify the mark actually took; with a sane capacity this converges
	// long before wmSteps runs out.
	got, err := ExtractStatic(net, key, len(bits), cfg)
	if err != nil {
		return err
	}
	if BitErrorRate(bits, got) > 0 {
		return fmt.Errorf("ipprot: embedding did not converge in %d steps (capacity %d)", wmSteps, len(bits))
	}
	return nil
}

// ExtractStatic reads capacity bits back from the carrier layer with
// white-box access.
func ExtractStatic(net *nn.Network, key string, capacity int, cfg StaticWMConfig) ([]bool, error) {
	dl := denseLayers(net)
	if cfg.Layer < 0 || cfg.Layer >= len(dl) {
		return nil, fmt.Errorf("ipprot: carrier layer %d out of range (%d dense layers)", cfg.Layer, len(dl))
	}
	w := dl[cfg.Layer].W.Value
	n := w.Size()
	x := projection(key, capacity, n)
	out := make([]bool, capacity)
	for r := 0; r < capacity; r++ {
		row := x.Data[r*n : (r+1)*n]
		var dot float64
		for i, wi := range w.Data {
			dot += float64(row[i]) * float64(wi)
		}
		out[r] = dot > 0
	}
	return out, nil
}

// BitErrorRate compares an extracted mark against the original.
func BitErrorRate(want, got []bool) float64 {
	if len(want) == 0 || len(want) != len(got) {
		return 1
	}
	errs := 0
	for i := range want {
		if want[i] != got[i] {
			errs++
		}
	}
	return float64(errs) / float64(len(want))
}

// KeyedBits derives an owner's watermark payload deterministically from a
// key — what the registry tags each customer's variant with (§V: "keep
// track of the different versions of the model to associate different
// watermarks with different users").
func KeyedBits(key string, n int) []bool {
	rng := tensor.NewRNG(keySeed(key, "wm-payload"))
	out := make([]bool, n)
	for i := range out {
		out[i] = rng.Float64() < 0.5
	}
	return out
}

// Dynamic (black-box) watermarking: the model is fine-tuned to produce
// owner-chosen labels on a secret trigger set of out-of-distribution
// inputs. Ownership is verified by querying the suspect model — no weight
// access needed — at the cost of a training-time intervention.

// TriggerSet is the secret (inputs, labels) pair.
type TriggerSet struct {
	X *tensor.Tensor
	Y []int
}

// NewTriggerSet derives k out-of-distribution trigger examples and labels
// from the owner key.
func NewTriggerSet(key string, k int, inputShape []int, numClasses int) TriggerSet {
	rng := tensor.NewRNG(keySeed(key, "trigger-set"))
	shape := append([]int{k}, inputShape...)
	x := tensor.RandUniform(rng, -4, 4, shape...)
	y := make([]int, k)
	for i := range y {
		y[i] = rng.Intn(numClasses)
	}
	return TriggerSet{X: x, Y: y}
}

// EmbedDynamic fine-tunes net on a mixture of its training data and the
// trigger set (triggers oversampled) so trigger recall becomes near-
// perfect while task accuracy is retained.
func EmbedDynamic(net *nn.Network, triggers TriggerSet, trainX *tensor.Tensor, trainY []int, epochs int, rng *tensor.RNG) error {
	if epochs <= 0 {
		epochs = 5
	}
	n := trainX.Dim(0)
	k := triggers.X.Dim(0)
	es := trainX.Size() / n
	// Mixture: all training data + triggers repeated to ~20% of the data.
	repeat := n / (5 * k)
	if repeat < 1 {
		repeat = 1
	}
	total := n + repeat*k
	shape := append([]int{total}, trainX.Shape()[1:]...)
	mx := tensor.New(shape...)
	my := make([]int, total)
	copy(mx.Data[:n*es], trainX.Data)
	copy(my[:n], trainY)
	for r := 0; r < repeat; r++ {
		off := n + r*k
		copy(mx.Data[off*es:(off+k)*es], triggers.X.Data)
		copy(my[off:off+k], triggers.Y)
	}
	_, err := nn.Train(net, mx, my, nn.TrainConfig{
		Epochs: epochs, BatchSize: 32,
		Optimizer: nn.NewSGD(0.05).WithMomentum(0.9), RNG: rng,
	})
	return err
}

// VerifyDynamic returns the suspect model's accuracy on the trigger set —
// black-box ownership evidence when it far exceeds chance.
func VerifyDynamic(net *nn.Network, triggers TriggerSet) float64 {
	return nn.Evaluate(net, triggers.X, triggers.Y)
}

// FineTuneAttack simulates an adversary trying to wash out a watermark by
// fine-tuning the stolen model on their own (smaller) dataset.
func FineTuneAttack(net *nn.Network, ds *dataset.Dataset, epochs int, lr float32, rng *tensor.RNG) error {
	_, err := nn.Train(net, ds.X, ds.Y, nn.TrainConfig{
		Epochs: epochs, BatchSize: 32, Optimizer: nn.NewSGD(lr), RNG: rng,
	})
	return err
}
