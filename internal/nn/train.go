package nn

import (
	"fmt"
	"slices"

	"tinymlops/internal/tensor"
)

// TrainConfig controls the mini-batch training loop.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	// RNG shuffles examples between epochs. Required.
	RNG *tensor.RNG
	// ExtraGrad, if non-nil, is invoked after the loss gradient has been
	// backpropagated and may add additional parameter gradients — the hook
	// watermark embedding and FedProx's proximal term use.
	ExtraGrad func(net *Network)
}

// Train runs mini-batch classification training of net on (x, labels) with
// softmax cross-entropy. x is [n, features...] and labels has length n. It
// returns the mean loss of the final epoch.
func Train(net *Network, x *tensor.Tensor, labels []int, cfg TrainConfig) (float32, error) {
	// Examples come from outside: one the network cannot take is refused
	// before the first step, not where the first layer trips over it.
	if !slices.Equal(x.Shape()[1:], net.InputShape) {
		return 0, fmt.Errorf("nn: Train got examples shaped %v, the network takes %v", x.Shape()[1:], net.InputShape)
	}
	n := x.Dim(0)
	if len(labels) != n {
		return 0, fmt.Errorf("nn: Train got %d labels for %d examples", len(labels), n)
	}
	if cfg.RNG == nil {
		return 0, fmt.Errorf("nn: TrainConfig.RNG is required")
	}
	if cfg.Optimizer == nil {
		return 0, fmt.Errorf("nn: TrainConfig.Optimizer is required")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 1
	}
	var lastLoss float32
	exampleSize := x.Size() / n
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := cfg.RNG.Perm(n)
		var epochLoss float64
		batches := 0
		for lo := 0; lo < n; lo += cfg.BatchSize {
			hi := lo + cfg.BatchSize
			if hi > n {
				hi = n
			}
			bx, by := gatherBatch(x, labels, perm[lo:hi], exampleSize)
			net.ZeroGrad()
			logits := net.Forward(bx, true)
			if epoch == 0 && lo == 0 {
				// Labels come from outside: refuse a bad one before the
				// first step changes a parameter, not when its batch comes up.
				for i, y := range labels {
					if y < 0 || y >= logits.Dim(1) {
						return 0, fmt.Errorf("nn: Train: label %d of example %d out of range [0,%d)", y, i, logits.Dim(1))
					}
				}
			}
			loss, grad := SoftmaxCrossEntropy(logits, by)
			net.Backward(grad)
			if cfg.ExtraGrad != nil {
				cfg.ExtraGrad(net)
			}
			cfg.Optimizer.Step(net.Params())
			epochLoss += float64(loss)
			batches++
		}
		lastLoss = float32(epochLoss / float64(batches))
	}
	return lastLoss, nil
}

// gatherBatch copies the selected examples into a contiguous batch tensor.
func gatherBatch(x *tensor.Tensor, labels []int, idx []int, exampleSize int) (*tensor.Tensor, []int) {
	shape := append([]int{len(idx)}, x.Shape()[1:]...)
	bx := tensor.New(shape...)
	by := make([]int, len(idx))
	for i, src := range idx {
		copy(bx.Data[i*exampleSize:(i+1)*exampleSize], x.Data[src*exampleSize:(src+1)*exampleSize])
		by[i] = labels[src]
	}
	return bx, by
}

// Evaluate returns classification accuracy of net on (x, labels), running
// inference in batches to bound memory.
func Evaluate(net *Network, x *tensor.Tensor, labels []int) float64 {
	n := x.Dim(0)
	if n == 0 {
		return 0
	}
	const batch = 256
	exampleSize := x.Size() / n
	correct := 0
	scratch := NewScratch()
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		shape := append([]int{hi - lo}, x.Shape()[1:]...)
		bx := tensor.FromSlice(x.Data[lo*exampleSize:hi*exampleSize], shape...)
		pred := net.ForwardBatch(bx, scratch).ArgMaxRows()
		for i, p := range pred {
			if p == labels[lo+i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(n)
}
