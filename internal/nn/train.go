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
// returns the mean loss of the final epoch. After a first epoch that sizes
// the network's training plan and every layer's training buffers, an epoch
// allocates nothing.
func Train(net *Network, x *tensor.Tensor, labels []int, cfg TrainConfig) (float32, error) {
	// Examples come from outside: one the network cannot take is refused
	// before the first step, not where the first layer trips over it.
	if !slices.Equal(x.Shape()[1:], net.InputShape) {
		return 0, fmt.Errorf("nn: Train got examples shaped %v, the network takes %v", x.Shape()[1:], net.InputShape)
	}
	n := x.Dim(0)
	if n == 0 {
		return 0, fmt.Errorf("nn: Train got no examples")
	}
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
	// Labels come from outside too: a bad one is refused before the first
	// step changes a parameter, not when its batch comes up.
	classes := net.OutputShape()[0]
	for i, y := range labels {
		if y < 0 || y >= classes {
			return 0, fmt.Errorf("nn: Train: label %d of example %d out of range [0,%d)", y, i, classes)
		}
	}
	p := net.trainPlan(min(cfg.BatchSize, n))
	var lastLoss float32
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := p.shuffle(cfg.RNG, n)
		var epochLoss float64
		batches := 0
		for lo := 0; lo < n; lo += cfg.BatchSize {
			bx, by := p.gather(x, labels, perm[lo:min(lo+cfg.BatchSize, n)])
			net.ZeroGrad()
			logits := net.Forward(bx, true)
			grad := p.grad.get(logits.Shape()...)
			loss := softmaxCrossEntropy(grad, logits, by)
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

// trainPlan is what Train runs from besides the layers' buffers, sized on
// the first batch and kept while the batch size repeats. Clone,
// MarshalBinary and ResetFrom never copy it.
type trainPlan struct {
	x, short *tensor.Tensor // the gathered batch, and a view of its first rows for a short one
	y, perm  []int          // the batch's labels; the epoch's example order
	grad     trainBuf       // the softmax probabilities, then the loss gradient
}

// trainPlan returns the network's plan for batches of up to batch examples.
func (n *Network) trainPlan(batch int) *trainPlan {
	if p := n.train; p != nil && p.x.Dim(0) == batch {
		return p
	}
	n.train = &trainPlan{x: tensor.New(append([]int{batch}, n.InputShape...)...), y: make([]int, batch)}
	return n.train
}

// shuffle returns the plan's permutation of [0,n): rng.Perm(n) without the
// allocation.
func (p *trainPlan) shuffle(rng *tensor.RNG, n int) []int {
	perm := grow(p.perm, n)
	for i := range perm {
		perm[i] = i
	}
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	p.perm = perm
	return perm
}

// gather copies the examples idx lists into the plan's batch and returns it
// with their labels.
func (p *trainPlan) gather(x *tensor.Tensor, labels, idx []int) (*tensor.Tensor, []int) {
	bx, per := p.x, p.x.Size()/p.x.Dim(0)
	if b := len(idx); b < bx.Dim(0) {
		if p.short == nil || p.short.Dim(0) != b {
			p.short = tensor.FromSlice(bx.Data[:b*per], append([]int{b}, bx.Shape()[1:]...)...)
		}
		bx = p.short
	}
	for i, src := range idx {
		copy(bx.Data[i*per:(i+1)*per], x.Data[src*per:(src+1)*per])
		p.y[i] = labels[src]
	}
	return bx, p.y[:len(idx)]
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
		hi := min(lo+batch, n)
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
