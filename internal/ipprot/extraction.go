package ipprot

import (
	"fmt"
	"math"

	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// BlackBox is the attacker's view of a deployed model: probability rows
// for a batch of inputs. On the edge this interface is *free* to call —
// the paper's core observation that extraction is far cheaper against
// edge deployments than against rate-limited cloud APIs.
type BlackBox func(x *tensor.Tensor) *tensor.Tensor

// ModelBlackBox wraps a network as an (undefended) black box.
func ModelBlackBox(net *nn.Network) BlackBox {
	return func(x *tensor.Tensor) *tensor.Tensor {
		return nn.SoftmaxRows(net.Predict(x))
	}
}

// Defense perturbs the probability vector returned to the caller —
// prediction poisoning (§V).
type Defense interface {
	// Name identifies the defense in experiment tables.
	Name() string
	// Apply transforms one batch of probability rows (may modify in
	// place and must return row-stochastic output).
	Apply(probs *tensor.Tensor) *tensor.Tensor
}

// Defend wraps a black box with a defense.
func Defend(bb BlackBox, d Defense) BlackBox {
	return func(x *tensor.Tensor) *tensor.Tensor {
		return d.Apply(bb(x))
	}
}

// NoDefense returns probabilities untouched.
type NoDefense struct{}

// Name implements Defense.
func (NoDefense) Name() string { return "none" }

// Apply implements Defense.
func (NoDefense) Apply(p *tensor.Tensor) *tensor.Tensor { return p }

// RoundDefense rounds probabilities to Decimals digits (Tramèr et al.'s
// simplest mitigation) and renormalizes.
type RoundDefense struct{ Decimals int }

// Name implements Defense.
func (d RoundDefense) Name() string { return fmt.Sprintf("round(%d)", d.Decimals) }

// Apply implements Defense.
func (d RoundDefense) Apply(p *tensor.Tensor) *tensor.Tensor {
	scale := math.Pow(10, float64(d.Decimals))
	out := p.Map(func(v float32) float32 {
		return float32(math.Round(float64(v)*scale) / scale)
	})
	renormalizeRows(out)
	return out
}

// Top1Defense returns only the argmax as a one-hot vector — the hard-label
// API.
type Top1Defense struct{}

// Name implements Defense.
func (Top1Defense) Name() string { return "top1" }

// Apply implements Defense.
func (Top1Defense) Apply(p *tensor.Tensor) *tensor.Tensor {
	rows, cols := p.Dim(0), p.Dim(1)
	out := tensor.New(rows, cols)
	for i, j := range p.ArgMaxRows() {
		out.Set2(i, j, 1)
	}
	return out
}

// NoiseDefense adds zero-mean noise and renormalizes, preserving the
// argmax so the *user's* answer quality is retained while gradients
// toward a clone are disturbed.
type NoiseDefense struct {
	Std float32
	RNG *tensor.RNG
}

// Name implements Defense.
func (d NoiseDefense) Name() string { return fmt.Sprintf("noise(%.2g)", d.Std) }

// Apply implements Defense.
func (d NoiseDefense) Apply(p *tensor.Tensor) *tensor.Tensor {
	rows, cols := p.Dim(0), p.Dim(1)
	out := p.Clone()
	for i := 0; i < rows; i++ {
		arg := 0
		best := out.At2(i, 0)
		for j := 1; j < cols; j++ {
			if out.At2(i, j) > best {
				best, arg = out.At2(i, j), j
			}
		}
		for j := 0; j < cols; j++ {
			v := out.At2(i, j) + d.RNG.NormFloat32()*d.Std
			if v < 1e-6 {
				v = 1e-6
			}
			out.Set2(i, j, v)
		}
		// Preserve the argmax by construction.
		maxOther := float32(0)
		for j := 0; j < cols; j++ {
			if j != arg && out.At2(i, j) > maxOther {
				maxOther = out.At2(i, j)
			}
		}
		if out.At2(i, arg) <= maxOther {
			out.Set2(i, arg, maxOther+0.05)
		}
	}
	renormalizeRows(out)
	return out
}

// DeceptiveDefense is a MAD-lite perturbation (after Orekondy et al.'s
// prediction poisoning): it keeps the argmax but redistributes the
// remaining mass toward the *least* likely classes, so the soft labels
// actively misguide a distillation-style clone.
type DeceptiveDefense struct{}

// Name implements Defense.
func (DeceptiveDefense) Name() string { return "deceptive" }

// Apply implements Defense.
func (DeceptiveDefense) Apply(p *tensor.Tensor) *tensor.Tensor {
	rows, cols := p.Dim(0), p.Dim(1)
	out := tensor.New(rows, cols)
	for i := 0; i < rows; i++ {
		arg := 0
		best := p.At2(i, 0)
		var rest float32
		for j := 1; j < cols; j++ {
			if p.At2(i, j) > best {
				best, arg = p.At2(i, j), j
			}
		}
		for j := 0; j < cols; j++ {
			if j != arg {
				rest += p.At2(i, j)
			}
		}
		// Invert the non-argmax ranking: class with smallest true prob
		// receives the largest share of the non-argmax mass.
		var invSum float32
		for j := 0; j < cols; j++ {
			if j != arg {
				invSum += 1 - p.At2(i, j)
			}
		}
		out.Set2(i, arg, best)
		for j := 0; j < cols; j++ {
			if j == arg {
				continue
			}
			share := float32(0)
			if invSum > 0 {
				share = (1 - p.At2(i, j)) / invSum
			}
			out.Set2(i, j, rest*share)
		}
	}
	renormalizeRows(out)
	return out
}

func renormalizeRows(p *tensor.Tensor) {
	rows, cols := p.Dim(0), p.Dim(1)
	for i := 0; i < rows; i++ {
		var s float32
		row := p.Data[i*cols : (i+1)*cols]
		for _, v := range row {
			s += v
		}
		if s <= 0 {
			for j := range row {
				row[j] = 1 / float32(cols)
			}
			continue
		}
		for j := range row {
			row[j] /= s
		}
	}
}

// Extract trains for extractEpochs passes over the query set in batches of
// extractBatch, by SGD with momentum 0.9 at learning rate extractLR.
const (
	extractEpochs         = 20
	extractBatch          = 32
	extractLR     float32 = 0.05
)

// Extract trains student to mimic the black box on the attacker's query
// set using soft-label cross-entropy — indirect model stealing. It returns
// the number of queries spent (one per example per epoch is *not* charged:
// the attacker caches responses, so queries = len(queryX), matching the
// edge-deployment threat model where querying is local and free anyway).
// rng shuffles the query set between epochs.
func Extract(bb BlackBox, student *nn.Network, queryX *tensor.Tensor, rng *tensor.RNG) (int, error) {
	if rng == nil {
		return 0, fmt.Errorf("ipprot: Extract needs an RNG")
	}
	n := queryX.Dim(0)
	es := queryX.Size() / n
	probs := bb(queryX) // one pass over the query budget, cached
	opt := nn.NewSGD(extractLR).WithMomentum(0.9)
	for epoch := 0; epoch < extractEpochs; epoch++ {
		perm := rng.Perm(n)
		for lo := 0; lo < n; lo += extractBatch {
			hi := lo + extractBatch
			if hi > n {
				hi = n
			}
			idx := perm[lo:hi]
			bshape := append([]int{len(idx)}, queryX.Shape()[1:]...)
			bx := tensor.New(bshape...)
			bt := tensor.New(len(idx), probs.Dim(1))
			for i, src := range idx {
				copy(bx.Data[i*es:(i+1)*es], queryX.Data[src*es:(src+1)*es])
				copy(bt.Data[i*probs.Dim(1):(i+1)*probs.Dim(1)], probs.Data[src*probs.Dim(1):(src+1)*probs.Dim(1)])
			}
			student.ZeroGrad()
			logits := student.Forward(bx)
			sp := nn.SoftmaxRows(logits)
			// Soft cross-entropy gradient: (softmax(student) − teacher)/batch,
			// in place.
			scale := 1 / float32(len(idx))
			for i, t := range bt.Data {
				sp.Data[i] = (sp.Data[i] - t) * scale
			}
			student.Backward(sp)
			opt.Step(student.Params())
		}
	}
	return n, nil
}

// Agreement returns the fraction of inputs on which two black boxes give
// the same argmax — the standard clone-quality metric.
func Agreement(a, b BlackBox, x *tensor.Tensor) float64 {
	pa := a(x).ArgMaxRows()
	pb := b(x).ArgMaxRows()
	same := 0
	for i := range pa {
		if pa[i] == pb[i] {
			same++
		}
	}
	if len(pa) == 0 {
		return 0
	}
	return float64(same) / float64(len(pa))
}
