package nn

import "tinymlops/internal/tensor"

// SGD is stochastic gradient descent with optional momentum and decoupled
// weight decay.
type SGD struct {
	LR          float32
	Momentum    float32
	WeightDecay float32

	velocity map[*Param]*tensor.Tensor
}

// NewSGD returns an SGD optimizer with the given learning rate.
func NewSGD(lr float32) *SGD { return &SGD{LR: lr} }

// WithMomentum sets the momentum coefficient and returns the optimizer.
func (s *SGD) WithMomentum(m float32) *SGD { s.Momentum = m; return s }

// Step applies one update to every parameter and leaves gradients untouched
// (callers pair it with Network.ZeroGrad). Every product is rounded to float32 before it
// is added, so arm64 cannot fuse the two and trains on amd64's bits.
func (s *SGD) Step(params []*Param) {
	if s.Momentum != 0 && s.velocity == nil {
		s.velocity = make(map[*Param]*tensor.Tensor)
	}
	for _, p := range params {
		if s.WeightDecay != 0 {
			p.Value.Scale(1 - float32(s.LR*s.WeightDecay))
		}
		if s.Momentum == 0 {
			p.Value.Axpy(-s.LR, p.grad())
			continue
		}
		v, ok := s.velocity[p]
		if !ok {
			v = tensor.New(p.Value.Shape()...)
			s.velocity[p] = v
		}
		g := p.grad().Data
		for i := range v.Data {
			v.Data[i] = float32(s.Momentum*v.Data[i]) + g[i]
			p.Value.Data[i] -= float32(s.LR * v.Data[i])
		}
	}
}
