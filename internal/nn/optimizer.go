package nn

import (
	"math"

	"tinymlops/internal/tensor"
)

// Optimizer updates network parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update to every parameter and leaves gradients
	// untouched (callers pair it with Network.ZeroGrad).
	Step(params []*Param)
}

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

// Step implements Optimizer. Every product is rounded to float32 before it
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

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float32

	t int
	m map[*Param]*tensor.Tensor
	v map[*Param]*tensor.Tensor
}

// NewAdam returns an Adam optimizer with standard defaults
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr float32) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param]*tensor.Tensor), v: make(map[*Param]*tensor.Tensor)}
}

// Step implements Optimizer.
func (a *Adam) Step(params []*Param) {
	a.t++
	bc1 := 1 - float32(math.Pow(float64(a.Beta1), float64(a.t)))
	bc2 := 1 - float32(math.Pow(float64(a.Beta2), float64(a.t)))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.Value.Shape()...)
			a.m[p] = m
		}
		v, ok := a.v[p]
		if !ok {
			v = tensor.New(p.Value.Shape()...)
			a.v[p] = v
		}
		grad := p.grad().Data
		for i := range p.Value.Data {
			g := grad[i]
			m.Data[i] = a.Beta1*m.Data[i] + (1-a.Beta1)*g
			v.Data[i] = a.Beta2*v.Data[i] + (1-a.Beta2)*g*g
			mh := m.Data[i] / bc1
			vh := v.Data[i] / bc2
			p.Value.Data[i] -= a.LR * mh / (float32(math.Sqrt(float64(vh))) + a.Eps)
		}
	}
}
