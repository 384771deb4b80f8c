package nn

import (
	"fmt"
	"math"

	"tinymlops/internal/tensor"
)

// BatchNorm1D normalizes each feature of a [batch, features] input over the
// batch dimension during training, tracking running statistics for
// inference.
type BatchNorm1D struct {
	F        int
	Eps      float32
	Momentum float32 // running-stat update rate, e.g. 0.1

	Gamma, Beta *Param
	RunMean     *tensor.Tensor
	RunVar      *tensor.Tensor

	lastXHat  *tensor.Tensor
	lastStd   []float32
	lastBatch int
	xhat      trainBuf // lastXHat's storage
	out, dx   trainBuf
}

// NewBatchNorm1D returns a batch-norm layer over f features.
func NewBatchNorm1D(f int) *BatchNorm1D {
	return &BatchNorm1D{
		F: f, Eps: 1e-5, Momentum: 0.1,
		Gamma:   newParam("gamma", tensor.Ones(f)),
		Beta:    newParam("beta", tensor.New(f)),
		RunMean: tensor.New(f),
		RunVar:  tensor.Ones(f),
	}
}

// Kind implements Layer.
func (bn *BatchNorm1D) Kind() string { return "batchnorm1d" }

// Forward implements Layer.
func (bn *BatchNorm1D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	b := x.Dim(0)
	out := bn.out.out(train, b, bn.F)
	if !train {
		bn.InferInto(out, x)
		return out
	}
	bn.lastBatch = b
	bn.lastXHat = bn.xhat.get(b, bn.F)
	bn.lastStd = grow(bn.lastStd, bn.F)
	for j := 0; j < bn.F; j++ {
		var mean float64
		for i := 0; i < b; i++ {
			mean += float64(x.Data[i*bn.F+j])
		}
		mean /= float64(b)
		var variance float64
		for i := 0; i < b; i++ {
			d := float64(x.Data[i*bn.F+j]) - mean
			variance += d * d
		}
		variance /= float64(b)
		std := float32(math.Sqrt(variance + float64(bn.Eps)))
		bn.lastStd[j] = std
		bn.RunMean.Data[j] = (1-bn.Momentum)*bn.RunMean.Data[j] + bn.Momentum*float32(mean)
		bn.RunVar.Data[j] = (1-bn.Momentum)*bn.RunVar.Data[j] + bn.Momentum*float32(variance)
		g, be := bn.Gamma.Value.Data[j], bn.Beta.Value.Data[j]
		for i := 0; i < b; i++ {
			xh := (x.Data[i*bn.F+j] - float32(mean)) / std
			bn.lastXHat.Data[i*bn.F+j] = xh
			out.Data[i*bn.F+j] = g*xh + be
		}
	}
	return out
}

// InferInto implements the ForwardBatch fast path: normalization with the
// frozen running statistics, no batch-statistic updates.
func (bn *BatchNorm1D) InferInto(dst, x *tensor.Tensor) {
	b := x.Dim(0)
	for j := 0; j < bn.F; j++ {
		inv := 1 / float32(math.Sqrt(float64(bn.RunVar.Data[j]+bn.Eps)))
		g, be, mu := bn.Gamma.Value.Data[j], bn.Beta.Value.Data[j], bn.RunMean.Data[j]
		for i := 0; i < b; i++ {
			dst.Data[i*bn.F+j] = g*(x.Data[i*bn.F+j]-mu)*inv + be
		}
	}
}

// Backward implements Layer.
func (bn *BatchNorm1D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	b := bn.lastBatch
	dx := bn.dx.get(b, bn.F)
	gBeta, gGamma := bn.Beta.grad().Data, bn.Gamma.grad().Data
	for j := 0; j < bn.F; j++ {
		var sumG, sumGX float32
		for i := 0; i < b; i++ {
			g := grad.Data[i*bn.F+j]
			sumG += g
			sumGX += g * bn.lastXHat.Data[i*bn.F+j]
		}
		gBeta[j] += sumG
		gGamma[j] += sumGX
		gamma := bn.Gamma.Value.Data[j]
		invStd := 1 / bn.lastStd[j]
		nb := float32(b)
		for i := 0; i < b; i++ {
			g := grad.Data[i*bn.F+j]
			xh := bn.lastXHat.Data[i*bn.F+j]
			dx.Data[i*bn.F+j] = gamma * invStd / nb * (nb*g - sumG - xh*sumGX)
		}
	}
	return dx
}

// Params implements Layer.
func (bn *BatchNorm1D) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// Describe implements Layer.
func (bn *BatchNorm1D) Describe(in []int) (LayerInfo, error) {
	if len(in) != 1 || in[0] != bn.F {
		return LayerInfo{}, errShape("batchnorm1d", []int{bn.F}, in)
	}
	return LayerInfo{OutShape: []int{bn.F}, MACs: 2 * int64(bn.F),
		ParamCount: 2 * int64(bn.F), ActivationFloats: int64(bn.F)}, nil
}

// Dropout zeroes a fraction P of activations during training and rescales
// the survivors by 1/(1-P) (inverted dropout); it is the identity at
// inference time.
type Dropout struct {
	P   float32
	rng *tensor.RNG

	lastMask *tensor.Tensor
	mask     trainBuf // lastMask's storage
	out, dx  trainBuf
}

// NewDropout returns a dropout layer with drop probability p drawing its
// masks from rng.
func NewDropout(p float32, rng *tensor.RNG) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: dropout probability %v out of [0,1)", p))
	}
	return &Dropout{P: p, rng: rng}
}

// Kind implements Layer.
func (d *Dropout) Kind() string { return "dropout" }

// resetDecodeState implements decodeState: a decoded dropout layer draws
// its masks from a fixed-seed RNG of its own. Inference is unaffected
// (dropout is the identity there), and a caller that resumes training gets
// the same stream from every copy of the model.
func (d *Dropout) resetDecodeState() { d.rng = tensor.NewRNG(0) }

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.P == 0 {
		d.lastMask = nil
		return x
	}
	keep := 1 - d.P
	scale := 1 / keep
	d.lastMask = d.mask.get(x.Shape()...)
	out := d.out.get(x.Shape()...)
	for i, v := range x.Data {
		if d.rng.Float32() < keep {
			d.lastMask.Data[i] = scale
			out.Data[i] = v * scale
		} else {
			d.lastMask.Data[i], out.Data[i] = 0, 0
		}
	}
	return out
}

// Backward implements Layer.
func (d *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.lastMask == nil {
		return grad
	}
	dx := d.dx.get(grad.Shape()...)
	for i, m := range d.lastMask.Data {
		dx.Data[i] = grad.Data[i] * m
	}
	return dx
}

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// Describe implements Layer.
func (d *Dropout) Describe(in []int) (LayerInfo, error) {
	return LayerInfo{OutShape: append([]int(nil), in...), ActivationFloats: shapeProduct(in)}, nil
}
