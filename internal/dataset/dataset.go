package dataset

import (
	"fmt"
	"math"

	"tinymlops/internal/tensor"
)

// Dataset is a labeled collection of fixed-shape examples.
type Dataset struct {
	// Name identifies the generator and parameters, for reports.
	Name string
	// X is [n, features...].
	X *tensor.Tensor
	// Y holds the integer class label of each example.
	Y []int
	// NumClasses is the number of distinct labels.
	NumClasses int
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return d.X.Dim(0) }

// ExampleShape returns the per-example feature shape.
func (d *Dataset) ExampleShape() []int { return d.X.Shape()[1:] }

// exampleSize returns the flattened feature count per example.
func (d *Dataset) exampleSize() int {
	if d.Len() == 0 {
		return 0
	}
	return d.X.Size() / d.Len()
}

// Subset returns a new dataset with copies of the selected examples.
func (d *Dataset) Subset(idx []int) *Dataset {
	es := d.exampleSize()
	shape := append([]int{len(idx)}, d.ExampleShape()...)
	x := tensor.New(shape...)
	y := make([]int, len(idx))
	for i, src := range idx {
		if src < 0 || src >= d.Len() {
			panic(fmt.Sprintf("dataset: Subset index %d out of range [0,%d)", src, d.Len()))
		}
		copy(x.Data[i*es:(i+1)*es], d.X.Data[src*es:(src+1)*es])
		y[i] = d.Y[src]
	}
	return &Dataset{Name: d.Name, X: x, Y: y, NumClasses: d.NumClasses}
}

// Split shuffles with rng and splits into train and test parts, with
// trainFrac of the examples in the train part.
func (d *Dataset) Split(trainFrac float64, rng *tensor.RNG) (train, test *Dataset) {
	if trainFrac <= 0 || trainFrac >= 1 {
		panic(fmt.Sprintf("dataset: trainFrac %v out of (0,1)", trainFrac))
	}
	perm := rng.Perm(d.Len())
	cut := int(float64(d.Len()) * trainFrac)
	return d.Subset(perm[:cut]), d.Subset(perm[cut:])
}

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	return d.Subset(idx)
}

// Standardize shifts and scales every feature to zero mean and unit
// variance computed over this dataset, returning the per-feature means and
// standard deviations so the same transform can be packaged as a
// preprocessing module and applied at the edge.
func (d *Dataset) Standardize() (means, stds []float32) {
	es := d.exampleSize()
	n := d.Len()
	means = make([]float32, es)
	stds = make([]float32, es)
	for f := 0; f < es; f++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(d.X.Data[i*es+f])
		}
		mean := sum / float64(n)
		var varSum float64
		for i := 0; i < n; i++ {
			dv := float64(d.X.Data[i*es+f]) - mean
			varSum += dv * dv
		}
		std := varSum / float64(n)
		if std < 1e-12 {
			std = 1
		} else {
			std = math.Sqrt(std)
		}
		means[f] = float32(mean)
		stds[f] = float32(std)
		inv := float32(1 / std)
		for i := 0; i < n; i++ {
			d.X.Data[i*es+f] = (d.X.Data[i*es+f] - float32(mean)) * inv
		}
	}
	return means, stds
}
