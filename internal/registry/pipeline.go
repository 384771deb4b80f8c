package registry

import (
	"fmt"

	"tinymlops/internal/nn"
	"tinymlops/internal/quant"
)

// OptimizationSpec configures the automatic variant-generation pipeline:
// for every scheme (and optionally every prune level) a derived version is
// registered under the base model. Evaluate scores each candidate so the
// registry records deployable accuracy alongside size and MACs.
type OptimizationSpec struct {
	// Schemes to derive (Float32 entries are skipped; the base is already
	// the float artifact).
	Schemes []quant.Scheme
	// PruneFractions to apply before quantization (0 entries mean dense).
	// The cross product Schemes × PruneFractions is generated.
	PruneFractions []float64
	// Evaluate returns validation accuracy of a candidate network.
	Evaluate func(*nn.Network) float64
}

// RegisterWithVariants registers net as a new base version of name and
// immediately runs the optimization pipeline, registering one variant per
// (scheme, prune) combination. This is the §III-A requirement that
// retraining the base automatically re-derives every deployment variant.
// It returns the base version followed by the variants in generation order.
func (r *Registry) RegisterWithVariants(name string, net *nn.Network, baseAccuracy float64, spec OptimizationSpec) ([]*ModelVersion, error) {
	if spec.Evaluate == nil {
		return nil, fmt.Errorf("registry: OptimizationSpec.Evaluate is required")
	}
	base, err := r.RegisterModel(name, net, baseAccuracy)
	if err != nil {
		return nil, err
	}
	out := []*ModelVersion{base}
	prunes := spec.PruneFractions
	if len(prunes) == 0 {
		prunes = []float64{0}
	}
	for _, frac := range prunes {
		for _, scheme := range spec.Schemes {
			if scheme == quant.Float32 && frac == 0 {
				continue // identical to the base artifact
			}
			// Clone only to prune: FakeQuantizeNetwork returns a copy of
			// its own, which is the candidate.
			candidate := net
			if frac > 0 {
				candidate = net.Clone()
				if _, err := quant.MagnitudePrune(candidate, frac); err != nil {
					return nil, fmt.Errorf("registry: prune %v: %w", frac, err)
				}
			}
			if scheme != quant.Float32 {
				candidate, err = quant.FakeQuantizeNetwork(candidate, scheme)
				if err != nil {
					return nil, fmt.Errorf("registry: quantize %v: %w", scheme, err)
				}
			}
			acc := spec.Evaluate(candidate)
			v, err := r.RegisterVariant(base.ID, candidate, scheme, frac, acc)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
	}
	return out, nil
}
