package fed

import (
	"fmt"

	"tinymlops/internal/nn"
	"tinymlops/internal/registry"
)

// PublishGlobal registers the coordinator's current global model as a new
// base version of the named model line — deriving the full variant matrix
// via the registry's optimization pipeline — and tags its provenance
// (source=federated, fed:rounds, and for a two-tier run fed:topology and
// fed:aggregators). The published base is a rollout candidate: a federated
// round feeds straight into a staged fleet update (§III-D closing into
// §III-A).
func (co *Coordinator) PublishGlobal(r *registry.Registry, name string, spec registry.OptimizationSpec) ([]*registry.ModelVersion, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if spec.Evaluate == nil {
		if co.testX == nil {
			return nil, fmt.Errorf("fed: publish needs spec.Evaluate or a coordinator test set")
		}
		spec.Evaluate = func(n *nn.Network) float64 { return nn.Evaluate(n, co.testX, co.testY) }
	}
	versions, err := r.RegisterWithVariants(name, co.Global, spec.Evaluate(co.Global), spec)
	if err != nil {
		return nil, err
	}
	tags := [][2]string{{"source", "federated"}, {"fed:rounds", fmt.Sprint(co.round)}}
	if co.Cohorts != nil {
		tags = append(tags, [2]string{"fed:topology", "hierarchical"}, [2]string{"fed:aggregators", fmt.Sprint(len(co.Cohorts))})
	}
	for _, t := range tags {
		if err := r.SetTag(versions[0].ID, t[0], t[1]); err != nil {
			return nil, err
		}
	}
	return versions, nil
}
