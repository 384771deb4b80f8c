package fed

import (
	"fmt"

	"tinymlops/internal/dataset"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// Personalize fine-tunes in batches of personalBatch examples at learning
// rate personalLR, with the first frozenLayers layers' parameters excluded
// from updates — the classic "shared feature extractor, personal head"
// split.
const (
	frozenLayers          = 2
	personalBatch         = 16
	personalLR    float32 = 0.05
)

// PersonalizeConfig controls local fine-tuning of a global model.
type PersonalizeConfig struct {
	Epochs int
	RNG    *tensor.RNG
}

// Personalize clones the global model and fine-tunes it on a client's
// private data, freezing the first frozenLayers layers. This is §III-D's
// "specialized models overfitted to a specific user or location".
func Personalize(global *nn.Network, data *dataset.Dataset, cfg PersonalizeConfig) (*nn.Network, error) {
	if global == nil {
		return nil, fmt.Errorf("fed: Personalize needs a global model")
	}
	if data == nil || data.X == nil || data.Len() == 0 {
		return nil, fmt.Errorf("fed: Personalize needs non-empty local data")
	}
	if cfg.RNG == nil {
		return nil, fmt.Errorf("fed: PersonalizeConfig.RNG is required")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 3
	}
	local := global.Clone()
	layers := local.Layers()
	if len(layers) < frozenLayers {
		return nil, fmt.Errorf("fed: Personalize freezes %d layers, the model has %d", frozenLayers, len(layers))
	}
	frozen := make(map[*nn.Param]bool)
	for _, l := range layers[:frozenLayers] {
		for _, p := range l.Params() {
			frozen[p] = true
		}
	}
	tc := nn.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: personalBatch,
		Optimizer: nn.NewSGD(personalLR),
		RNG:       cfg.RNG,
		ExtraGrad: func(net *nn.Network) {
			for _, p := range net.Params() {
				if frozen[p] {
					p.Grad.Zero()
				}
			}
		},
	}
	if _, err := nn.Train(local, data.X, data.Y, tc); err != nil {
		return nil, err
	}
	return local, nil
}

// PseudoLabel runs the model over unlabeled inputs and returns the indices
// and predicted labels of the examples whose top softmax probability
// exceeds threshold — the semi-supervised device-side labeling of §III-D
// ("the data remains completely unlabeled").
func PseudoLabel(model *nn.Network, x *tensor.Tensor, threshold float32) (idx []int, labels []int) {
	if x == nil || x.Size() == 0 || x.Dim(0) == 0 {
		return nil, nil
	}
	probs := nn.SoftmaxRows(model.Predict(x))
	rows, cols := probs.Dim(0), probs.Dim(1)
	for i := 0; i < rows; i++ {
		best, bi := probs.At2(i, 0), 0
		for j := 1; j < cols; j++ {
			if p := probs.At2(i, j); p > best {
				best, bi = p, j
			}
		}
		if best >= threshold {
			idx = append(idx, i)
			labels = append(labels, bi)
		}
	}
	return idx, labels
}

// SemiSupervisedRound lets a client with unlabeled data contribute: it
// pseudo-labels its shard with the global model, keeps confident examples
// and fine-tunes on them. It returns the refined local model and how many
// examples were used.
func SemiSupervisedRound(global *nn.Network, unlabeled *tensor.Tensor, threshold float32, cfg PersonalizeConfig) (*nn.Network, int, error) {
	idx, labels := PseudoLabel(global, unlabeled, threshold)
	if len(idx) == 0 {
		return global.Clone(), 0, nil
	}
	es := unlabeled.Size() / unlabeled.Dim(0)
	shape := append([]int{len(idx)}, unlabeled.Shape()[1:]...)
	x := tensor.New(shape...)
	for i, src := range idx {
		copy(x.Data[i*es:(i+1)*es], unlabeled.Data[src*es:(src+1)*es])
	}
	ds := &dataset.Dataset{Name: "pseudo", X: x, Y: labels, NumClasses: outputClasses(global)}
	local, err := Personalize(global, ds, cfg)
	if err != nil {
		return nil, 0, err
	}
	return local, len(idx), nil
}

func outputClasses(net *nn.Network) int {
	shape := net.OutputShape()
	return shape[len(shape)-1]
}
