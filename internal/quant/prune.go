package quant

import (
	"fmt"
	"sort"

	"tinymlops/internal/nn"
)

// MagnitudePrune zeroes the fraction of weight entries with the smallest
// absolute value, computed globally across all dense and convolutional
// weight matrices (biases are never pruned). It modifies net in place and
// returns the achieved sparsity (fraction of zeroed weight entries).
//
// Pruning is one of the §II efficiency techniques; E8 uses it as the
// distortion that attacks watermarks.
func MagnitudePrune(net *nn.Network, fraction float64) (float64, error) {
	if fraction < 0 || fraction >= 1 {
		return 0, fmt.Errorf("quant: prune fraction %v out of [0,1)", fraction)
	}
	var weights []*nn.Param
	total := 0
	for _, l := range net.Layers() {
		for _, p := range l.Params() {
			if p.Name == "weight" {
				weights = append(weights, p)
				total += p.Value.Size()
			}
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("quant: network has no weight matrices to prune")
	}
	if fraction == 0 {
		return currentSparsity(weights, total), nil
	}
	mags := make([]float32, 0, total)
	for _, p := range weights {
		for _, v := range p.Value.Data {
			if v < 0 {
				v = -v
			}
			mags = append(mags, v)
		}
	}
	sort.Slice(mags, func(i, j int) bool { return mags[i] < mags[j] })
	cut := mags[int(float64(total)*fraction)]
	zeroed := 0
	for _, p := range weights {
		for i, v := range p.Value.Data {
			a := v
			if a < 0 {
				a = -a
			}
			if a <= cut {
				p.Value.Data[i] = 0
			}
			if p.Value.Data[i] == 0 {
				zeroed++
			}
		}
	}
	return float64(zeroed) / float64(total), nil
}

func currentSparsity(weights []*nn.Param, total int) float64 {
	zeroed := 0
	for _, p := range weights {
		zeroed += p.Value.Size() - p.Value.CountNonZero()
	}
	return float64(zeroed) / float64(total)
}
