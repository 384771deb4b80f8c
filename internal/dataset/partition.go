package dataset

import (
	"fmt"

	"tinymlops/internal/tensor"
)

// PartitionIID shuffles the dataset and deals examples round-robin into k
// equally sized client shards, returning index lists.
func PartitionIID(rng *tensor.RNG, ds *Dataset, k int) [][]int {
	if k < 1 || k > ds.Len() {
		panic(fmt.Sprintf("dataset: PartitionIID k=%d invalid for %d examples", k, ds.Len()))
	}
	perm := rng.Perm(ds.Len())
	shards := make([][]int, k)
	for i, idx := range perm {
		shards[i%k] = append(shards[i%k], idx)
	}
	return shards
}

// PartitionDirichlet splits the dataset into k client shards with label
// skew controlled by alpha: for each class, the class's examples are
// distributed over clients according to a Dirichlet(alpha,...,alpha) draw.
// Small alpha (e.g. 0.1) yields pathological non-IID shards where most
// clients see only one or two classes; large alpha approaches IID. This is
// the standard benchmark protocol for federated learning on non-IID data
// (§III-D).
func PartitionDirichlet(rng *tensor.RNG, ds *Dataset, k int, alpha float64) [][]int {
	if k < 1 {
		panic(fmt.Sprintf("dataset: PartitionDirichlet k=%d invalid", k))
	}
	if alpha <= 0 {
		panic(fmt.Sprintf("dataset: PartitionDirichlet alpha=%v must be positive", alpha))
	}
	byClass := make([][]int, ds.NumClasses)
	for i, y := range ds.Y {
		byClass[y] = append(byClass[y], i)
	}
	shards := make([][]int, k)
	for _, idxs := range byClass {
		if len(idxs) == 0 {
			continue
		}
		rng.Shuffle(len(idxs), func(i, j int) { idxs[i], idxs[j] = idxs[j], idxs[i] })
		props := rng.Dirichlet(alpha, k)
		// Convert proportions to contiguous cut points.
		start := 0
		for c := 0; c < k; c++ {
			take := int(props[c] * float64(len(idxs)))
			if c == k-1 {
				take = len(idxs) - start
			}
			if start+take > len(idxs) {
				take = len(idxs) - start
			}
			shards[c] = append(shards[c], idxs[start:start+take]...)
			start += take
		}
	}
	return shards
}

// LabelSkew quantifies how non-IID a partition is: it returns the mean
// total-variation distance between each shard's label distribution and the
// global label distribution (0 = perfectly IID, →1 = disjoint).
func LabelSkew(ds *Dataset, shards [][]int) float64 {
	global := make([]float64, ds.NumClasses)
	for _, y := range ds.Y {
		global[y]++
	}
	for c := range global {
		global[c] /= float64(len(ds.Y))
	}
	var total float64
	counted := 0
	for _, shard := range shards {
		if len(shard) == 0 {
			continue
		}
		local := make([]float64, ds.NumClasses)
		for _, i := range shard {
			local[ds.Y[i]]++
		}
		var tv float64
		for c := range local {
			local[c] /= float64(len(shard))
			d := local[c] - global[c]
			if d < 0 {
				d = -d
			}
			tv += d
		}
		total += tv / 2
		counted++
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}
