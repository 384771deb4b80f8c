package nn

import (
	"fmt"
	"math"

	"tinymlops/internal/tensor"
)

// softmaxCrossEntropy returns the mean cross-entropy of logits against
// integer labels and writes its gradient w.r.t. the logits into grad, by
// way of the probabilities. Fusing softmax with the loss keeps it
// numerically stable and makes the gradient the simple (p - onehot)/batch.
func softmaxCrossEntropy(grad, logits *tensor.Tensor, labels []int) float32 {
	b, c := logits.Dim(0), logits.Dim(1)
	if len(labels) != b {
		panic(fmt.Sprintf("nn: softmaxCrossEntropy got %d labels for batch %d", len(labels), b))
	}
	softmaxRowsInto(grad, logits)
	var loss float64
	for i, y := range labels {
		if y < 0 || y >= c {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, c))
		}
		p := float64(grad.At2(i, y))
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		grad.Set2(i, y, grad.At2(i, y)-1)
	}
	grad.Scale(1 / float32(b))
	return float32(loss / float64(b))
}
