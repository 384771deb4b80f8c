package nn

import (
	"fmt"
	"math"

	"tinymlops/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy of logits against
// integer labels, together with the gradient w.r.t. the logits. Fusing
// softmax with the loss keeps the computation numerically stable and makes
// the gradient the simple (p - onehot)/batch form.
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float32, *tensor.Tensor) {
	b, c := logits.Dim(0), logits.Dim(1)
	if len(labels) != b {
		panic(fmt.Sprintf("nn: SoftmaxCrossEntropy got %d labels for batch %d", len(labels), b))
	}
	probs := SoftmaxRows(logits)
	grad := probs.Clone()
	var loss float64
	for i, y := range labels {
		if y < 0 || y >= c {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, c))
		}
		p := float64(probs.At2(i, y))
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		grad.Set2(i, y, grad.At2(i, y)-1)
	}
	grad.Scale(1 / float32(b))
	return float32(loss / float64(b)), grad
}
