package tensor

import "math"

// The activation kernels nn's layers and procvm's opcodes both run, so the
// model path computes exp and tanh here alone. Each writes dst[i] from x[i]
// (a softmax row from its row), so dst may be x. The file sorts after the
// matmul files, so nothing here moves their text (ARCHITECTURE.md,
// "Editing tensor").

// ReLU writes max(0, x) into dst; NaN and -0 give 0.
func ReLU(dst, x []float32) {
	for i, v := range x {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// Sigmoid writes the logistic 1/(1+e^-x) into dst, evaluated in float64.
func Sigmoid(dst, x []float32) {
	for i, v := range x {
		dst[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
}

// Tanh writes the hyperbolic tangent of x into dst, evaluated in float64.
func Tanh(dst, x []float32) {
	for i, v := range x {
		dst[i] = float32(math.Tanh(float64(v)))
	}
}

// SoftmaxRows writes the softmax of each of rows cols-wide rows of x into
// dst, shifted by the row's maximum for stability and summed in float64.
// An empty row writes nothing.
func SoftmaxRows(dst, x []float32, rows, cols int) {
	for r := 0; r < rows; r++ {
		row, o := x[r*cols:(r+1)*cols], dst[r*cols:(r+1)*cols]
		var m float32
		if cols > 0 {
			m = row[0]
		}
		for _, v := range row {
			if v > m {
				m = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - m))
			o[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range o {
			o[j] *= inv
		}
	}
}
