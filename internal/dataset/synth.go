package dataset

import (
	"fmt"
	"math"

	"tinymlops/internal/tensor"
)

// Blobs generates n examples from classes Gaussian clusters in a
// features-dimensional space. Cluster centers are drawn once from rng at
// pairwise distance ≈ sep; points scatter around them with unit variance.
// It is the linearly separable baseline task used by the quickstart and the
// quantization sweeps.
func Blobs(rng *tensor.RNG, n, features, classes int, sep float32) *Dataset {
	if classes < 2 || features < 1 || n < classes {
		panic(fmt.Sprintf("dataset: Blobs(n=%d, features=%d, classes=%d) invalid", n, features, classes))
	}
	centers := tensor.New(classes, features)
	for c := 0; c < classes; c++ {
		for f := 0; f < features; f++ {
			centers.Set2(c, f, rng.NormFloat32()*sep)
		}
	}
	x := tensor.New(n, features)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % classes
		y[i] = c
		for f := 0; f < features; f++ {
			x.Set2(i, f, centers.At2(c, f)+rng.NormFloat32())
		}
	}
	return &Dataset{Name: fmt.Sprintf("blobs(d=%d,k=%d)", features, classes), X: x, Y: y, NumClasses: classes}
}

// Rings generates n examples on classes concentric 2D rings with radial
// noise — a task no linear model solves, exercising the nonlinear layers.
func Rings(rng *tensor.RNG, n, classes int, noise float32) *Dataset {
	if classes < 2 || n < classes {
		panic(fmt.Sprintf("dataset: Rings(n=%d, classes=%d) invalid", n, classes))
	}
	x := tensor.New(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % classes
		y[i] = c
		r := float64(c+1) + float64(rng.NormFloat32())*float64(noise)
		th := rng.Float64() * 2 * math.Pi
		x.Set2(i, 0, float32(r*math.Cos(th)))
		x.Set2(i, 1, float32(r*math.Sin(th)))
	}
	return &Dataset{Name: fmt.Sprintf("rings(k=%d)", classes), X: x, Y: y, NumClasses: classes}
}

// KeywordSeq generates keyword-spotting-like examples: length seqLen
// waveforms where each class is a characteristic pair of frequencies with
// random phase, amplitude jitter and additive noise. With perUserPitch > 0
// each call can emulate speaker variability by shifting the base pitch —
// the lever the federated personalization experiment pulls.
func KeywordSeq(rng *tensor.RNG, n, seqLen, classes int, noise, pitchShift float32) *Dataset {
	if classes < 2 || seqLen < 8 {
		panic(fmt.Sprintf("dataset: KeywordSeq(seqLen=%d, classes=%d) invalid", seqLen, classes))
	}
	x := tensor.New(n, seqLen)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % classes
		y[i] = c
		f1 := (1 + float64(c)) * (1 + float64(pitchShift))
		f2 := (1.5 + 0.5*float64(c)) * (1 + float64(pitchShift))
		phase := rng.Float64() * 2 * math.Pi
		amp := 0.8 + 0.4*rng.Float64()
		for tt := 0; tt < seqLen; tt++ {
			u := 2 * math.Pi * float64(tt) / float64(seqLen)
			v := amp * (math.Sin(f1*u+phase) + 0.5*math.Sin(f2*u))
			x.Set2(i, tt, float32(v)+rng.NormFloat32()*noise)
		}
	}
	return &Dataset{Name: fmt.Sprintf("keywords(k=%d,len=%d)", classes, seqLen), X: x, Y: y, NumClasses: classes}
}

// VibrationAnomaly generates machine-vibration windows for predictive
// maintenance: class 0 is healthy (a base rotation frequency with mild
// noise), class 1 is faulty (an added bearing-defect harmonic and impulse
// spikes). machineID perturbs the base frequency so each simulated machine
// has its own signature — the hook for the §III-D "overfit to a single
// machine" personalization claim.
func VibrationAnomaly(rng *tensor.RNG, n, window int, anomalyFrac float64, machineID int) *Dataset {
	if window < 16 {
		panic("dataset: VibrationAnomaly needs window >= 16")
	}
	x := tensor.New(n, window)
	y := make([]int, n)
	base := 3.0 + 0.35*float64(machineID%7)
	for i := 0; i < n; i++ {
		anomalous := rng.Float64() < anomalyFrac
		if anomalous {
			y[i] = 1
		}
		phase := rng.Float64() * 2 * math.Pi
		for tt := 0; tt < window; tt++ {
			u := 2 * math.Pi * float64(tt) / float64(window)
			v := math.Sin(base*u + phase)
			if anomalous {
				v += 0.8 * math.Sin(7.3*base*u+phase)
				if rng.Float64() < 0.08 {
					v += 2.5
				}
			}
			x.Set2(i, tt, float32(v)+rng.NormFloat32()*0.15)
		}
	}
	return &Dataset{Name: fmt.Sprintf("vibration(m=%d)", machineID), X: x, Y: y, NumClasses: 2}
}
