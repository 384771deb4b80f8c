package observe

import (
	"fmt"
	"math"
	"sort"
)

// Welford tracks running mean and variance in O(1) memory using Welford's
// online algorithm.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the statistics.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += float64(d * (x - w.mean))
}

// N returns the observation count.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance.
func (w *Welford) Variance() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation (0 before any Add).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 before any Add).
func (w *Welford) Max() float64 { return w.max }

// Reset clears the statistics.
func (w *Welford) Reset() { *w = Welford{} }

// Histogram is a fixed-range, fixed-bin-count histogram with underflow and
// overflow buckets — the constant-memory sketch of an input feature's
// distribution that PSI consumes.
type Histogram struct {
	Lo, Hi float64
	Counts []int64
	Under  int64
	Over   int64
	total  int64
}

// NewHistogram returns a histogram over [lo, hi) with bins buckets.
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins < 1 {
		return nil, fmt.Errorf("observe: histogram needs >= 1 bin, got %d", bins)
	}
	if !(lo < hi) {
		return nil, fmt.Errorf("observe: histogram range [%v,%v) invalid", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, bins)}, nil
}

// Add counts one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i == len(h.Counts) { // x == Hi-ε rounding guard
			i--
		}
		h.Counts[i]++
	}
}

// Proportions returns the fraction of mass per bin, including the under
// and overflow buckets as the first and last entries.
func (h *Histogram) Proportions() []float64 {
	out := make([]float64, len(h.Counts)+2)
	if h.total == 0 {
		return out
	}
	out[0] = float64(h.Under) / float64(h.total)
	for i, c := range h.Counts {
		out[i+1] = float64(c) / float64(h.total)
	}
	out[len(out)-1] = float64(h.Over) / float64(h.total)
	return out
}

// Reset clears all counts, keeping the binning.
func (h *Histogram) Reset() {
	for i := range h.Counts {
		h.Counts[i] = 0
	}
	h.Under, h.Over, h.total = 0, 0, 0
}

// SlidingWindow keeps the last k observations in a ring buffer; the KS
// detector compares its contents against the reference sample.
type SlidingWindow struct {
	buf  []float64
	next int
	full bool
}

// NewSlidingWindow returns a window of capacity k.
func NewSlidingWindow(k int) *SlidingWindow {
	if k < 1 {
		k = 1
	}
	return &SlidingWindow{buf: make([]float64, k)}
}

// Add appends an observation, evicting the oldest when full.
func (s *SlidingWindow) Add(x float64) {
	s.buf[s.next] = x
	s.next++
	if s.next == len(s.buf) {
		s.next = 0
		s.full = true
	}
}

// Full reports whether the window has reached capacity.
func (s *SlidingWindow) Full() bool { return s.full }

// Len returns the number of stored observations.
func (s *SlidingWindow) Len() int {
	if s.full {
		return len(s.buf)
	}
	return s.next
}

// Values returns a copy of the stored observations (order unspecified).
func (s *SlidingWindow) Values() []float64 {
	out := make([]float64, s.Len())
	copy(out, s.buf[:s.Len()])
	return out
}

// ksStatistic returns the two-sample Kolmogorov–Smirnov statistic
// D = sup |F_a - F_b| for samples a and b (both are sorted in place).
func ksStatistic(a, b []float64) float64 {
	sort.Float64s(a)
	sort.Float64s(b)
	var d float64
	i, j := 0, 0
	na, nb := float64(len(a)), float64(len(b))
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			i++
		} else {
			j++
		}
		diff := math.Abs(float64(i)/na - float64(j)/nb)
		if diff > d {
			d = diff
		}
	}
	return d
}

// psi computes the Population Stability Index between two proportion
// vectors with ε-smoothing: Σ (p-q)·ln(p/q).
func psi(p, q []float64) float64 {
	const eps = 1e-4
	var s float64
	for i := range p {
		pi, qi := p[i]+eps, q[i]+eps
		s += (pi - qi) * math.Log(pi/qi)
	}
	return s
}
