package ipprot

import (
	"math"
)

// PRADA-style stealing-query detection (Juuti et al.): benign clients'
// queries arrive i.i.d. from a natural distribution, so the minimum
// distance of each new query to the previously seen set is approximately
// normally distributed. Extraction attacks synthesize queries by
// perturbing previous ones (line searches, JSMA-style steps), which makes
// those minimum distances collapse toward the perturbation radius and
// destroys normality. The detector tracks the min-distance sample and
// flags when a D'Agostino K² normality statistic exceeds a threshold.

// QueryDetector watches a stream of query feature vectors.
type QueryDetector struct {
	queries  [][]float32
	next     int
	minDists []float64
	seen     int
	exceeds  int
	score    float64
	flagged  bool
}

// detectWarmup is the number of stored queries required before min-
// distances are recorded: with a tiny reference set, nearest-neighbour
// distances are wildly dispersed even for benign traffic.
const detectWarmup = 96

// detectConfirm is the number of consecutive exceedances required to
// latch, controlling the repeated-testing false-positive rate.
const detectConfirm = 2

// detectWindow is the number of recent min-distances tested, and
// detectStored bounds the reference set (a ring buffer of recent queries).
const (
	detectWindow = 64
	detectStored = 512
)

// detectThreshold is the K² statistic above which the stream is flagged.
// K² is ~χ²₂ under normality, but natural min-distance samples are only
// approximately normal (they are mildly skewed), so the textbook p<0.001
// level of 13.8 over-fires; perturbation attackers produce near-constant
// min-distances whose K² is orders of magnitude above any natural stream,
// so a loose threshold loses no attack sensitivity.
const detectThreshold = 35

// NewQueryDetector returns a detector with an empty reference set.
func NewQueryDetector() *QueryDetector { return &QueryDetector{} }

// Observe consumes one query.
func (d *QueryDetector) Observe(x []float32) {
	if len(d.queries) >= detectWarmup {
		min := math.Inf(1)
		for _, q := range d.queries {
			dist := l2(q, x)
			if dist < min {
				min = dist
			}
		}
		d.minDists = append(d.minDists, min)
		if len(d.minDists) > detectWindow {
			d.minDists = d.minDists[len(d.minDists)-detectWindow:]
		}
		d.seen++
		// Test on spaced windows and require consecutive exceedances —
		// testing every sample would be a repeated test with an inflated
		// false-positive rate.
		if len(d.minDists) == detectWindow && d.seen%(detectWindow/2) == 0 {
			d.score = dagostinoK2(d.minDists)
			if d.score > detectThreshold {
				d.exceeds++
				if d.exceeds >= detectConfirm {
					d.flagged = true
				}
			} else {
				d.exceeds = 0
			}
		}
	}
	cp := append([]float32(nil), x...)
	if len(d.queries) < detectStored {
		d.queries = append(d.queries, cp)
	} else {
		d.queries[d.next] = cp
		d.next = (d.next + 1) % detectStored
	}
}

// Flagged reports whether the stream has been identified as an extraction
// attack.
func (d *QueryDetector) Flagged() bool { return d.flagged }

// Score returns the current K² statistic.
func (d *QueryDetector) Score() float64 { return d.score }

// Reset clears all state.
func (d *QueryDetector) Reset() {
	d.queries, d.minDists = nil, nil
	d.next, d.seen, d.exceeds = 0, 0, 0
	d.score, d.flagged = 0, false
}

func l2(a, b []float32) float64 {
	var s float64
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		dd := float64(a[i] - b[i])
		s += dd * dd
	}
	return math.Sqrt(s)
}

// dagostinoK2 computes D'Agostino's K² omnibus normality statistic
// (skewness and kurtosis z-scores squared and summed; ~χ²₂ under the
// normal null).
func dagostinoK2(xs []float64) float64 {
	n := float64(len(xs))
	if n < 20 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= n
	var m2, m3, m4 float64
	for _, x := range xs {
		d := x - mean
		m2 += d * d
		m3 += d * d * d
		m4 += d * d * d * d
	}
	m2 /= n
	m3 /= n
	m4 /= n
	if m2 <= 1e-18 {
		// Degenerate (all distances identical) — maximally non-normal,
		// exactly the signature of a fixed-step perturbation attacker.
		return math.Inf(1)
	}
	g1 := m3 / math.Pow(m2, 1.5)
	g2 := m4/(m2*m2) - 3

	// Skewness z (D'Agostino 1970).
	y := g1 * math.Sqrt((n+1)*(n+3)/(6*(n-2)))
	b2 := 3 * (n*n + 27*n - 70) * (n + 1) * (n + 3) / ((n - 2) * (n + 5) * (n + 7) * (n + 9))
	wSq := -1 + math.Sqrt(2*(b2-1))
	delta := 1 / math.Sqrt(math.Log(math.Sqrt(wSq)))
	alpha := math.Sqrt(2 / (wSq - 1))
	if y == 0 {
		y = 1e-12
	}
	zSkew := delta * math.Log(y/alpha+math.Sqrt((y/alpha)*(y/alpha)+1))

	// Kurtosis z (Anscombe & Glynn 1983).
	meanB2 := 3 * (n - 1) / (n + 1)
	varB2 := 24 * n * (n - 2) * (n - 3) / ((n + 1) * (n + 1) * (n + 3) * (n + 5))
	xk := (g2 + 3 - meanB2) / math.Sqrt(varB2)
	beta := 6 * (n*n - 5*n + 2) / ((n + 7) * (n + 9)) * math.Sqrt(6*(n+3)*(n+5)/(n*(n-2)*(n-3)))
	a := 6 + 8/beta*(2/beta+math.Sqrt(1+4/(beta*beta)))
	t := (1 - 2/(9*a))
	u := (1 - 2/a) / (1 + xk*math.Sqrt(2/(a-4)))
	if u <= 0 {
		u = 1e-12
	}
	zKurt := (t - math.Cbrt(u)) / math.Sqrt(2/(9*a))

	return zSkew*zSkew + zKurt*zKurt
}
