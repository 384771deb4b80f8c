package observe

import (
	"fmt"
	"math"
)

// Detector is a streaming drift detector over one scalar signal. Observe
// feeds one value; Drifted latches once the detector fires (Reset clears
// it).
type Detector interface {
	// Name identifies the detector family ("ks", "psi", "cusum").
	Name() string
	// Observe consumes one value.
	Observe(x float64)
	// Drifted reports whether drift has been detected.
	Drifted() bool
	// Score returns the current test statistic (scale depends on Name).
	Score() float64
	// Reset clears detection state but keeps the reference calibration.
	Reset()
}

// KSDetector compares a sliding window of recent values against a fixed
// reference sample with the two-sample Kolmogorov–Smirnov test. It is the
// assumption-free (but least sample-efficient) detector.
type KSDetector struct {
	ref      []float64
	window   *SlidingWindow
	critical float64
	every    int
	seen     int
	score    float64
	exceeds  int
	drifted  bool
}

// ksConfirm is the number of consecutive test exceedances required before
// the alarm latches. Re-testing a sliding window every window/2 samples is
// a repeated test, which inflates the single-test false-positive rate; two
// consecutive exceedances restore it to roughly alpha² per pair while
// adding at most half a window of detection delay.
const ksConfirm = 2

// NewKSDetector builds a KS detector from a reference sample. window sets
// the size of the comparison window, alpha the significance level (0.05 or
// 0.01). The test reruns every window/2 observations and requires two
// consecutive exceedances to latch (see ksConfirm).
func NewKSDetector(reference []float64, window int, alpha float64) (*KSDetector, error) {
	if len(reference) < 8 {
		return nil, fmt.Errorf("observe: KS reference needs >= 8 samples, got %d", len(reference))
	}
	if window < 8 {
		return nil, fmt.Errorf("observe: KS window %d too small", window)
	}
	var c float64
	switch {
	case alpha <= 0.01:
		c = 1.63
	case alpha <= 0.05:
		c = 1.36
	default:
		c = 1.22 // alpha ≈ 0.10
	}
	n, m := float64(len(reference)), float64(window)
	return &KSDetector{
		ref:      append([]float64(nil), reference...),
		window:   NewSlidingWindow(window),
		critical: c * math.Sqrt((n+m)/(n*m)),
		every:    window / 2,
	}, nil
}

// Name implements Detector.
func (k *KSDetector) Name() string { return "ks" }

// Observe implements Detector.
func (k *KSDetector) Observe(x float64) {
	k.window.Add(x)
	k.seen++
	if !k.window.Full() || k.seen%k.every != 0 {
		return
	}
	refCopy := append([]float64(nil), k.ref...)
	k.score = ksStatistic(refCopy, k.window.Values())
	if k.score > k.critical {
		k.exceeds++
		if k.exceeds >= ksConfirm {
			k.drifted = true
		}
	} else {
		k.exceeds = 0
	}
}

// Drifted implements Detector.
func (k *KSDetector) Drifted() bool { return k.drifted }

// Score implements Detector.
func (k *KSDetector) Score() float64 { return k.score }

// Reset implements Detector.
func (k *KSDetector) Reset() {
	k.window = NewSlidingWindow(len(k.window.buf))
	k.seen, k.score, k.exceeds, k.drifted = 0, 0, 0, false
}

// PSIDetector bins recent values into the reference histogram's buckets
// and alarms when the Population Stability Index against the reference
// proportions exceeds a threshold (industry rule of thumb: 0.1 = drifting,
// 0.25 = severe).
type PSIDetector struct {
	refProps  []float64
	hist      *Histogram
	window    int
	threshold float64
	seen      int
	score     float64
	drifted   bool
}

// NewPSIDetector calibrates a PSI detector from a reference sample. bins
// controls histogram resolution, window how many recent samples form the
// comparison distribution, threshold the alarm level (e.g. 0.25).
func NewPSIDetector(reference []float64, bins, window int, threshold float64) (*PSIDetector, error) {
	if len(reference) < bins*4 {
		return nil, fmt.Errorf("observe: PSI reference of %d too small for %d bins", len(reference), bins)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range reference {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	// Widen by 10% so in-distribution values rarely land in under/overflow.
	refHist, err := NewHistogram(lo-0.1*span, hi+0.1*span, bins)
	if err != nil {
		return nil, err
	}
	for _, v := range reference {
		refHist.Add(v)
	}
	liveHist, _ := NewHistogram(refHist.Lo, refHist.Hi, bins)
	return &PSIDetector{
		refProps:  refHist.Proportions(),
		hist:      liveHist,
		window:    window,
		threshold: threshold,
	}, nil
}

// Name implements Detector.
func (p *PSIDetector) Name() string { return "psi" }

// Observe implements Detector.
func (p *PSIDetector) Observe(x float64) {
	p.hist.Add(x)
	p.seen++
	if p.seen%p.window != 0 {
		return
	}
	p.score = psi(p.hist.Proportions(), p.refProps)
	if p.score > p.threshold {
		p.drifted = true
	}
	p.hist.Reset()
}

// Drifted implements Detector.
func (p *PSIDetector) Drifted() bool { return p.drifted }

// Score implements Detector.
func (p *PSIDetector) Score() float64 { return p.score }

// Reset implements Detector.
func (p *PSIDetector) Reset() {
	p.hist.Reset()
	p.seen, p.score, p.drifted = 0, 0, false
}

// CUSUMDetector is a two-sided cumulative-sum change detector on the
// standardized signal: S⁺ accumulates positive deviations beyond a
// tolerance k, S⁻ negative ones; either exceeding h raises the alarm.
// It is the cheapest detector (two floats of state) and the fastest to
// react to a persistent mean shift.
type CUSUMDetector struct {
	mean, std float64
	k, h      float64
	sPos      float64
	sNeg      float64
	drifted   bool
}

// NewCUSUMDetector calibrates a CUSUM detector to a reference mean and
// standard deviation, with tolerance k (in σ units, typically 0.5) and
// alarm threshold h (typically 5).
func NewCUSUMDetector(mean, std, k, h float64) (*CUSUMDetector, error) {
	if std <= 0 {
		return nil, fmt.Errorf("observe: CUSUM std must be positive, got %v", std)
	}
	if k < 0 || h <= 0 {
		return nil, fmt.Errorf("observe: CUSUM k=%v h=%v invalid", k, h)
	}
	return &CUSUMDetector{mean: mean, std: std, k: k, h: h}, nil
}

// Name implements Detector.
func (c *CUSUMDetector) Name() string { return "cusum" }

// Observe implements Detector.
func (c *CUSUMDetector) Observe(x float64) {
	z := (x - c.mean) / c.std
	c.sPos = math.Max(0, c.sPos+z-c.k)
	c.sNeg = math.Max(0, c.sNeg-z-c.k)
	if c.sPos > c.h || c.sNeg > c.h {
		c.drifted = true
	}
}

// Drifted implements Detector.
func (c *CUSUMDetector) Drifted() bool { return c.drifted }

// Score implements Detector.
func (c *CUSUMDetector) Score() float64 { return math.Max(c.sPos, c.sNeg) }

// Reset implements Detector.
func (c *CUSUMDetector) Reset() {
	c.sPos, c.sNeg, c.drifted = 0, 0, false
}

// Monitor watches a multi-feature input stream with one detector per
// feature (built by the factory) and latches the first alarm. It is what
// a deployed pipeline instantiates next to the model.
type Monitor struct {
	detectors []Detector
	alarmTick int
	ticks     int
}

// NewMonitor builds a monitor over featureCount features. factory is
// called once per feature with that feature's reference sample.
func NewMonitor(reference [][]float64, factory func(ref []float64) (Detector, error)) (*Monitor, error) {
	if len(reference) == 0 {
		return nil, fmt.Errorf("observe: empty reference")
	}
	m := &Monitor{alarmTick: -1}
	for f, ref := range reference {
		d, err := factory(ref)
		if err != nil {
			return nil, fmt.Errorf("observe: feature %d: %w", f, err)
		}
		m.detectors = append(m.detectors, d)
	}
	return m, nil
}

// Observe consumes one example (length must equal the feature count).
func (m *Monitor) Observe(x []float32) {
	m.ticks++
	for f, d := range m.detectors {
		if f >= len(x) {
			break
		}
		d.Observe(float64(x[f]))
	}
	if m.alarmTick < 0 {
		for _, d := range m.detectors {
			if d.Drifted() {
				m.alarmTick = m.ticks
				break
			}
		}
	}
}

// Drifted reports whether any feature's detector has fired.
func (m *Monitor) Drifted() bool { return m.alarmTick >= 0 }

// MaxScore returns the largest current detector score.
func (m *Monitor) MaxScore() float64 {
	var s float64
	for _, d := range m.detectors {
		if v := d.Score(); v > s {
			s = v
		}
	}
	return s
}

// Reset clears all detectors and the alarm latch.
func (m *Monitor) Reset() {
	for _, d := range m.detectors {
		d.Reset()
	}
	m.alarmTick, m.ticks = -1, 0
}

// ColumnsOf transposes a row-major sample matrix into per-feature columns,
// the layout Monitor calibration consumes.
func ColumnsOf(rows [][]float32) [][]float64 {
	if len(rows) == 0 {
		return nil
	}
	f := len(rows[0])
	out := make([][]float64, f)
	for j := 0; j < f; j++ {
		col := make([]float64, len(rows))
		for i, r := range rows {
			col[i] = float64(r[j])
		}
		out[j] = col
	}
	return out
}
