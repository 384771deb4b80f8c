package observe

import (
	"math"
	"testing"

	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/tensor"
)

func TestWelfordMatchesDirectComputation(t *testing.T) {
	rng := tensor.NewRNG(1)
	var w Welford
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 7
		w.Add(xs[i])
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var varSum float64
	for _, x := range xs {
		varSum += (x - mean) * (x - mean)
	}
	variance := varSum / float64(len(xs))
	if math.Abs(w.Mean()-mean) > 1e-9 {
		t.Fatalf("Welford mean %v vs %v", w.Mean(), mean)
	}
	if math.Abs(w.Variance()-variance) > 1e-9 {
		t.Fatalf("Welford variance %v vs %v", w.Variance(), variance)
	}
	if w.n != 1000 {
		t.Fatalf("n = %d", w.n)
	}
	w.Reset()
	if w.n != 0 || w.Mean() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestWelfordMax(t *testing.T) {
	var w Welford
	for _, v := range []float64{-3, -1, -7, -2} {
		w.Add(v)
	}
	if w.Max() != -1 {
		t.Fatalf("max = %v, want -1", w.Max())
	}
}

func TestHistogramBinning(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{-1, 0, 1.9, 2, 9.999, 10, 11} {
		h.Add(v)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Fatalf("under/over = %d/%d", h.Under, h.Over)
	}
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[4] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	props := h.Proportions()
	var s float64
	for _, p := range props {
		s += p
	}
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("proportions sum to %v", s)
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Fatal("accepted empty range")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Fatal("accepted zero bins")
	}
}

func TestSlidingWindowEviction(t *testing.T) {
	s := NewSlidingWindow(3)
	s.Add(1)
	s.Add(2)
	if s.Full() || s.Len() != 2 {
		t.Fatalf("premature full: len=%d", s.Len())
	}
	s.Add(3)
	s.Add(4) // evicts 1
	if !s.Full() || s.Len() != 3 {
		t.Fatal("window should be full at 3")
	}
	vals := s.Values()
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	if sum != 9 { // 2+3+4
		t.Fatalf("window contents = %v", vals)
	}
}

func refSample(rng *tensor.RNG, n int, mean, std float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()*std + mean
	}
	return out
}

func TestKSDetectorFiresOnShiftNotOnNull(t *testing.T) {
	rng := tensor.NewRNG(2)
	ref := refSample(rng, 500, 0, 1)
	det, err := NewKSDetector(ref, 100, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Null stream: same distribution — should not fire over 1000 samples.
	for i := 0; i < 1000; i++ {
		det.Observe(rng.NormFloat64())
	}
	if det.Drifted() {
		t.Fatalf("KS false positive on in-distribution stream (score %v > crit %v)", det.Score(), det.critical)
	}
	// Shifted stream: must fire.
	for i := 0; i < 500 && !det.Drifted(); i++ {
		det.Observe(rng.NormFloat64() + 2)
	}
	if !det.Drifted() {
		t.Fatal("KS missed a 2σ mean shift")
	}
	det.Reset()
	if det.Drifted() || det.Score() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestKSDetectorValidation(t *testing.T) {
	if _, err := NewKSDetector([]float64{1, 2}, 100, 0.05); err == nil {
		t.Fatal("accepted tiny reference")
	}
	if _, err := NewKSDetector(make([]float64, 100), 2, 0.05); err == nil {
		t.Fatal("accepted tiny window")
	}
}

func TestPSIDetectorFiresOnShiftNotOnNull(t *testing.T) {
	rng := tensor.NewRNG(3)
	ref := refSample(rng, 800, 5, 2)
	det, err := NewPSIDetector(ref, 10, 200, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1200; i++ {
		det.Observe(rng.NormFloat64()*2 + 5)
	}
	if det.Drifted() {
		t.Fatalf("PSI false positive (score %v)", det.Score())
	}
	for i := 0; i < 600 && !det.Drifted(); i++ {
		det.Observe(rng.NormFloat64()*2 + 11)
	}
	if !det.Drifted() {
		t.Fatal("PSI missed a 3σ shift")
	}
}

func TestCUSUMDetectsSmallPersistentShiftFast(t *testing.T) {
	rng := tensor.NewRNG(14)
	// h=10: the in-control average run length of a two-sided CUSUM at
	// (k=0.5, h=5) is only ≈900 samples, so a 2000-sample null stream
	// would be expected to false-alarm; h=10 pushes ARL₀ far beyond it
	// while keeping the detection delay for a 1.5σ shift near h/(δ−k)=10.
	det, err := NewCUSUMDetector(0, 1, 0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		det.Observe(rng.NormFloat64())
	}
	if det.Drifted() {
		t.Fatalf("CUSUM false positive (score %v)", det.Score())
	}
	// A persistent 1.5σ shift should fire within a few dozen samples.
	fired := -1
	for i := 0; i < 200; i++ {
		det.Observe(rng.NormFloat64() + 1.5)
		if det.Drifted() {
			fired = i
			break
		}
	}
	if fired < 0 {
		t.Fatal("CUSUM missed a persistent shift")
	}
	if fired > 50 {
		t.Fatalf("CUSUM too slow: fired after %d samples", fired)
	}
}

func TestCUSUMDetectsNegativeShift(t *testing.T) {
	det, _ := NewCUSUMDetector(0, 1, 0.5, 5)
	for i := 0; i < 100 && !det.Drifted(); i++ {
		det.Observe(-2)
	}
	if !det.Drifted() {
		t.Fatal("CUSUM missed a negative shift")
	}
}

func TestCUSUMValidation(t *testing.T) {
	if _, err := NewCUSUMDetector(0, 0, 0.5, 5); err == nil {
		t.Fatal("accepted zero std")
	}
	if _, err := NewCUSUMDetector(0, 1, 0.5, 0); err == nil {
		t.Fatal("accepted zero threshold")
	}
}

func TestMonitorOnDriftStream(t *testing.T) {
	rng := tensor.NewRNG(5)
	base := dataset.Blobs(rng, 2000, 4, 3, 3)
	// Calibrate on clean reference rows.
	refRows := make([][]float32, 500)
	for i := range refRows {
		row := make([]float32, 4)
		for f := 0; f < 4; f++ {
			row[f] = base.X.At2(i, f)
		}
		refRows[i] = row
	}
	cols := ColumnsOf(refRows)
	mon, err := NewMonitor(cols, func(ref []float64) (Detector, error) {
		return NewKSDetector(ref, 100, 0.01)
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := dataset.NewDriftStream(rng, base, 600, dataset.DriftMeanShift, 4)
	for i := 0; i < 1500 && !mon.Drifted(); i++ {
		x, _ := stream.Next()
		mon.Observe(x)
	}
	if !mon.Drifted() {
		t.Fatal("monitor missed injected drift")
	}
	if mon.alarmTick < 500 {
		t.Fatalf("monitor fired before onset: tick %d", mon.alarmTick)
	}
	mon.Reset()
	if mon.Drifted() || mon.alarmTick != -1 {
		t.Fatal("monitor Reset incomplete")
	}
}

func TestColumnsOf(t *testing.T) {
	cols := ColumnsOf([][]float32{{1, 2}, {3, 4}, {5, 6}})
	if len(cols) != 2 || cols[0][2] != 5 || cols[1][0] != 2 {
		t.Fatalf("ColumnsOf = %v", cols)
	}
	if ColumnsOf(nil) != nil {
		t.Fatal("ColumnsOf(nil) should be nil")
	}
}

// goldenRecord sets every field of the telemetry record.
func goldenRecord() *Record {
	return &Record{
		DeviceID: "m4-wearable-01", Window: 7, Inferences: 120, Denied: 3,
		MeanLatencyUS: 850.5, MaxLatencyUS: 2100, EnergyMJ: 12.5,
		FeatureMeans: []float32{0.1, -0.2}, FeatureStds: []float32{1.0, 0.9},
		DriftScore: 0.31, DriftAlarm: true,
	}
}

// TestUplinkBytesPinsTheRecordLayout holds the modelled uplink size of a
// record with every field set to 67 B: 37 fixed bytes, the 14-byte device ID
// and two features' mean and std at 4 B each.
func TestUplinkBytesPinsTheRecordLayout(t *testing.T) {
	if got := goldenRecord().UplinkBytes(); got != 67 {
		t.Fatalf("UplinkBytes = %d, want 67", got)
	}
}

func TestBufferStoreAndForward(t *testing.T) {
	caps, _ := device.ProfileByName("phone")
	d := device.NewDevice("p0", caps, tensor.NewRNG(6))
	buf := NewBuffer()
	buf.Add(Record{DeviceID: "p0", Inferences: 10})
	buf.Add(Record{DeviceID: "p0", Inferences: 20})
	// Offline: flush is a no-op.
	recs, n, err := buf.FlushIfWiFi(d)
	if err != nil || recs != nil || n != 0 {
		t.Fatalf("offline flush = %v, %d, %v", recs, n, err)
	}
	if len(buf.pending) != 2 {
		t.Fatalf("pending = %d", len(buf.pending))
	}
	// On WiFi: drains and uploads.
	d.SetBehavior(0, 1, 0)
	d.Tick()
	recs, n, err = buf.FlushIfWiFi(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || n <= 0 {
		t.Fatalf("flush = %d records, %d bytes", len(recs), n)
	}
	if len(buf.pending) != 0 {
		t.Fatal("buffer not drained")
	}
	if d.Snapshot().TxBytes != int64(n) {
		t.Fatalf("device tx = %d, want %d", d.Snapshot().TxBytes, n)
	}
}

func TestBufferCapEvictsOldest(t *testing.T) {
	buf := NewBuffer()
	for w := uint32(1); w <= bufferCap+1; w++ {
		buf.Add(Record{Window: w})
	}
	if len(buf.pending) != bufferCap || buf.dropped != 1 || buf.pending[0].Window != 2 {
		t.Fatalf("pending=%d dropped=%d oldest=%d", len(buf.pending), buf.dropped, buf.pending[0].Window)
	}
}

func TestAggregatorCohortsAndAnonymityFloor(t *testing.T) {
	agg := NewAggregator(3)
	for i := 0; i < 2; i++ {
		agg.Ingest("m4", Record{DeviceID: string(rune('a' + i)), Inferences: 100, MeanLatencyUS: 500})
	}
	if _, err := agg.Summarize("m4"); err == nil {
		t.Fatal("anonymity floor not enforced")
	}
	agg.Ingest("m4", Record{DeviceID: "c", Inferences: 50, MeanLatencyUS: 1000, DriftAlarm: true})
	s, err := agg.Summarize("m4")
	if err != nil {
		t.Fatal(err)
	}
	if s.Devices != 3 || len(agg.Records("m4")) != 3 || s.Inferences != 250 || s.DriftAlarms != 1 {
		t.Fatalf("summary = %+v", s)
	}
	// Weighted mean latency: (100*500 + 100*500? no: records are 100@500,100@500? we
	// added two 100@500 and one 50@1000 → (50000+50000+50000)/250 = 600.
	if math.Abs(s.MeanLatency-600) > 1e-6 {
		t.Fatalf("mean latency = %v, want 600", s.MeanLatency)
	}
	if _, err := agg.Summarize("unknown"); err == nil {
		t.Fatal("unknown cohort accepted")
	}
	if len(agg.Cohorts()) != 1 {
		t.Fatalf("cohorts = %v", agg.Cohorts())
	}
}

func TestTelemetryIsFarSmallerThanRawData(t *testing.T) {
	// §III-B: a telemetry record summarizing a 1000-inference window must
	// be orders of magnitude smaller than shipping the 1000 raw inputs.
	r := Record{
		DeviceID: "m0-sensor-00", Window: 1, Inferences: 1000,
		FeatureMeans: make([]float32, 16), FeatureStds: make([]float32, 16),
	}
	telemetryBytes := r.UplinkBytes()
	rawBytes := 1000 * 16 * 4
	if telemetryBytes*100 > rawBytes {
		t.Fatalf("telemetry %dB not ≪ raw %dB", telemetryBytes, rawBytes)
	}
}
