package observe

import (
	"fmt"
	"sync"

	"tinymlops/internal/device"
)

// Record is one telemetry report: anonymized aggregates over a reporting
// window, never raw inputs. This is the §III-B compromise — the cloud
// learns "how the model behaves", not "what the user did".
type Record struct {
	DeviceID string
	// Window is the reporting interval index on the device's clock.
	Window uint32
	// Inferences and Denied count queries in the window.
	Inferences uint32
	Denied     uint32
	// MeanLatencyUS / MaxLatencyUS summarize modeled execution time.
	MeanLatencyUS float32
	MaxLatencyUS  float32
	// EnergyMJ is the energy spent in the window, in millijoules.
	EnergyMJ float32
	// FeatureMeans/FeatureStds summarize the input distribution.
	FeatureMeans []float32
	FeatureStds  []float32
	// DriftScore is the monitor's max detector score at window end.
	DriftScore float32
	// DriftAlarm is set when the on-device monitor has latched.
	DriftAlarm bool
}

// UplinkBytes is what the record costs the radio when FlushIfWiFi ships
// it, priced on a compact layout: 37 fixed bytes (u32 device-ID and
// feature-count prefixes, u32 Window, Inferences and Denied, four f32
// values and the alarm byte), the device ID, and 4 B per feature
// statistic. Records reach the cloud in process, so no bytes are encoded.
func (r *Record) UplinkBytes() int {
	return 37 + len(r.DeviceID) + 4*(len(r.FeatureMeans)+len(r.FeatureStds))
}

// Buffer is the on-device store-and-forward queue: records accumulate
// locally and ship only when the device reaches WiFi (§III-B: "store these
// statistics locally and transmit them to the cloud when the device is
// connected to WiFi").
type Buffer struct {
	mu      sync.Mutex
	pending []Record
	// dropped counts records evicted by the cap.
	dropped int64
}

// bufferCap bounds a Buffer's memory; when full, the oldest record is
// dropped (the freshest telemetry is the most valuable).
const bufferCap = 256

// NewBuffer returns an empty buffer holding at most bufferCap records.
func NewBuffer() *Buffer { return &Buffer{} }

// Add enqueues a record, evicting the oldest when at capacity.
func (b *Buffer) Add(r Record) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.pending) >= bufferCap {
		b.pending = b.pending[1:]
		b.dropped++
	}
	b.pending = append(b.pending, r)
}

// Snapshot returns a copy of the queued records without draining them —
// the audit path reads the store-and-forward queue in place.
func (b *Buffer) Snapshot() []Record {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Record(nil), b.pending...)
}

// FlushIfWiFi drains the buffer when the device is on WiFi, charging the
// transfer to the device's radio. It returns the flushed records and the
// bytes that went over the air (0, nil when not flushed).
func (b *Buffer) FlushIfWiFi(d *device.Device) ([]Record, int, error) {
	if d.Net() != device.WiFi {
		return nil, 0, nil
	}
	b.mu.Lock()
	recs := b.pending
	b.pending = nil
	b.mu.Unlock()
	totalBytes := 0
	for i := range recs {
		totalBytes += recs[i].UplinkBytes()
	}
	if totalBytes > 0 {
		if _, err := d.Upload(int64(totalBytes)); err != nil {
			// Put the records back; the next WiFi window retries.
			b.mu.Lock()
			b.pending = append(recs, b.pending...)
			b.mu.Unlock()
			return nil, 0, err
		}
	}
	return recs, totalBytes, nil
}

// Aggregator is the cloud-side monitor: it ingests telemetry records and
// reports per-cohort summaries, refusing to answer for cohorts smaller
// than MinCohort (a k-anonymity floor so fleet dashboards cannot single
// out one user's device).
type Aggregator struct {
	mu sync.Mutex
	// MinCohort is the smallest cohort size Summarize will report on.
	MinCohort int
	byCohort  map[string][]Record
}

// NewAggregator returns an aggregator with the given k-anonymity floor.
func NewAggregator(minCohort int) *Aggregator {
	if minCohort < 1 {
		minCohort = 1
	}
	return &Aggregator{MinCohort: minCohort, byCohort: make(map[string][]Record)}
}

// Ingest files a record under a cohort key (typically the device class).
func (a *Aggregator) Ingest(cohort string, r Record) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.byCohort[cohort] = append(a.byCohort[cohort], r)
}

// CohortSummary aggregates a cohort's records.
type CohortSummary struct {
	Cohort      string
	Devices     int
	Inferences  uint64
	Denied      uint64
	MeanLatency float64 // microseconds
	DriftAlarms int
}

// Summarize returns the cohort aggregate, or an error if the cohort is
// unknown or smaller than the anonymity floor.
func (a *Aggregator) Summarize(cohort string) (CohortSummary, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	recs := a.byCohort[cohort]
	if len(recs) == 0 {
		return CohortSummary{}, fmt.Errorf("observe: no records for cohort %q", cohort)
	}
	devices := make(map[string]bool)
	for i := range recs {
		devices[recs[i].DeviceID] = true
	}
	if len(devices) < a.MinCohort {
		return CohortSummary{}, fmt.Errorf("observe: cohort %q has %d devices, below anonymity floor %d",
			cohort, len(devices), a.MinCohort)
	}
	s := CohortSummary{Cohort: cohort, Devices: len(devices)}
	var latSum float64
	var latN int
	for i := range recs {
		r := &recs[i]
		s.Inferences += uint64(r.Inferences)
		s.Denied += uint64(r.Denied)
		if r.Inferences > 0 {
			latSum += float64(r.MeanLatencyUS) * float64(r.Inferences)
			latN += int(r.Inferences)
		}
		if r.DriftAlarm {
			s.DriftAlarms++
		}
	}
	if latN > 0 {
		s.MeanLatency = latSum / float64(latN)
	}
	return s, nil
}

// Records returns a copy of the records ingested under a cohort, in
// ingestion order — the audit path replays them to check per-device
// telemetry window monotonicity.
func (a *Aggregator) Records(cohort string) []Record {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Record(nil), a.byCohort[cohort]...)
}

// Cohorts lists known cohort keys.
func (a *Aggregator) Cohorts() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.byCohort))
	for k := range a.byCohort {
		out = append(out, k)
	}
	return out
}
