package observe

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
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

// Encode serializes the record to its compact wire form (the bytes the
// uplink accounting in E4 measures).
func (r *Record) Encode() []byte {
	var buf bytes.Buffer
	writeStr(&buf, r.DeviceID)
	writeU32(&buf, r.Window)
	writeU32(&buf, r.Inferences)
	writeU32(&buf, r.Denied)
	writeF32(&buf, r.MeanLatencyUS)
	writeF32(&buf, r.MaxLatencyUS)
	writeF32(&buf, r.EnergyMJ)
	writeU32(&buf, uint32(len(r.FeatureMeans)))
	for _, v := range r.FeatureMeans {
		writeF32(&buf, v)
	}
	for _, v := range r.FeatureStds {
		writeF32(&buf, v)
	}
	writeF32(&buf, r.DriftScore)
	if r.DriftAlarm {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	return buf.Bytes()
}

// DecodeRecord parses a record encoded by Encode. It accepts exactly what
// Encode produces: a record cut short anywhere, followed by anything, or
// with an alarm byte other than 0 or 1 is rejected.
func DecodeRecord(data []byte) (*Record, error) {
	r := bytes.NewReader(data)
	out := &Record{}
	var err error
	if out.DeviceID, err = readStr(r); err != nil {
		return nil, err
	}
	for _, dst := range []*uint32{&out.Window, &out.Inferences, &out.Denied} {
		if *dst, err = readU32(r); err != nil {
			return nil, err
		}
	}
	for _, dst := range []*float32{&out.MeanLatencyUS, &out.MaxLatencyUS, &out.EnergyMJ} {
		if *dst, err = readF32(r); err != nil {
			return nil, err
		}
	}
	nf, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if nf > 1<<16 {
		return nil, fmt.Errorf("observe: implausible feature count %d", nf)
	}
	out.FeatureMeans = make([]float32, nf)
	out.FeatureStds = make([]float32, nf)
	for i := range out.FeatureMeans {
		if out.FeatureMeans[i], err = readF32(r); err != nil {
			return nil, err
		}
	}
	for i := range out.FeatureStds {
		if out.FeatureStds[i], err = readF32(r); err != nil {
			return nil, err
		}
	}
	if out.DriftScore, err = readF32(r); err != nil {
		return nil, err
	}
	b, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("observe: truncated record: %w", err)
	}
	if b > 1 {
		return nil, fmt.Errorf("observe: alarm byte %d is neither 0 nor 1", b)
	}
	if r.Len() > 0 {
		return nil, fmt.Errorf("observe: %d bytes after the record", r.Len())
	}
	out.DriftAlarm = b == 1
	return out, nil
}

func writeU32(b *bytes.Buffer, v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	b.Write(tmp[:])
}

func writeF32(b *bytes.Buffer, v float32) { writeU32(b, math.Float32bits(v)) }

func writeStr(b *bytes.Buffer, s string) {
	writeU32(b, uint32(len(s)))
	b.WriteString(s)
}

func readU32(r *bytes.Reader) (uint32, error) {
	var tmp [4]byte
	// ReadFull, not Read: a bytes.Reader hands back a short count with a nil
	// error, which would decode a cut-off field as zero-padded garbage.
	if _, err := io.ReadFull(r, tmp[:]); err != nil {
		return 0, fmt.Errorf("observe: truncated record: %w", err)
	}
	return binary.LittleEndian.Uint32(tmp[:]), nil
}

func readF32(r *bytes.Reader) (float32, error) {
	v, err := readU32(r)
	return math.Float32frombits(v), err
}

func readStr(r *bytes.Reader) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > 256 {
		return "", fmt.Errorf("observe: implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("observe: truncated string: %w", err)
	}
	return string(buf), nil
}

// Buffer is the on-device store-and-forward queue: records accumulate
// locally and ship only when the device reaches WiFi (§III-B: "store these
// statistics locally and transmit them to the cloud when the device is
// connected to WiFi").
type Buffer struct {
	mu      sync.Mutex
	pending []Record
	// Cap bounds memory; when full, the oldest record is dropped (the
	// freshest telemetry is the most valuable).
	Cap int
	// dropped counts records evicted by the cap.
	dropped int64
}

// NewBuffer returns a buffer holding at most capacity records.
func NewBuffer(capacity int) *Buffer {
	if capacity < 1 {
		capacity = 1
	}
	return &Buffer{Cap: capacity}
}

// Add enqueues a record, evicting the oldest when at capacity.
func (b *Buffer) Add(r Record) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.pending) >= b.Cap {
		b.pending = b.pending[1:]
		b.dropped++
	}
	b.pending = append(b.pending, r)
}

// Pending returns the queued record count.
func (b *Buffer) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.pending)
}

// Snapshot returns a copy of the queued records without draining them —
// the audit path reads the store-and-forward queue in place.
func (b *Buffer) Snapshot() []Record {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Record(nil), b.pending...)
}

// Dropped returns how many records the cap evicted.
func (b *Buffer) Dropped() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
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
		totalBytes += len(recs[i].Encode())
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
	Records     int
	Inferences  uint64
	Denied      uint64
	MeanLatency float64 // microseconds
	EnergyMJ    float64
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
	s := CohortSummary{Cohort: cohort, Devices: len(devices), Records: len(recs)}
	var latSum float64
	var latN int
	for i := range recs {
		r := &recs[i]
		s.Inferences += uint64(r.Inferences)
		s.Denied += uint64(r.Denied)
		s.EnergyMJ += float64(r.EnergyMJ)
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
