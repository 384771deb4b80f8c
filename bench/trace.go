package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Every span is recorded by
// the harness, around a call into a layer's public function: nothing inside
// the platform is instrumented. Start and End are nanoseconds since the run
// began; Parent indexes the enclosing span (-1 for an op); spans of one op
// share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// layerRun collects a traced run's spans and per-layer metrics. It is used
// from one goroutine: the replay runs after the clients have stopped.
type layerRun struct {
	t0      time.Time
	reps    int
	spans   []span
	nextOp  int
	metrics map[string]float64
	// count is the count pass's tally and op is the traced pass's median op
	// latency in µs, by kind — what self time is measured against.
	count tally
	op    map[string]float64
}

func newLayerRun(t0 time.Time, reps int) *layerRun {
	return &layerRun{t0: t0, reps: reps, nextOp: 1 << 40, metrics: map[string]float64{}, op: map[string]float64{}}
}

func (lr *layerRun) set(name string, v float64) { lr.metrics[name] = v }

// beginOp opens the root span of one replayed op.
func (lr *layerRun) beginOp(name string) int {
	lr.nextOp++
	lr.spans = append(lr.spans, span{Name: name, Start: int64(time.Since(lr.t0)), Parent: -1, Op: lr.nextOp})
	return len(lr.spans) - 1
}

func (lr *layerRun) end(id int) { lr.spans[id].End = int64(time.Since(lr.t0)) }

// child times fn as a child span of parent.
func (lr *layerRun) child(parent int, name string, fn func()) {
	start := int64(time.Since(lr.t0))
	fn()
	lr.spans = append(lr.spans, span{Name: name, Start: start, End: int64(time.Since(lr.t0)), Parent: parent, Op: lr.spans[parent].Op})
}

// probe times a layer's public function standing alone: reps spans of
// inner back-to-back calls each, reporting the median per call in µs.
// inner > 1 keeps the clock reads out of nanosecond-scale calls.
func (lr *layerRun) probe(name string, inner int, fn func()) float64 {
	per := make([]float64, 0, lr.reps)
	for r := 0; r < lr.reps; r++ {
		id := lr.beginOp(name)
		for k := 0; k < inner; k++ {
			fn()
		}
		lr.end(id)
		per = append(per, lr.spans[id].us()/float64(inner))
	}
	return median(per)
}

// medianUS returns the median duration in µs of the spans with the name.
func medianUS(spans []span, name string) float64 {
	var d []float64
	for _, s := range spans {
		if s.Name == name {
			d = append(d, s.us())
		}
	}
	return median(d)
}

// childSumUS returns, for the ops whose root span has the name, the median
// over ops of the summed duration of the root's direct children.
func childSumUS(spans []span, root string) float64 {
	sums := map[int]float64{}
	for _, s := range spans {
		if s.Parent >= 0 && spans[s.Parent].Name == root && spans[s.Parent].Parent == -1 {
			sums[s.Parent] += s.us()
		}
	}
	v := make([]float64, 0, len(sums))
	for _, x := range sums {
		v = append(v, x)
	}
	return median(v)
}

// writeTrace writes the spans as JSON, ordered by start.
func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}
