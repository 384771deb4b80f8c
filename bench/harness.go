package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The run shape is the same for every workload: setup (timed, repeated
// before and after the passes) → count pass (a fixed number of fully verified ops,
// run serially so every counter is exact and independent of run length) →
// timed pass (closed loop of C client goroutines, tracing off). A traced
// run replaces the timed pass with two half-length passes (spans off, then
// on) and adds the layer replay; end-to-end numbers never come from it.

// timedSlices is how many equal slices the timed pass is cut into, and
// quietSlices how many of them — the ones in which the closed loop got the
// most done — throughput_per_s and op_p50_us are taken over. The rest of a
// shared machine only ever takes time away, for a fraction of a second or
// for minutes on end (a loop of dependent multiplications, alone on its
// thread, ran at anything from 0.4 to 1.0 of its best from one eighth of a
// second to the next while the guest saw no stolen time), so the quiet tenth
// of a pass is what the program does when left alone, and it is what
// repeats: with two neighbours each busy half the time, in bursts of up to
// four seconds, eight runs' mean throughput spread by 0.12, their best
// quarter of 20 slices by 0.05 and their best tenth of 60 by 0.04. Whatever
// the program itself does every few milliseconds (collections, meter
// pruning, telemetry) is in every slice, quiet ones too.
//
// passTenths is how many equal parts the pass's own spread and drift are
// judged over: a part has to hold several of the longest ops.
const (
	timedSlices = 60
	quietSlices = timedSlices / 10
	passTenths  = 10
)

// sizing fixes how much work each phase of a run does. fullSizing is the
// benchmark; the tests shrink it.
type sizing struct {
	clients int     // C closed-loop client goroutines
	seconds float64 // timed pass length
	// Setup is timed in two rounds, one before the count pass and one after
	// the timed pass, each of at least setups repetitions and setupSeconds
	// long: a setup that takes milliseconds needs hundreds of repetitions to
	// repeat within its bound, and two rounds a quarter of a minute apart
	// seldom both fall into a busy stretch of the machine.
	setups       int
	setupSeconds float64
	workers      int // core.Config.Workers (0 = GOMAXPROCS, the benchmark's value)

	pool          int // input rows per client (serve_*)
	otaPerProfile int // ota_rollout devices per profile per client
	otaCanary     int // ota_rollout canary wave size per client
	otaCountOps   int // ota_rollout count-pass ops per client
	fedClients    int // fed_round clients per coordinator
	fedAggs       int // fed_round edge aggregators
	fedRounds     int // fed_round count-pass rounds (hier, then flat)
	settleDevices int // settle devices per client
	settleCount   int // settle devices per client settled in the count pass
	settleW       int // settle queries per device per cycle
	probeReps     int // repetitions behind each layer probe's median
}

// The benchmark drives the closed loop from one client goroutine (on one
// processor: benchProcs). A client per processor fills the machine with the
// harness itself: whatever else the shared box then runs comes straight out
// of the number (a one-core neighbour busy half the time cost two clients on
// two cores 17 % of their throughput and one client nothing), and two ops
// running side by side wait on each other's workers, so an op's latency is
// its own time plus what the scheduler deals it. -clients runs more, for
// scaling studies.
func fullSizing(seconds float64) sizing {
	return sizing{
		clients: 1, seconds: seconds, setups: 5, setupSeconds: 1.5,
		pool:          256,
		otaPerProfile: 16, otaCanary: 16, otaCountOps: 4,
		fedClients: 800, fedAggs: 50, fedRounds: 3,
		settleDevices: 6, settleCount: 2, settleW: 2048,
		probeReps: 31,
	}
}

// tally is what one phase of a run counted.
type tally struct {
	ops, failed int
	units       float64
	vendorBytes float64 // bytes that crossed the vendor's link
	modelledUS  float64 // modelled device time
	energyJ     float64 // modelled device energy
	firstErr    error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// stepResult is one timed op's outcome. opNS is the op's own latency when
// the step wraps it in other work (settle's serving cycle); 0 means the
// whole step is the op.
type stepResult struct {
	units int
	opNS  int64
	err   error
}

// workload is one of the six lifecycle paths.
type workload interface {
	// setup builds the platform through its public API from the seed and
	// returns when the first op could run.
	setup() error
	// count runs client c's share of the count pass with full
	// verification. Clients run one after another.
	count(c int, t *tally)
	// step runs client c's i-th timed op with O(1) checks.
	step(c, i int) stepResult
	// group is how many consecutive ops share one latency sample, their
	// mean: around a single op of a few microseconds the clock reads would
	// be a twentieth of what they measure.
	group() int
	// kind labels op i for the per-kind medians ("" when the workload has
	// one kind of op).
	kind(i int) string
	// layers replays ops through each layer's public functions and reads
	// the public counters (traced runs only).
	layers(lr *layerRun)
	// close stops everything setup started and waits for it.
	close()
}

// clientRec is what one client goroutine records during a timed pass.
type clientRec struct {
	lat    [timedSlices][]int64 // sampled op latencies by slice, ns
	units  [timedSlices]float64 // units completed, prorated over slices
	ops    int
	failed int
	first  error
	spans  []span // op spans (traced pass only)
}

// addUnits spreads units completed over [start,end) across the slices the
// interval overlaps, so a step that straddles a slice boundary does not
// quantize the slice throughput.
func (r *clientRec) addUnits(start, end, slice int64, units float64) {
	if end <= start {
		end = start + 1
	}
	per := units / float64(end-start)
	for s := 0; s < timedSlices; s++ {
		// The overrun past the deadline belongs to no slice.
		lo, hi := int64(s)*slice, int64(s+1)*slice
		if start > lo {
			lo = start
		}
		if end < hi {
			hi = end
		}
		if hi > lo {
			r.units[s] += per * float64(hi-lo)
		}
	}
}

// passResult summarizes one timed pass.
type passResult struct {
	wall        time.Duration
	ops, failed int
	firstErr    error
	units       float64
	sliceThr    [timedSlices]float64
	tenthThr    [passTenths]float64
	tenthP50    [passTenths]float64 // µs
	lat         []int64             // all samples, sorted, ns
	quietThr    float64             // mean throughput of the quiet slices
	quietLat    []int64             // the quiet slices' samples, sorted, ns
	mallocs     uint64
	allocBytes  uint64
	gcPauseNS   uint64
	spans       []span
}

// timedPass drives the closed loop: C goroutines, each calling step until
// the deadline, each waiting for its reply before the next op.
func timedPass(w workload, sz sizing, seconds float64, spans bool, t0 time.Time) passResult {
	dur := time.Duration(seconds * float64(time.Second))
	slice := int64(dur) / timedSlices
	recs := make([]*clientRec, sz.clients)
	for c := range recs {
		recs[c] = &clientRec{}
		for s := range recs[c].lat {
			recs[c].lat[s] = make([]int64, 0, 4096)
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < sz.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runClient(w, c, start, dur, slice, recs[c], spans, t0)
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	res := passResult{
		wall:       wall,
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcPauseNS:  after.PauseTotalNs - before.PauseTotalNs,
	}
	var sliceLat [timedSlices][]int64
	for s := 0; s < timedSlices; s++ {
		for _, r := range recs {
			res.sliceThr[s] += r.units[s] / (float64(slice) / 1e9)
			res.units += r.units[s]
			sliceLat[s] = append(sliceLat[s], r.lat[s]...)
		}
		res.lat = append(res.lat, sliceLat[s]...)
	}
	const perTenth = timedSlices / passTenths
	for g := 0; g < passTenths; g++ {
		var lat []int64
		for s := g * perTenth; s < (g+1)*perTenth; s++ {
			res.tenthThr[g] += res.sliceThr[s] / perTenth
			lat = append(lat, sliceLat[s]...)
		}
		sortNS(lat)
		res.tenthP50[g] = float64(percentile(lat, 0.50)) / 1e3
	}
	sortNS(res.lat)
	order := make([]int, timedSlices)
	for s := range order {
		order[s] = s
	}
	sort.SliceStable(order, func(i, j int) bool { return res.sliceThr[order[i]] > res.sliceThr[order[j]] })
	for _, s := range order[:quietSlices] {
		res.quietThr += res.sliceThr[s] / quietSlices
		res.quietLat = append(res.quietLat, sliceLat[s]...)
	}
	if len(res.quietLat) == 0 {
		// A pass so short that an op outlasts a slice: no op ended in the
		// quiet slices, so the whole pass stands in.
		res.quietLat = res.lat
	}
	sortNS(res.quietLat)
	for _, r := range recs {
		res.ops += r.ops
		res.failed += r.failed
		if res.firstErr == nil {
			res.firstErr = r.first
		}
		res.spans = append(res.spans, r.spans...)
	}
	return res
}

func runClient(w workload, c int, start time.Time, dur time.Duration, slice int64, rec *clientRec, spans bool, t0 time.Time) {
	g := w.group()
	note := func(r stepResult) float64 {
		rec.ops++
		if r.err != nil {
			rec.failed++
			if rec.first == nil {
				rec.first = r.err
			}
		}
		return float64(r.units)
	}
	i := 0
	now := int64(time.Since(start))
	for now < int64(dur) {
		begin, first := now, i
		r := w.step(c, i)
		var firstEnd int64
		if spans {
			firstEnd = int64(time.Since(start))
		}
		units := note(r)
		i++
		for k := 1; k < g; k++ {
			units += note(w.step(c, i))
			i++
		}
		now = int64(time.Since(start))
		// One latency sample per group: the op's own time when the step
		// reports it, else the group's mean op time.
		lat := r.opNS
		if lat == 0 {
			lat = (now - begin) / int64(g)
		}
		s := int(now / slice)
		if s >= timedSlices {
			s = timedSlices - 1
		}
		rec.lat[s] = append(rec.lat[s], lat)
		if spans {
			// The span is the group's first op alone, so it has one kind.
			opStart := begin
			if r.opNS != 0 {
				opStart = firstEnd - r.opNS
			}
			off := int64(start.Sub(t0))
			rec.spans = append(rec.spans, span{Name: "op." + w.kind(first), Start: off + opStart, End: off + firstEnd, Parent: -1, Op: c<<32 | first})
		}
		rec.addUnits(begin, now, slice, units)
	}
}

func sortNS(v []int64) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the distance between the first and third quartile as a share of
// the median — the run-to-run yardstick the bounds are judged against.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		// The exclusive method of Python's statistics.quantiles.
		pos := p*float64(len(s)+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(len(s)-1) {
			return s[len(s)-1]
		}
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / m
}

// timeSetups runs setup at least sz.setups times and until sz.setupSeconds
// have gone by, closing all but the last, which it returns with the
// per-run durations.
func timeSetups(mk func() workload, sz sizing) (workload, []float64, error) {
	var w workload
	var secs []float64
	begin := time.Now()
	for len(secs) < sz.setups || time.Since(begin).Seconds() < sz.setupSeconds {
		if w != nil {
			w.close()
		}
		w = mk()
		start := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return w, secs, nil
}

// quietQuartile is the first quartile of v: what the repeated step takes
// when the machine leaves it alone, for the reason quietSlices gives.
func quietQuartile(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[(len(s)-1)/4]
}
