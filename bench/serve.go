package main

import (
	"fmt"

	"tinymlops/internal/core"
	"tinymlops/internal/procvm"
)

// burstRows is the batch size of one serve_burst op.
const burstRows = 16

// Every syncEvery sweeps of the matrix — about ten times a second on either
// workload — a client prunes its meters, and client 0 also flushes telemetry
// with Platform.SyncTelemetry, so both stay the rare events they are on a
// fleet.
func (s *serve) syncEvery() int {
	if s.burst {
		return 64
	}
	return 16384
}

// serve is serve_burst (InferBatch of 16 rows on kws-mlp) or serve_single
// (one Infer on sensor-mlp behind a procvm pre/post pipeline): the same
// path and the same layers, used differently.
type serve struct {
	matrix
	burst bool
	// hostile makes the count pass expect a wrong label for one query — the
	// negative control of the label check.
	hostile bool
	batches [][][][]float32 // [client][batch] → 16 rows (burst only)

	telemetryBytes, telemetryRecords int
	syncs                            int
}

func newServe(in *inputs, sz sizing, burst bool) *serve {
	s := &serve{burst: burst}
	s.sz, s.in = sz, in
	s.model, s.pipeline = sensorMLP, true
	if burst {
		s.model, s.pipeline = kwsMLP, false
	}
	return s
}

func (s *serve) setup() error {
	if err := s.matrix.setup(core.Config{}); err != nil {
		return err
	}
	if s.burst {
		for c := range s.rows {
			var bs [][][]float32
			for b := 0; b+burstRows <= len(s.rows[c]); b += burstRows {
				bs = append(bs, s.rows[c][b:b+burstRows])
			}
			s.batches = append(s.batches, bs)
		}
	}
	return nil
}

func (s *serve) close() {}

func (s *serve) group() int {
	if s.burst {
		return 1
	}
	return 16
}

func (s *serve) kind(i int) string { return kinds[i%len(kinds)].name }

// sync flushes telemetry and returns the bytes uplinked to the vendor.
func (s *serve) sync() (int, error) {
	recs, bytes, err := s.p.SyncTelemetry()
	s.telemetryRecords += recs
	s.telemetryBytes += bytes
	s.syncs++
	return bytes, err
}

func (s *serve) count(c int, t *tally) {
	rt := procvm.NewRuntime(procvm.CapSensor)
	energy := energyJ(s.deps[c])
	for k := range kinds {
		dep := s.deps[c][k]
		used := dep.Meter.Used()
		served := uint64(0)
		check := func(row int, res core.InferenceResult, err error) error {
			if err != nil {
				return err
			}
			want, _, err := s.want(rt, c, k, s.rows[c][row])
			if err != nil {
				return err
			}
			s.expect[c][k][row] = want
			if s.hostile && k == 0 && row == 0 {
				want++
			}
			if res.Label != want {
				return fmt.Errorf("%s row %d: label %d, want %d", kinds[k].name, row, res.Label, want)
			}
			t.modelledUS += us(res.Latency)
			return nil
		}
		if s.burst {
			for b, rows := range s.batches[c] {
				t.ops++
				t.units += burstRows
				served += burstRows
				var bad error
				for r, o := range dep.InferBatch(rows) {
					if err := check(b*burstRows+r, o.Result, o.Err); err != nil && bad == nil {
						bad = err
					}
				}
				if bad != nil {
					t.fail(bad)
				}
			}
		} else {
			for row, x := range s.rows[c] {
				t.ops++
				t.units++
				served++
				res, err := dep.Infer(x)
				if err := check(row, res, err); err != nil {
					t.fail(err)
				}
			}
		}
		if got := dep.Meter.Used() - used; got != served {
			t.fail(fmt.Errorf("%s: meter advanced by %d for %d queries", kinds[k].name, got, served))
		}
	}
	bytes, err := s.sync()
	if err != nil {
		t.fail(err)
	}
	t.vendorBytes += float64(bytes)
	t.energyJ += energyJ(s.deps[c]) - energy
}

func (s *serve) step(c, i int) stepResult {
	res := s.op(c, i)
	if (i+1)%(len(kinds)*s.syncEvery()) == 0 {
		// After the op, and never on a sampled one when ops are sampled
		// 1-in-16: the housekeeping is the workload's, not the op's.
		s.prune(c)
		if c == 0 {
			if _, err := s.sync(); err != nil && res.err == nil {
				res.err = err
			}
		}
	}
	return res
}

func (s *serve) op(c, i int) stepResult {
	k, sweep := i%len(kinds), i/len(kinds)
	dep := s.deps[c][k]
	if s.burst {
		b := sweep % len(s.batches[c])
		for r, o := range dep.InferBatch(s.batches[c][b]) {
			if o.Err != nil {
				return stepResult{units: burstRows, err: o.Err}
			}
			if want := s.expect[c][k][b*burstRows+r]; o.Result.Label != want {
				return stepResult{units: burstRows, err: fmt.Errorf("%s: label %d, want %d", kinds[k].name, o.Result.Label, want)}
			}
		}
		return stepResult{units: burstRows}
	}
	row := sweep % len(s.rows[c])
	res, err := dep.Infer(s.rows[c][row])
	if err == nil && res.Label != s.expect[c][k][row] {
		err = fmt.Errorf("%s: label %d, want %d", kinds[k].name, res.Label, s.expect[c][k][row])
	}
	return stepResult{units: 1, err: err}
}
