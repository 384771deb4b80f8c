package main

import (
	"encoding/json"
	"fmt"
	"net"
	"time"

	"tinymlops/internal/core"
	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/metering"
	"tinymlops/internal/nn"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
)

// attestationRate is the verified-billing sample density: one charge in
// this many carries a proof.
const attestationRate = 16

// settle is the pay-per-query settlement path: prove → report →
// batch-verify → receipt, over the platform's one real network endpoint.
// A step is one device's cycle: settleW single queries (more than the
// 1 024 unsettled charges at which evidence retention starts sweeping, on
// purpose), then metering.MustSettle — the body of Platform.SettleAll for
// one deployment. The op is the settlement call alone; throughput counts
// acknowledged charges over the whole cycle.
type settle struct {
	sz sizing
	in *inputs
	// hostile inflates the usage claim of the first honest report — the
	// negative control of the receipt check.
	hostile bool

	p      *core.Platform
	ds     *dataset.Dataset
	base   *registry.ModelVersion
	srv    *metering.Server
	deps   [][]*core.Deployment // [client][device]
	refs   [][]*reference
	rows   [][][]float32 // [client][row]
	expect [][][]int     // [client][device][row]

	// Count-pass accounting.
	reportBytes  []float64
	proofs       []float64
	controlsDone bool
}

func newSettle(in *inputs, sz sizing) *settle { return &settle{sz: sz, in: in} }

func (s *settle) setup() error {
	model, ds, raw, _, _, err := s.in.trained(kwsMLP, false)
	if err != nil {
		return err
	}
	s.ds = ds
	if s.sz.settleDevices > len(device.StandardProfiles()) {
		return fmt.Errorf("settle: %d devices per client, the fleet has %d profiles", s.sz.settleDevices, len(device.StandardProfiles()))
	}
	fleet, err := wifiFleet(s.sz.clients, s.in.seed)
	if err != nil {
		return err
	}
	s.p, err = core.New(fleet, core.Config{
		VendorKey: vendorKey, Seed: s.in.seed, MinCohort: 1, Workers: s.sz.workers,
		VerifiedBilling: true, AttestationRate: attestationRate,
	})
	if err != nil {
		return err
	}
	vs, err := s.p.Publish(kwsMLP.name, model, ds, s.spec())
	if err != nil {
		return err
	}
	s.base = vs[0]
	for c := 0; c < s.sz.clients; c++ {
		var deps []*core.Deployment
		var refs []*reference
		var exp [][]int
		for _, prof := range device.StandardProfiles()[:s.sz.settleDevices] {
			dep, err := s.p.Deploy(deviceID(prof.Name, c), kwsMLP.name, core.DeployConfig{PrepaidQueries: 1 << 60, Calibration: ds})
			if err != nil {
				return err
			}
			ref, err := newReference(s.p, dep)
			if err != nil {
				return err
			}
			deps, refs, exp = append(deps, dep), append(refs, ref), append(exp, make([]int, s.sz.pool))
		}
		s.deps, s.refs, s.expect = append(s.deps, deps), append(s.refs, refs), append(s.expect, exp)
		s.rows = append(s.rows, s.in.rows(raw, s.sz.pool))
		// The count pass settles only some of the devices, so the labels
		// the timed pass checks against come from the reference here.
		for d := range deps {
			if err := s.fillExpect(c, d); err != nil {
				return err
			}
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = metering.Serve(l, s.p.Settler)
	return nil
}

func (s *settle) spec() registry.OptimizationSpec {
	return registry.OptimizationSpec{
		Schemes:  []quant.Scheme{quant.Int8, quant.Int4},
		Evaluate: func(n *nn.Network) float64 { return nn.Evaluate(n, s.ds.X, s.ds.Y) },
	}
}

func (s *settle) close() {
	if s.srv != nil {
		s.srv.Close()
	}
}

func (s *settle) group() int        { return 1 }
func (s *settle) kind(i int) string { return "" }

// serveWindow answers settleW queries on one device with O(1) checks.
func (s *settle) serveWindow(c, d int) error {
	dep := s.deps[c][d]
	for q := 0; q < s.sz.settleW; q++ {
		row := q % len(s.rows[c])
		res, err := dep.Infer(s.rows[c][row])
		if err != nil {
			return err
		}
		if res.Label != s.expect[c][d][row] {
			return fmt.Errorf("%s: label %d, want %d", dep.DeviceID, res.Label, s.expect[c][d][row])
		}
	}
	return nil
}

func (s *settle) step(c, i int) stepResult {
	d := i % len(s.deps[c])
	dep := s.deps[c][d]
	if err := s.serveWindow(c, d); err != nil {
		return stepResult{err: err}
	}
	settled := dep.Meter.SettledSeq()
	start := time.Now()
	err := metering.MustSettle(s.srv.Addr(), dep.Meter)
	op := int64(time.Since(start))
	acked := int(dep.Meter.SettledSeq() - settled)
	if err == nil && acked != s.sz.settleW {
		err = fmt.Errorf("%s: %d charges acknowledged, want %d", dep.DeviceID, acked, s.sz.settleW)
	}
	return stepResult{units: acked, opNS: op, err: err}
}

func (s *settle) fillExpect(c, d int) error {
	for row, x := range s.rows[c] {
		logits, err := s.refs[c][d].logits(x)
		if err != nil {
			return err
		}
		s.expect[c][d][row] = argMax(logits)
	}
	return nil
}

func jsonLen(v any) int {
	b, err := json.Marshal(v)
	if err != nil {
		return 0
	}
	return len(b) + 1 // the wire adds a newline
}

func (s *settle) count(c int, t *tally) {
	energy := energyJ(s.deps[c])
	for d := 0; d < s.sz.settleCount && d < len(s.deps[c]); d++ {
		dep := s.deps[c][d]
		t.ops++
		// Serve the window with every answer checked against the
		// independent forward.
		for q := 0; q < s.sz.settleW; q++ {
			row := q % len(s.rows[c])
			x := s.rows[c][row]
			logits, err := s.refs[c][d].logits(x)
			if err == nil && !bitsEqual(dep.ReferenceLogits(x), logits) {
				err = fmt.Errorf("%s: serving logits differ from the independent forward", dep.DeviceID)
			}
			if err != nil {
				t.fail(err)
				break
			}
			s.expect[c][d][row] = argMax(logits)
			res, err := dep.Infer(x)
			if err == nil && res.Label != s.expect[c][d][row] {
				err = fmt.Errorf("%s: label %d, want %d", dep.DeviceID, res.Label, s.expect[c][d][row])
			}
			if err != nil {
				t.fail(err)
				break
			}
			t.modelledUS += us(res.Latency)
		}
		// The body of MustSettle, spelled out so the report and the
		// receipt can be inspected.
		report, err := dep.Meter.BuildAttestedReport()
		if err != nil {
			t.fail(err)
			continue
		}
		if !s.controlsDone {
			s.controlsDone = true
			if err := s.negativeControls(report); err != nil {
				t.fail(err)
			}
		}
		sent := report
		if s.hostile && c == 0 && d == 0 {
			sent.Used += 5
		}
		receipt, err := metering.SettleAttestedOverTCP(s.srv.Addr(), sent)
		switch {
		case err != nil:
			t.fail(err)
			continue
		case !receipt.OK:
			t.fail(fmt.Errorf("%s: settlement rejected: %s", dep.DeviceID, receipt.Reason))
			continue
		case receipt.AckSeq != dep.Meter.Used() || receipt.ProofsChecked == 0:
			t.fail(fmt.Errorf("%s: receipt acks %d of %d charges with %d proofs", dep.DeviceID, receipt.AckSeq, dep.Meter.Used(), receipt.ProofsChecked))
		}
		dep.Meter.Acknowledge(receipt.AckSeq)
		t.units += float64(len(report.Entries))
		t.vendorBytes += float64(jsonLen(report) + jsonLen(receipt))
		s.reportBytes = append(s.reportBytes, float64(jsonLen(report)))
		s.proofs = append(s.proofs, float64(receipt.ProofsChecked))
	}
	t.energyJ += energyJ(s.deps[c]) - energy
}

// negativeControls sends two tampered copies of an honest report — an
// inflated usage claim and a replayed proof — and requires both to be
// rejected. A settler that accepted either would make every OK receipt
// above meaningless.
func (s *settle) negativeControls(honest metering.AttestedReport) error {
	inflated := honest
	inflated.Used += 5
	if r, err := metering.SettleAttestedOverTCP(s.srv.Addr(), inflated); err != nil || r.OK {
		return fmt.Errorf("negative control: inflated usage was not rejected (receipt %+v, err %v)", r, err)
	}
	if len(honest.Attestations) < 2 {
		return fmt.Errorf("negative control: report carries %d proofs, need 2", len(honest.Attestations))
	}
	replayed := honest
	replayed.Attestations = append([]metering.Attestation(nil), honest.Attestations...)
	replayed.Attestations[1].Proof = honest.Attestations[0].Proof
	replayed.Attestations[1].Input = honest.Attestations[0].Input
	replayed.Attestations[1].Claimed = honest.Attestations[0].Claimed
	if r, err := metering.SettleAttestedOverTCP(s.srv.Addr(), replayed); err != nil || r.OK {
		return fmt.Errorf("negative control: replayed proof was not rejected (receipt %+v, err %v)", r, err)
	}
	return nil
}
