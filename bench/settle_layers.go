package main

import (
	"fmt"
	"net"

	"tinymlops/internal/core"
	"tinymlops/internal/metering"
	"tinymlops/internal/nn"
	"tinymlops/internal/verify"
)

// layers decomposes the settlement op into the public calls MustSettle
// makes, times the proof system at the attested layer's shape, and prices
// the evidence the serving path retains for it.
func (s *settle) layers(lr *layerRun) {
	const c = 0
	opUS := lr.op[""]

	// The op, spelled out: each replay serves a fresh window, then settles
	// it call by call.
	for d := range s.deps[c] {
		dep := s.deps[c][d]
		must(s.serveWindow(c, d))
		root := lr.beginOp("replay.settle")
		var report metering.AttestedReport
		var receipt metering.Receipt
		var err error
		lr.child(root, "metering.build_report", func() { report, err = dep.Meter.BuildAttestedReport() })
		must(err)
		lr.child(root, "metering.settle_tcp", func() { receipt, err = metering.SettleAttestedOverTCP(s.srv.Addr(), report) })
		must(err)
		if !receipt.OK {
			must(fmt.Errorf("replayed settlement rejected: %s", receipt.Reason))
		}
		lr.child(root, "metering.acknowledge", func() { dep.Meter.Acknowledge(receipt.AckSeq) })
		lr.end(root)
	}
	kids := childrenOf(lr.spans, "replay.settle")
	lr.set("metering.build_report_us", medianUS(kids, "metering.build_report"))
	lr.set("core.self_us", clampSelf(opUS-childSumUS(lr.spans, "replay.settle")))
	lr.set("metering.report_bytes", median(s.reportBytes))

	// The proof system at the attested layer's shape: kws-mlp's first
	// dense layer, one input row.
	art, err := s.p.Registry.Load(s.base.ID)
	must(err)
	first := art.Layers()[0].(*nn.Dense)
	wq, _ := verify.QuantizeWeights(first.W.Value)
	k, n := first.In, first.Out
	a := make([]int32, k)
	for i := range a {
		a[i] = int32(i%15) - 7
	}
	ctx := []byte("bench-replay")
	var claimed []int64
	var proof *verify.Proof
	proveUS := lr.probe("verify.prove", 1, func() {
		claimed, proof, _, err = verify.ProveMatMulCtx(ctx, a, 1, k, wq, n)
		must(err)
	})
	lr.set("verify.prove_us", proveUS)
	lr.set("verify.verify_us", lr.probe("verify.verify", 1, func() {
		ok, _, err := verify.VerifyMatMulCtx(ctx, a, 1, k, wq, n, claimed, proof)
		must(err)
		if !ok {
			must(fmt.Errorf("honest proof rejected"))
		}
	}))
	blob, err := proof.MarshalBinary()
	must(err)
	lr.set("verify.proof_bytes", float64(len(blob)))
	const batch = 128
	bv := verify.NewBatchVerifier(s.p.Engine())
	must(bv.Prepare("bench-replay", wq, k, n))
	items := make([]verify.BatchItem, batch)
	for i := range items {
		items[i] = verify.BatchItem{ClassID: "bench-replay", Ctx: ctx, A: a, M: 1, C: claimed, Proof: proof}
	}
	batchUS := lr.probe("verify.batch_verify", 1, func() {
		res, _, err := bv.VerifyBatch(items)
		must(err)
		for _, r := range res {
			if !r.OK {
				must(fmt.Errorf("honest proof rejected in batch: %v", r.Err))
			}
		}
	}) / batch
	lr.set("verify.batch_verify_us_per_proof", batchUS)
	if opUS > 0 {
		lr.set("harness.verify_share", (proveUS+batchUS)*median(s.proofs)/opUS)
	}

	// Plain settlement of a window of the same length, in process and over
	// a loopback server of the harness's own.
	settler := metering.NewSettler(s.p.Issuer)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	srv := metering.Serve(l, settler)
	defer srv.Close()
	plain := func(tag string, r int) metering.Report {
		m := replayMeter(s.p, fmt.Sprintf("%s-%d", tag, r), s.base.ID)
		for t := 1; t <= s.sz.settleW; t++ {
			must(m.Charge(uint64(t)))
		}
		return m.BuildReport()
	}
	var inProc, overTCP []float64
	reps := lr.reps
	if reps > 9 {
		reps = 9
	}
	for r := 0; r < reps; r++ {
		report := plain("plain", r)
		id := lr.beginOp("metering.settle_plain")
		rc := settler.Settle(report)
		lr.end(id)
		if !rc.OK {
			must(fmt.Errorf("plain settlement rejected: %s", rc.Reason))
		}
		inProc = append(inProc, lr.spans[id].us())
		report = plain("tcp", r)
		id = lr.beginOp("metering.settle_plain_tcp")
		rc, err := metering.SettleOverTCP(srv.Addr(), report)
		lr.end(id)
		must(err)
		if !rc.OK {
			must(fmt.Errorf("plain settlement over TCP rejected: %s", rc.Reason))
		}
		overTCP = append(overTCP, lr.spans[id].us())
	}
	lr.set("metering.settle_plain_us", median(inProc))
	lr.set("metering.tcp_roundtrip_us", clampSelf(median(overTCP)-median(inProc)))
	meter, tick := replayMeter(s.p, "charge", s.base.ID), uint64(0)
	lr.set("metering.charge_ns", 1e3*lr.probe("metering.charge", 64, func() {
		tick++
		must(meter.Charge(tick))
	}))

	// What retained evidence costs a query: Infer at window position W/2
	// with verified billing on, against the same query on a platform with
	// billing off.
	dep := s.deps[c][0]
	for q := 0; q < s.sz.settleW/2; q++ {
		_, err := dep.Infer(s.rows[c][q%len(s.rows[c])])
		must(err)
	}
	fleet, err := wifiFleet(1, s.in.seed)
	must(err)
	off, err := core.New(fleet, core.Config{VendorKey: vendorKey, Seed: s.in.seed, MinCohort: 1})
	must(err)
	_, err = off.Publish(kwsMLP.name, art, s.ds, s.spec())
	must(err)
	plainDep, err := off.Deploy(deviceID(dep.Device().Caps.Name, 0), kwsMLP.name, core.DeployConfig{PrepaidQueries: 1 << 60, Calibration: s.ds})
	must(err)
	if plainDep.ExecutionScheme() != dep.ExecutionScheme() {
		must(fmt.Errorf("billing-off twin serves %v, the deployment %v", plainDep.ExecutionScheme(), dep.ExecutionScheme()))
	}
	q := 0
	infer := func(d *core.Deployment) func() {
		return func() {
			_, err := d.Infer(s.rows[c][q%len(s.rows[c])])
			q++
			must(err)
		}
	}
	on := lr.probe("core.infer_billing_on", 4, infer(dep))
	lr.set("core.evidence_us_per_query", clampSelf(on-lr.probe("core.infer_billing_off", 4, infer(plainDep))))
	lr.set("device.modelled_busy_us_per_query", lr.count.modelledUS/lr.count.units)
	lr.set("device.energy_mj_per_query", lr.count.energyJ*1e3/lr.count.units)
}
