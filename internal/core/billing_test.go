package core

import (
	"math"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/metering"
	"tinymlops/internal/nn"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/tensor"
	"tinymlops/internal/verify"
)

// verifiedFixture is fixture with verified billing armed at rate.
func verifiedFixture(t *testing.T, seed uint64, rate int) (*Platform, *dataset.Dataset, []*registry.ModelVersion) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	fleet, err := device.NewStandardFleet(device.FleetSpec{CountPerProfile: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fleet.Devices() {
		d.SetBehavior(1, 1, 0)
	}
	fleet.Tick()
	p, err := New(fleet, Config{
		VendorKey: vendorKey, Seed: seed, MinCohort: 1,
		VerifiedBilling: true, AttestationRate: rate,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Blobs(rng, 600, 4, 3, 5)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 16, rng), nn.NewReLU(), nn.NewDense(16, 3, rng))
	if _, err := nn.Train(net, ds.X, ds.Y, nn.TrainConfig{
		Epochs: 6, BatchSize: 32, Optimizer: nn.NewSGD(0.1).WithMomentum(0.9), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	versions, err := p.Publish("clf", net, ds, DefaultOptimizationSpec(ds))
	if err != nil {
		t.Fatal(err)
	}
	return p, ds, versions
}

func settlementServer(t *testing.T, p *Platform) *metering.Server {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := metering.Serve(l, p.Settler)
	t.Cleanup(func() { srv.Close() })
	return srv
}

// The tentpole path end to end: charged queries → sampled proofs in the
// settlement report → batch verification → receipt, over real TCP, with
// a watermarked deployment in the mix (proofs must come from the registry
// artifact, so the watermark must not break them).
func TestVerifiedBillingEndToEnd(t *testing.T) {
	p, ds, _ := verifiedFixture(t, 21, 2)
	srv := settlementServer(t, p)

	devs := []string{"phone-00", "edge-gateway-00"}
	if _, err := p.Deploy(devs[0], "clf", DeployConfig{PrepaidQueries: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Deploy(devs[1], "clf", DeployConfig{PrepaidQueries: 100, Watermark: "customer-7"}); err != nil {
		t.Fatal(err)
	}

	x := make([]float32, 4)
	for _, id := range devs {
		dep, _ := p.Deployment(id)
		for i := 0; i < 17; i++ {
			for f := 0; f < 4; f++ {
				x[f] = ds.X.At2(i, f)
			}
			if _, err := dep.Infer(x); err != nil {
				t.Fatalf("%s query %d: %v", id, i, err)
			}
		}
	}

	for id, err := range p.SettleAll(srv.Addr()) {
		if err != nil {
			t.Fatalf("settle %s: %v", id, err)
		}
	}
	proofs := 0
	for _, id := range devs {
		dep, _ := p.Deployment(id)
		rc, ok := p.Settler.LastReceipt(dep.Meter.Voucher().ID)
		if !ok || !rc.OK {
			t.Fatalf("%s receipt = %+v (ok=%v)", id, rc, ok)
		}
		if rc.AckSeq != 17 {
			t.Fatalf("%s acked %d charges, want 17", id, rc.AckSeq)
		}
		proofs += rc.ProofsChecked
		if dep.Meter.SettledSeq() != 17 {
			t.Fatalf("%s meter settled seq %d", id, dep.Meter.SettledSeq())
		}
	}
	if proofs == 0 {
		t.Fatal("no proofs were checked across the fleet")
	}
}

// A device that inflates its tick count cannot settle: the fabricated
// entries are chain-valid, but the settlement sample (rooted at the new
// terminal head) demands proofs of real inference it never ran.
func TestVerifiedBillingRejectsInflatedUsage(t *testing.T) {
	p, ds, _ := verifiedFixture(t, 22, 2)
	dep, err := p.Deploy("phone-00", "clf", DeployConfig{PrepaidQueries: 100})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 4)
	for i := 0; i < 10; i++ {
		for f := 0; f < 4; f++ {
			x[f] = ds.X.At2(i, f)
		}
		if _, err := dep.Infer(x); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := dep.Meter.BuildAttestedReport()
	if err != nil {
		t.Fatal(err)
	}
	v := dep.Meter.Voucher()
	head := rep.Entries[len(rep.Entries)-1].Hash
	for i := 0; i < 8; i++ {
		e := metering.NextEntry(head, rep.Used+1, 999, v.ID)
		rep.Entries = append(rep.Entries, e)
		rep.Used++
		head = e.Hash
	}
	rc := p.Settler.SettleAttested(rep)
	if rc.OK {
		t.Fatal("inflated report settled")
	}
	if rc.Reason != metering.ReasonProofMissing && rc.Reason != metering.ReasonProofInvalid {
		t.Fatalf("inflation rejected for the wrong reason: %s", rc.Reason)
	}
	// The honest report still settles afterwards.
	honest, err := dep.Meter.BuildAttestedReport()
	if err != nil {
		t.Fatal(err)
	}
	if rc := p.Settler.SettleAttested(honest); !rc.OK {
		t.Fatalf("honest report rejected after fraud attempt: %s", rc.Reason)
	}
}

// Charges served by a version the deployment has since updated off must
// still prove at settlement — and a proof relabeled to another version
// must fail even when that version shares the proved layer's weights
// (the context binds the model identity, not just the weights).
func TestVerifiedBillingAcrossUpdate(t *testing.T) {
	p, ds, versions := verifiedFixture(t, 23, 1)
	prepares := map[string]int{}
	p.onPrepare = func(modelID string) { prepares[modelID]++ }
	dep, err := p.Deploy("phone-00", "clf", DeployConfig{PrepaidQueries: 200})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 4)
	serve := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			for f := 0; f < 4; f++ {
				x[f] = ds.X.At2(i, f)
			}
			if _, err := dep.Infer(x); err != nil {
				t.Fatal(err)
			}
		}
	}
	serve(6)
	v1 := dep.Version.ID

	// Publish a v2 whose first dense layer is IDENTICAL to v1's — a
	// head-only fine-tune. Weight comparison alone cannot tell them apart.
	art, err := p.Registry.Load(versions[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range art.Layers() {
		if d, ok := l.(*nn.Dense); ok && d.In == 16 {
			for i := range d.W.Value.Data {
				d.W.Value.Data[i] += 0.01
			}
		}
	}
	v2s, err := p.Publish("clf2", art, ds, DefaultOptimizationSpec(ds))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Update(v2s[0], UpdateOptions{}); err != nil {
		t.Fatal(err)
	}
	serve(5)

	rep, err := dep.Meter.BuildAttestedReport()
	if err != nil {
		t.Fatal(err)
	}
	// Rate 1: every charge on both sides of the update carries a proof.
	perVersion := map[string]int{}
	for _, att := range rep.Attestations {
		perVersion[att.ModelID]++
	}
	if perVersion[v1] != 6 || perVersion[dep.Version.ID] != 5 {
		t.Fatalf("report attests %v, want 6 charges under %s and 5 under %s", perVersion, v1, dep.Version.ID)
	}
	rcOK := p.Settler.SettleAttested(rep)
	if !rcOK.OK {
		t.Fatalf("cross-version report rejected: %s", rcOK.Reason)
	}
	if rcOK.ProofsChecked != 11 {
		t.Fatalf("%d proofs verified, want all 11", rcOK.ProofsChecked)
	}
	// Six retired-version proofs and the vendor's verification of them
	// share one encoding of v1; v2 likewise.
	if prepares[v1] != 1 || prepares[dep.Version.ID] != 1 || len(prepares) != 2 {
		t.Fatalf("proved layers prepared %v, want %s and %s exactly once each", prepares, v1, dep.Version.ID)
	}
	dep.Meter.Acknowledge(rcOK.AckSeq)

	// Relabel: produce a fresh window, then claim v1 charges were served
	// by v2 (same first-dense weights). Must be rejected via the context.
	serve(4)
	rep2, err := dep.Meter.BuildAttestedReport()
	if err != nil {
		t.Fatal(err)
	}
	relabeled := false
	for i := range rep2.Attestations {
		if rep2.Attestations[i].ModelID == dep.Version.ID {
			rep2.Attestations[i].ModelID = v1
			relabeled = true
			break
		}
	}
	if !relabeled {
		t.Fatal("nothing to relabel in second window")
	}
	rc := p.Settler.SettleAttested(rep2)
	if rc.OK {
		t.Fatal("relabeled model version settled")
	}
	if !strings.Contains(rc.Reason, "proof") {
		t.Fatalf("relabeling rejected for the wrong reason: %s", rc.Reason)
	}
	if prepares[v1] != 1 || len(prepares) != 2 {
		t.Fatalf("second window re-prepared a proved layer: %v", prepares)
	}
}

// Parallel deploys and settlements of one version resolve its proved layer
// concurrently: all of them must get the one shared encoding, prepared
// once.
func TestProvedWeightsSharedAcrossGoroutines(t *testing.T) {
	p, _, versions := verifiedFixture(t, 26, 4)
	var prepares atomic.Int64
	p.onPrepare = func(string) { prepares.Add(1) }
	const callers = 32
	got := make([]*verify.PreparedWeights, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pw, err := p.provedWeights(versions[0].ID)
			if err != nil {
				t.Error(err)
			}
			got[i] = pw
		}(i)
	}
	wg.Wait()
	for i, pw := range got {
		if pw == nil || pw != got[0] {
			t.Fatalf("caller %d got encoding %p, caller 0 got %p", i, pw, got[0])
		}
	}
	if n := prepares.Load(); n != 1 {
		t.Fatalf("proved layer prepared %d times, want 1", n)
	}
	if _, err := p.provedWeights("no-such-model"); err == nil {
		t.Fatal("unknown model resolved to a proved layer")
	}
}

// Evidence is quantized straight into the retained row. The codes must be
// the ones the copy → tensor → quant.QuantizeActivations path retained
// before, edge cases included, and a row of the wrong width retains none.
// The second pass quantizes into recycled rows a wider and a narrower
// version left behind: stale codes are overwritten, and a row too narrow
// for this version is replaced.
func TestRetainedEvidenceCodes(t *testing.T) {
	p, _, _ := verifiedFixture(t, 24, 1)
	dep, err := p.Deploy("phone-00", "clf", DeployConfig{PrepaidQueries: 10})
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	rows := [][]float32{
		{0.5, -1.25, 3, -0.001},
		{nan, 1, -2, nan},
		{inf, 1, -1, 0},
		{-inf, inf, nan, 2},
		{0, 0, 0, 0},
		{nan, nan, nan, nan},
		{1e-40, -1e-40, 0, 1e-45},
		{math.MaxFloat32, -math.MaxFloat32, 1, -1},
		{1, 2, 3},       // too narrow
		{1, 2, 3, 4, 5}, // too wide
		nil,             // charged, not served
	}
	dep.mu.Lock()
	defer dep.mu.Unlock()
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			for i := range rows {
				stale := make([]int8, 3+5*(i%2))
				for j := range stale {
					stale[j] = -99
				}
				dep.freeRows = append(dep.freeRows, stale)
			}
		}
		for i, row := range rows {
			seq := uint64(pass*len(rows) + i + 1)
			dep.retainLocked(seq, row)
			got := dep.retained[seq]
			if got.modelID != dep.Version.ID {
				t.Fatalf("row %d retained under %q, want %q", i, got.modelID, dep.Version.ID)
			}
			if len(row) != 4 {
				if got.input != nil {
					t.Fatalf("row %d (width %d) retained codes %v, want none", i, len(row), got.input)
				}
				continue
			}
			want, _ := quant.QuantizeActivations(tensor.FromSlice(append([]float32(nil), row...), 1, len(row)))
			if !slices.Equal(got.input, want) {
				t.Fatalf("pass %d row %d %v: retained codes %v, old path %v", pass, i, row, got.input, want)
			}
		}
	}
}

// Past 1 024 retained charges the evidence map is swept, but only when an
// acknowledgment has arrived since the last sweep: an unsettled backlog
// is kept whole (every charge in it may be sampled), a settled one is
// dropped on the next query, and the next window still proves. The swept
// rows are reused by the next window, so a settled report's attestations
// must not share them: their inputs stay as they were sent.
func TestEvidenceSweepFollowsSettlement(t *testing.T) {
	p, ds, _ := verifiedFixture(t, 25, 16)
	dep, err := p.Deploy("phone-00", "clf", DeployConfig{PrepaidQueries: 5000})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 4)
	serve := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			for f := 0; f < 4; f++ {
				x[f] = ds.X.At2(i%ds.Len(), f)
			}
			if _, err := dep.Infer(x); err != nil {
				t.Fatal(err)
			}
		}
	}
	settle := func() metering.AttestedReport {
		t.Helper()
		rep, err := dep.Meter.BuildAttestedReport()
		if err != nil {
			t.Fatal(err)
		}
		rc := p.Settler.SettleAttested(rep)
		if !rc.OK || rc.ProofsChecked == 0 {
			t.Fatalf("settlement receipt %+v", rc)
		}
		dep.Meter.Acknowledge(rc.AckSeq)
		return rep
	}
	serve(1100)
	if got := len(dep.retained); got != 1100 {
		t.Fatalf("unsettled backlog retains %d charges, want all 1100", got)
	}
	sent := settle()
	inputs := make([][]int8, len(sent.Attestations))
	for i, a := range sent.Attestations {
		inputs[i] = slices.Clone(a.Input)
	}
	serve(1)
	if got := len(dep.retained); got != 1 {
		t.Fatalf("after settlement %d charges retained, want the 1 unsettled", got)
	}
	serve(1100)
	if got := len(dep.retained); got != 1101 {
		t.Fatalf("second backlog retains %d charges, want 1101", got)
	}
	for i, a := range sent.Attestations {
		if !slices.Equal(a.Input, inputs[i]) {
			t.Fatalf("settled attestation of charge %d: input %v became %v as its row was reused", a.Seq, inputs[i], a.Input)
		}
	}
	settle()
}

// A deployment serves and settles at once: each settlement's attestations
// read the evidence rows the serving goroutine retains and recycles, under
// the deployment's lock (run under -race).
func TestSettleWhileServing(t *testing.T) {
	p, ds, _ := verifiedFixture(t, 26, 16)
	dep, err := p.Deploy("phone-00", "clf", DeployConfig{PrepaidQueries: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error)
	go func() {
		x := make([]float32, 4)
		for i := 0; i < 6000; i++ {
			for f := 0; f < 4; f++ {
				x[f] = ds.X.At2(i%ds.Len(), f)
			}
			if _, err := dep.Infer(x); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for settled := 0; ; settled++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d settlements while serving", settled)
			return
		default:
		}
		rep, err := dep.Meter.BuildAttestedReport()
		if err != nil {
			t.Fatal(err)
		}
		if rc := p.Settler.SettleAttested(rep); !rc.OK {
			t.Fatalf("settlement %d receipt %+v", settled, rc)
		} else {
			dep.Meter.Acknowledge(rc.AckSeq)
		}
	}
}

// TestSettlementAllocationPin pins what one settlement of a 2 048-charge
// window allocates, device and vendor together: metering.MustSettle over
// a loopback metering.Serve, at GOMAXPROCS 1, after a warm cycle. The
// count is settleAllocsPerProof for each sampled charge (the device's
// proof, its copy of the row and its wire bytes; the vendor's decoded
// attestation and its verification) plus settleAllocs for the window
// (the report, the frames and the connection). The server's goroutines
// run beside the call, and up to 6 more of their allocations were seen
// to land inside it, so the pin is an upper bound with that margin.
func TestSettlementAllocationPin(t *testing.T) {
	const window = 2048
	p, ds, _ := verifiedFixture(t, 25, 16)
	dep, err := p.Deploy("phone-00", "clf", DeployConfig{PrepaidQueries: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv := settlementServer(t, p)
	x := make([]float32, 4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for cycle := 0; cycle < 4; cycle++ {
		for i := 0; i < window; i++ {
			for f := 0; f < 4; f++ {
				x[f] = ds.X.At2(i%ds.Len(), f)
			}
			if _, err := dep.Infer(x); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := metering.MustSettle(srv.Addr(), dep.Meter)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		rc, _ := p.Settler.LastReceipt(dep.Meter.Voucher().ID)
		if rc.AckSeq != uint64((cycle+1)*window) || rc.ProofsChecked == 0 {
			t.Fatalf("cycle %d: receipt %+v", cycle, rc)
		}
		if cycle == 0 || raceBuild {
			continue
		}
		got := after.Mallocs - before.Mallocs
		if pin := settleAllocs + settleAllocsPerProof*uint64(rc.ProofsChecked); got > pin+6 {
			t.Errorf("cycle %d: settling %d charges with %d proofs allocates %d times, pinned at %d + 6", cycle, window, rc.ProofsChecked, got, pin)
		}
	}
}

// settleAllocsPerProof and settleAllocs: see TestSettlementAllocationPin.
// At the parent of in-place folding and recycled rows a settlement of
// this fixture allocated about 48 per proof and 81 more.
const (
	settleAllocsPerProof = 33
	settleAllocs         = 80
)
