package market

import (
	"testing"
	"time"

	"tinymlops/internal/device"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

func dev(t *testing.T, profile, id string, charging bool) *device.Device {
	t.Helper()
	caps, err := device.ProfileByName(profile)
	if err != nil {
		t.Fatal(err)
	}
	d := device.NewDevice(id, caps, nil)
	d.SetNet(device.WiFi)
	d.SetCharging(charging)
	return d
}

func TestNewOfferBatteryPremium(t *testing.T) {
	charged := NewOffer(dev(t, "phone", "p1", true), 1, 2, 1e12)
	onBattery := NewOffer(dev(t, "phone", "p2", false), 1, 2, 1e12)
	if onBattery.PricePerGMAC <= charged.PricePerGMAC {
		t.Fatalf("battery device should ask more: %v vs %v", onBattery.PricePerGMAC, charged.PricePerGMAC)
	}
	ratio := onBattery.PricePerGMAC / charged.PricePerGMAC
	if ratio < 2.9 || ratio > 3.1 {
		t.Fatalf("battery premium ratio = %v, want ≈3", ratio)
	}
}

func TestMatchPrefersCheapestFeasible(t *testing.T) {
	gw := dev(t, "edge-gateway", "gw", true)
	phone := dev(t, "phone", "ph", true)
	offers := []Offer{
		NewOffer(phone, 1, 2, 1e12),
		NewOffer(gw, 1, 2, 1e12),
	}
	w := Workload{ID: "job", MACs: 1e6, Bits: 8, ModelBytes: 1 << 20, RAMBytes: 1 << 20,
		RequiredOps: []string{"dense"}, MaxPricePerGMAC: 1e9}
	got, unplaced := Match([]Workload{w}, offers)
	if len(unplaced) != 0 || len(got) != 1 {
		t.Fatalf("assignments %v, unplaced %v", got, unplaced)
	}
	// The gateway's energy per MAC is lowest, so it is the cheapest host.
	if got[0].DeviceID != "gw" {
		t.Fatalf("matched %s, want gw", got[0].DeviceID)
	}
	if got[0].Latency <= 0 {
		t.Fatal("no latency modeled")
	}
}

func TestMatchRespectsConstraints(t *testing.T) {
	m0 := dev(t, "m0-sensor", "m0", true)
	offers := []Offer{NewOffer(m0, 1, 2, 1e12)}
	cases := []struct {
		name string
		w    Workload
	}{
		{"ops", Workload{ID: "conv", MACs: 1000, Bits: 8, RequiredOps: []string{"conv2d"}, MaxPricePerGMAC: 1e9}},
		{"flash", Workload{ID: "big", MACs: 1000, Bits: 8, ModelBytes: 10 << 20, MaxPricePerGMAC: 1e9}},
		{"price", Workload{ID: "cheap", MACs: 1000, Bits: 8, MaxPricePerGMAC: 1e-12}},
		{"latency", Workload{ID: "fast", MACs: 1e9, Bits: 8, MaxLatency: time.Microsecond, MaxPricePerGMAC: 1e9}},
	}
	for _, c := range cases {
		_, unplaced := Match([]Workload{c.w}, offers)
		if len(unplaced) != 1 {
			t.Fatalf("%s constraint not enforced", c.name)
		}
	}
	// A satisfiable workload places.
	ok := Workload{ID: "ok", MACs: 1000, Bits: 8, RequiredOps: []string{"dense"}, MaxPricePerGMAC: 1e9}
	got, unplaced := Match([]Workload{ok}, offers)
	if len(got) != 1 || len(unplaced) != 0 {
		t.Fatalf("feasible workload unplaced: %v / %v", got, unplaced)
	}
}

func TestMatchCapacityDepletes(t *testing.T) {
	gw := dev(t, "edge-gateway", "gw", true)
	offers := []Offer{NewOffer(gw, 1, 2, 1500)}
	w := Workload{MACs: 1000, Bits: 8, MaxPricePerGMAC: 1e9}
	w1, w2 := w, w
	w1.ID, w2.ID = "a", "b"
	got, unplaced := Match([]Workload{w1, w2}, offers)
	if len(got) != 1 || len(unplaced) != 1 || unplaced[0] != "b" {
		t.Fatalf("capacity not enforced: %v / %v", got, unplaced)
	}
}

// TestMatchPlacesAtEachBound pins Match's inclusive bounds: a workload
// whose MACs equal the offer's remaining capacity, whose price cap equals
// the ask, or whose latency bound equals the host's latency places.
func TestMatchPlacesAtEachBound(t *testing.T) {
	gw := dev(t, "edge-gateway", "gw", true)
	offer := NewOffer(gw, 1, 2, 1500)
	lat := gw.Caps.InferenceLatency(1000, 8)
	base := Workload{ID: "w", MACs: 1000, Bits: 8, MaxPricePerGMAC: 1e9}
	for _, c := range []struct {
		name  string
		first int64 // MACs an earlier workload takes from the offer
		edit  func(*Workload)
	}{
		{"capacity", 500, func(*Workload) {}},
		{"price", 0, func(w *Workload) { w.MaxPricePerGMAC = offer.PricePerGMAC }},
		{"latency", 0, func(w *Workload) { w.MaxLatency = lat }},
	} {
		w := base
		c.edit(&w)
		jobs := []Workload{w}
		if c.first > 0 {
			jobs = []Workload{{ID: "first", MACs: c.first, Bits: 8, MaxPricePerGMAC: 1e9}, w}
		}
		got, unplaced := Match(jobs, []Offer{offer})
		if len(got) != len(jobs) || len(unplaced) != 0 {
			t.Errorf("%s at its bound\n  expected: %d placed, none unplaced\n  actual: %d placed, unplaced %v", c.name, len(jobs), len(got), unplaced)
		}
	}
}

func splitFixture(t *testing.T) []nn.LayerCost {
	t.Helper()
	rng := tensor.NewRNG(2)
	net := nn.NewNetwork([]int{64},
		nn.NewDense(64, 256, rng), nn.NewReLU(),
		nn.NewDense(256, 256, rng), nn.NewReLU(),
		nn.NewDense(256, 8, rng))
	costs, err := net.Summary()
	if err != nil {
		t.Fatal(err)
	}
	return costs
}

func TestBestSplitExtremes(t *testing.T) {
	costs := splitFixture(t)
	m0, _ := device.ProfileByName("m0-sensor")
	cloud, _ := device.ProfileByName("edge-gateway")

	// Fat pipe, slow device: everything should move to the cloud (cut 0
	// or at most a trivial prefix).
	fast, _, err := BestSplit(costs, m0, cloud, 32, 100e6, time.Millisecond, 64*4)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Cut > 1 {
		t.Fatalf("fat pipe should offload, cut = %d", fast.Cut)
	}
	// No pipe: everything on device.
	offline, curve, err := BestSplit(costs, m0, cloud, 32, 0, 0, 64*4)
	if err != nil {
		t.Fatal(err)
	}
	if offline.Cut != len(costs) || len(curve) != 1 {
		t.Fatalf("offline split cut = %d", offline.Cut)
	}
	// Slow pipe with a fast device: prefer staying on device.
	phone, _ := device.ProfileByName("phone")
	slow, _, err := BestSplit(costs, phone, cloud, 32, 1e3, 200*time.Millisecond, 64*4)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Cut != len(costs) {
		t.Fatalf("slow pipe should stay on device, cut = %d", slow.Cut)
	}
}

func TestBestSplitMovesDeviceWardAsBandwidthDrops(t *testing.T) {
	costs := splitFixture(t)
	m4, _ := device.ProfileByName("m4-wearable")
	cloud, _ := device.ProfileByName("edge-gateway")
	prevCut := -1
	for _, bw := range []float64{100e6, 1e6, 1e4, 1e2} {
		best, _, err := BestSplit(costs, m4, cloud, 32, bw, 10*time.Millisecond, 64*4)
		if err != nil {
			t.Fatal(err)
		}
		if best.Cut < prevCut {
			t.Fatalf("cut moved cloud-ward as bandwidth dropped: %d after %d at bw=%v", best.Cut, prevCut, bw)
		}
		prevCut = best.Cut
	}
	if prevCut != len(costs) {
		t.Fatalf("at 100 B/s everything should be on-device, cut = %d", prevCut)
	}
}

func TestBestSplitCurveConsistency(t *testing.T) {
	costs := splitFixture(t)
	m4, _ := device.ProfileByName("m4-wearable")
	cloud, _ := device.ProfileByName("edge-gateway")
	best, curve, err := BestSplit(costs, m4, cloud, 32, 1e6, 10*time.Millisecond, 64*4)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != len(costs)+1 {
		t.Fatalf("curve has %d points, want %d", len(curve), len(costs)+1)
	}
	for _, p := range curve {
		if p.Total != p.DeviceLatency+p.TxLatency+p.CloudLatency {
			t.Fatalf("plan decomposition inconsistent: %+v", p)
		}
		if p.Total < best.Total {
			t.Fatalf("best is not minimal: %+v < %+v", p, best)
		}
	}
	// Full-edge plan must have zero network time.
	if curve[len(costs)].TxLatency != 0 || curve[len(costs)].CloudLatency != 0 {
		t.Fatalf("full-edge plan touches the network: %+v", curve[len(costs)])
	}
	if _, _, err := BestSplit(nil, m4, cloud, 32, 1e6, 0, 0); err == nil {
		t.Fatal("accepted empty layer costs")
	}
}

// TestBestSplitRejectsNonsenseInputs pins the input validation: negative
// bandwidth, input size or RTT are configuration bugs, not conditions, and
// must error rather than produce a plan.
func TestBestSplitRejectsNonsenseInputs(t *testing.T) {
	costs := splitFixture(t)
	m4, _ := device.ProfileByName("m4-wearable")
	cloud, _ := device.ProfileByName("edge-gateway")
	cases := []struct {
		name  string
		bw    float64
		rtt   time.Duration
		input int64
	}{
		{"negative bandwidth", -1, 0, 64},
		{"negative input bytes", 1e6, 0, -64},
		{"negative rtt", 1e6, -time.Millisecond, 64},
	}
	for _, c := range cases {
		if _, _, err := BestSplit(costs, m4, cloud, 32, c.bw, c.rtt, c.input); err == nil {
			t.Fatalf("%s accepted", c.name)
		}
	}
	// Zero bandwidth is a condition (offline), not nonsense: it forces the
	// full-edge plan rather than erroring.
	p, curve, err := BestSplit(costs, m4, cloud, 32, 0, 0, 64)
	if err != nil || p.Cut != len(costs) || len(curve) != 1 {
		t.Fatalf("offline plan = %+v (curve %d), err %v", p, len(curve), err)
	}
}

// TestBestSplitZeroAndSingleLayerModels covers the degenerate model
// shapes: an empty cost list errors, and a single-layer model yields
// exactly the two valid plans (all-cloud and all-edge).
func TestBestSplitZeroAndSingleLayerModels(t *testing.T) {
	m4, _ := device.ProfileByName("m4-wearable")
	cloud, _ := device.ProfileByName("edge-gateway")
	if _, _, err := BestSplit([]nn.LayerCost{}, m4, cloud, 32, 1e6, 0, 64); err == nil {
		t.Fatal("accepted zero-layer model")
	}
	rng := tensor.NewRNG(3)
	net := nn.NewNetwork([]int{16}, nn.NewDense(16, 4, rng))
	costs, err := net.Summary()
	if err != nil {
		t.Fatal(err)
	}
	best, curve, err := BestSplit(costs, m4, cloud, 32, 1e9, time.Microsecond, 16*4)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 2 {
		t.Fatalf("single-layer curve has %d plans, want 2", len(curve))
	}
	if curve[0].Cut != 0 || curve[1].Cut != 1 {
		t.Fatalf("curve cuts %d,%d", curve[0].Cut, curve[1].Cut)
	}
	// Cut 1 keeps the single layer on-device: no network terms at all.
	if curve[1].TxLatency != 0 || curve[1].CloudLatency != 0 {
		t.Fatalf("full-edge plan touches the network: %+v", curve[1])
	}
	// Cut 0 ships the raw input: its transfer time must include the RTT.
	if curve[0].TxLatency < time.Microsecond {
		t.Fatalf("all-cloud plan ignores rtt: %+v", curve[0])
	}
	if best.Total != curve[0].Total && best.Total != curve[1].Total {
		t.Fatalf("best %+v not on the curve", best)
	}
	// On a fat pipe the fast cloud wins the single-layer model.
	if best.Cut != 0 {
		t.Fatalf("fat pipe should offload the single layer, cut %d", best.Cut)
	}
}
