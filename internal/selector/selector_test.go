package selector

import (
	"strings"
	"testing"
	"time"

	"tinymlops/internal/device"
	"tinymlops/internal/nn"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/tensor"
)

// buildCandidates registers a large and a small MLP plus int8 variants and
// returns all versions: the multi-fidelity candidate set of §III-A.
func buildCandidates(t *testing.T) (*registry.Registry, []*registry.ModelVersion) {
	t.Helper()
	rng := tensor.NewRNG(1)
	reg := registry.New()
	big := nn.NewNetwork([]int{128},
		nn.NewDense(128, 512, rng), nn.NewReLU(),
		nn.NewDense(512, 256, rng), nn.NewReLU(),
		nn.NewDense(256, 10, rng))
	small := nn.NewNetwork([]int{128},
		nn.NewDense(128, 32, rng), nn.NewReLU(),
		nn.NewDense(32, 10, rng))

	var all []*registry.ModelVersion
	bigBase, err := reg.RegisterModel("clf", big, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, bigBase)
	for _, s := range []quant.Scheme{quant.Int8, quant.Binary} {
		q, err := quant.FakeQuantizeNetwork(big, s)
		if err != nil {
			t.Fatal(err)
		}
		acc := 0.94
		if s == quant.Binary {
			acc = 0.82
		}
		v, err := reg.RegisterVariant(bigBase.ID, q, s, acc)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, v)
	}
	smallBase, err := reg.RegisterModel("clf", small, 0.90)
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, smallBase)
	q8, _ := quant.FakeQuantizeNetwork(small, quant.Int8)
	v8, err := reg.RegisterVariant(smallBase.ID, q8, quant.Int8, 0.89)
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, v8)
	return reg, all
}

func deviceOf(t *testing.T, profile string, seed uint64) *device.Device {
	t.Helper()
	caps, err := device.ProfileByName(profile)
	if err != nil {
		t.Fatal(err)
	}
	d := device.NewDevice(profile+"-t", caps, tensor.NewRNG(seed))
	d.SetBehavior(1, 1, 0) // charging, wifi
	d.Tick()
	return d
}

func TestEdgeServerPicksMostAccurate(t *testing.T) {
	_, cands := buildCandidates(t)
	gw := deviceOf(t, "edge-gateway", 1)
	dec, err := Select(gw, cands, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Chosen.Version.Metrics.Accuracy < 0.95 {
		t.Fatalf("edge server chose %v (acc %.2f), want the 0.95 base",
			dec.Chosen.Version.Scheme, dec.Chosen.Version.Metrics.Accuracy)
	}
}

func TestConstrainedMCUGetsQuantizedOrSmall(t *testing.T) {
	_, cands := buildCandidates(t)
	m0 := deviceOf(t, "m0-sensor", 2)
	dec, err := Select(m0, cands, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	chosen := dec.Chosen.Version
	// The big fp32 artifact (≈800 KB) exceeds the 256 KB flash; whatever is
	// chosen must fit and must therefore be quantized and/or small.
	if chosen.Metrics.SizeBytes > 256<<10 {
		t.Fatalf("chosen variant does not fit flash: %d bytes", chosen.Metrics.SizeBytes)
	}
	// The infeasible big fp32 base must be recorded with a reason.
	foundRejection := false
	for _, ev := range dec.Evaluations {
		if !ev.Feasible && strings.Contains(ev.Reason, "flash") {
			foundRejection = true
		}
	}
	if !foundRejection {
		t.Fatal("no flash rejection recorded for the big fp32 model")
	}
}

func TestOpSupportRejection(t *testing.T) {
	rng := tensor.NewRNG(3)
	reg := registry.New()
	conv := nn.NewNetwork([]int{1, 8, 8},
		nn.NewConv2D(1, 2, 3, 3, 1, 1, rng), nn.NewReLU(),
		nn.NewFlatten(), nn.NewDense(128, 2, rng))
	v, err := reg.RegisterModel("convnet", conv, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	m0 := deviceOf(t, "m0-sensor", 4)
	_, err = Select(m0, []*registry.ModelVersion{v}, DefaultPolicy())
	if err == nil {
		t.Fatal("m0 accepted a conv2d model without a conv kernel")
	}
	m7 := deviceOf(t, "m7-camera", 5)
	if _, err := Select(m7, []*registry.ModelVersion{v}, DefaultPolicy()); err != nil {
		t.Fatalf("m7 should support conv2d: %v", err)
	}
}

func TestBatteryAwareSelectionPrefersCheapModel(t *testing.T) {
	_, cands := buildCandidates(t)
	caps, _ := device.ProfileByName("m4-wearable")
	low := device.NewDevice("m4-low", caps, tensor.NewRNG(8))
	// Drain to ~10% without charging.
	macs := int64(caps.BatteryJoule * 0.9 / caps.EnergyPerMACJoule)
	if _, err := low.RunInference(macs, 8); err != nil {
		t.Fatal(err)
	}
	low.SetBehavior(0, 1, 0)

	policy := DefaultPolicy()
	policy.BatteryAware = true
	decLow, err := Select(low, cands, policy)
	if err != nil {
		t.Fatal(err)
	}
	full := deviceOf(t, "m4-wearable", 9)
	decFull, err := Select(full, cands, policy)
	if err != nil {
		t.Fatal(err)
	}
	if decLow.Chosen.Version.Metrics.MACs > decFull.Chosen.Version.Metrics.MACs {
		t.Fatalf("low-battery device chose a heavier model (%d MACs) than the charged one (%d)",
			decLow.Chosen.Version.Metrics.MACs, decFull.Chosen.Version.Metrics.MACs)
	}
	if decLow.Chosen.Version.Metrics.MACs == decFull.Chosen.Version.Metrics.MACs &&
		decLow.Chosen.Version.Metrics.Accuracy > decFull.Chosen.Version.Metrics.Accuracy {
		t.Log("battery-aware selection coincided; acceptable but unexpected")
	}
}

func TestSelectErrors(t *testing.T) {
	gw := deviceOf(t, "edge-gateway", 10)
	if _, err := Select(gw, nil, DefaultPolicy()); err == nil {
		t.Fatal("empty candidate list accepted")
	}
}

// TestSelectForFleetCoversAllDevices runs Select across a whole standard
// fleet: every profile must get a feasible variant, and not all the same one.
func TestSelectForFleetCoversAllDevices(t *testing.T) {
	_, cands := buildCandidates(t)
	fleet, err := device.NewStandardFleet(device.FleetSpec{CountPerProfile: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range fleet.Devices() {
		d.SetBehavior(1, 1, 0)
	}
	fleet.Tick()
	// Heterogeneity: the fleet should not all run the same variant.
	distinct := make(map[string]bool)
	for _, d := range fleet.Devices() {
		dec, err := Select(d, cands, DefaultPolicy())
		if err != nil {
			t.Fatalf("%s: no feasible variant: %v", d.ID, err)
		}
		distinct[dec.Chosen.Version.ID] = true
	}
	if len(distinct) < 2 {
		t.Fatal("fleet-wide selection collapsed to a single variant")
	}
}

func TestZeroPolicyGetsDefaults(t *testing.T) {
	_, cands := buildCandidates(t)
	gw := deviceOf(t, "edge-gateway", 12)
	dec, err := Select(gw, cands, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Chosen == nil || dec.Chosen.Score == 0 {
		t.Fatalf("zero policy produced no scored decision: %+v", dec.Chosen)
	}
}

// TestPolicySchemeAllowlist pins the cohort-pinning knob: a non-empty
// Schemes list makes every other precision infeasible, for both explicit
// and zero-weight (defaulted) policies.
func TestPolicySchemeAllowlist(t *testing.T) {
	_, cands := buildCandidates(t)
	gw := deviceOf(t, "edge-gateway", 13)
	for _, scheme := range []quant.Scheme{quant.Float32, quant.Int8, quant.Binary} {
		dec, err := Select(gw, cands, Policy{Schemes: []quant.Scheme{scheme}})
		if err != nil {
			t.Fatalf("scheme %v: %v", scheme, err)
		}
		if got := dec.Chosen.Version.Scheme; got != scheme {
			t.Fatalf("pinned %v, selected %v", scheme, got)
		}
		for _, ev := range dec.Evaluations {
			if ev.Version.Scheme != scheme && ev.Feasible {
				t.Fatalf("scheme %v feasible under a %v-only policy", ev.Version.Scheme, scheme)
			}
		}
	}
	// An allowlist no candidate matches fails selection outright.
	if _, err := Select(gw, cands, Policy{Schemes: []quant.Scheme{quant.Ternary}}); err == nil {
		t.Fatal("selection succeeded with an unsatisfiable scheme allowlist")
	}
}

// TestTieGoesToFirstListed: candidates that score the same leave the choice
// with the one listed first, so the caller's order breaks ties.
func TestTieGoesToFirstListed(t *testing.T) {
	_, cands := buildCandidates(t)
	twin := *cands[3]
	twin.ID = "twin-of-" + cands[3].ID
	gw := deviceOf(t, "edge-gateway", 14)
	dec, err := Select(gw, []*registry.ModelVersion{cands[3], &twin}, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := dec.Evaluations[0].Score, dec.Evaluations[1].Score; a != b {
		t.Fatalf("twins score %v and %v: no tie to break", a, b)
	}
	if got := dec.Chosen.Version.ID; got != cands[3].ID {
		t.Fatalf("tie\n  expected: %s (listed first)\n  actual: %s", cands[3].ID, got)
	}
}

// TestBatteryAtThresholdIsNotLow: the battery-aware policy weighs energy ×4
// below 30 % charge, so a device at exactly 0.3 scores as a full one does.
func TestBatteryAtThresholdIsNotLow(t *testing.T) {
	_, cands := buildCandidates(t)
	caps, err := device.ProfileByName("m4-wearable")
	if err != nil {
		t.Fatal(err)
	}
	score := func(level float64) float64 {
		d := device.NewDevice("m4-battery", caps, tensor.NewRNG(15))
		d.SetBatteryLevel(level)
		if d.Charging() || d.BatteryLevel() != level {
			t.Fatalf("fixture: battery %v, charging %v, want %v on battery", d.BatteryLevel(), d.Charging(), level)
		}
		dec, err := Select(d, cands[4:], DefaultPolicy())
		if err != nil {
			t.Fatal(err)
		}
		return dec.Chosen.Score
	}
	full, at, below := score(1), score(0.3), score(0.29)
	if at != full {
		t.Fatalf("score at battery 0.3\n  expected: %v (as at 1.0)\n  actual: %v", full, at)
	}
	if below >= full {
		t.Fatalf("score at battery 0.29 is %v, not below the full battery's %v: the low-battery weight never applied", below, full)
	}
}

// TestOfflineDownloadOrdersBySize: with no link, a variant's download time
// is its size in milliseconds, a finite stand-in, so of two otherwise equal
// variants the smaller still wins.
func TestOfflineDownloadOrdersBySize(t *testing.T) {
	_, cands := buildCandidates(t)
	smaller := *cands[4]
	smaller.ID = "smaller-" + cands[4].ID
	smaller.Metrics.SizeBytes /= 2
	d := deviceOf(t, "m4-wearable", 16)
	d.SetNet(device.Offline)
	if d.Net() != device.Offline {
		t.Fatalf("fixture: device is %v, want offline", d.Net())
	}
	dec, err := Select(d, []*registry.ModelVersion{cands[4], &smaller}, DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range dec.Evaluations {
		if want := time.Duration(ev.Version.Metrics.SizeBytes) * time.Millisecond; ev.DownloadTime != want {
			t.Errorf("offline download of %d B\n  expected: %v\n  actual: %v", ev.Version.Metrics.SizeBytes, want, ev.DownloadTime)
		}
	}
	if got := dec.Chosen.Version.ID; got != smaller.ID {
		t.Fatalf("offline choice\n  expected: %s (%d B)\n  actual: %s", smaller.ID, smaller.Metrics.SizeBytes, got)
	}
}
