package selector

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/nn"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/tensor"
)

// e2Candidates builds experiment E2's candidate family — two architectures ×
// five precisions, accuracies measured, not assumed — with a shorter
// training run.
func e2Candidates(t *testing.T) []*registry.ModelVersion {
	t.Helper()
	rng := tensor.NewRNG(10)
	ds := dataset.Blobs(rng, 1200, 64, 4, 3)
	train, test := ds.Split(0.8, rng)
	eval := func(n *nn.Network) float64 { return nn.Evaluate(n, test.X, test.Y) }
	big := nn.NewNetwork([]int{64},
		nn.NewDense(64, 512, rng), nn.NewReLU(),
		nn.NewDense(512, 256, rng), nn.NewReLU(),
		nn.NewDense(256, 4, rng))
	small := nn.NewNetwork([]int{64},
		nn.NewDense(64, 32, rng), nn.NewReLU(),
		nn.NewDense(32, 4, rng))
	reg := registry.New()
	spec := registry.OptimizationSpec{
		Schemes:  []quant.Scheme{quant.Int8, quant.Int4, quant.Ternary, quant.Binary},
		Evaluate: eval,
	}
	var candidates []*registry.ModelVersion
	for _, m := range []*nn.Network{big, small} {
		if _, err := nn.Train(m, train.X, train.Y, nn.TrainConfig{
			Epochs: 2, BatchSize: 32, Optimizer: nn.NewSGD(0.05).WithMomentum(0.9), RNG: rng,
		}); err != nil {
			t.Fatal(err)
		}
		vs, err := reg.RegisterWithVariants("clf", m, eval(m), spec)
		if err != nil {
			t.Fatal(err)
		}
		candidates = append(candidates, vs...)
	}
	return candidates
}

// TestSelectGoldens pins Select's choice and the exact bits of every score
// against testdata/select.golden, recorded at commit 2fffa04 — when the
// objective weights and the latency and download budgets were still Policy
// fields nobody set. One row per standard profile × link × battery level ×
// policy: the zero Policy, DefaultPolicy (battery-aware) and a Schemes pin.
func TestSelectGoldens(t *testing.T) {
	data, err := os.ReadFile("testdata/select.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	candidates := e2Candidates(t)
	policies := []struct {
		name   string
		policy Policy
	}{
		{"zero", Policy{}},
		{"default", DefaultPolicy()},
		{"int8-pin", Policy{Schemes: []quant.Scheme{quant.Int8}, BatteryAware: true}},
	}
	var got []string
	for _, prof := range device.StandardProfiles() {
		for _, link := range []device.NetState{device.WiFi, device.Cellular} {
			for _, battery := range []float64{1, 0.2} {
				for _, p := range policies {
					d := device.NewDevice(prof.Name, prof, tensor.NewRNG(11))
					d.SetNet(link)
					d.SetBatteryLevel(battery)
					row := fmt.Sprintf("%s/%v/%v/%s:", prof.Name, link, battery, p.name)
					dec, err := Select(d, candidates, p.policy)
					if err != nil {
						row += " " + err.Error()
					} else {
						for i := range dec.Evaluations {
							if dec.Chosen == &dec.Evaluations[i] {
								row += fmt.Sprintf(" chosen=%d(%v)", i, dec.Chosen.Version.Scheme)
							}
						}
					}
					for _, ev := range dec.Evaluations {
						if ev.Feasible {
							row += fmt.Sprintf(" %016x", math.Float64bits(ev.Score))
						} else {
							row += " -"
						}
					}
					got = append(got, row)
				}
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("testdata/select.golden has %d rows, the matrix %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
