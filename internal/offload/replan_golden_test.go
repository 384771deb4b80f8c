package offload

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"tinymlops/internal/device"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// TestReplannerGoldens pins a Replanner's whole trace — the plan in force,
// whether the observation moved the cut, and the re-evaluation count — over
// a scripted bandwidth and battery walk against testdata/replan.golden,
// recorded at commit 2fffa04, when the triggers, the gain bar and the
// low-battery switch were still ReplanConfig fields nobody set. The walk
// crosses every edge the replanner has: sub-threshold oscillation, the ×2
// bandwidth trigger in both directions, offline and recovery, the 0.25
// battery trigger, and the switch to the energy objective below 0.1.
func TestReplannerGoldens(t *testing.T) {
	data, err := os.ReadFile("testdata/replan.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")

	m4, _ := device.ProfileByName("m4-wearable")
	gw, _ := device.ProfileByName("edge-gateway")
	rng := tensor.NewRNG(2)
	inputs := []int64{64 * 4, 128 * 4}
	models := []*nn.Network{
		nn.NewNetwork([]int{64},
			nn.NewDense(64, 256, rng), nn.NewReLU(),
			nn.NewDense(256, 256, rng), nn.NewReLU(),
			nn.NewDense(256, 8, rng)),
		// The boundary shrinks with depth: later cuts are radio-cheaper but
		// compute-pricier, so the energy objective picks differently.
		nn.NewNetwork([]int{128},
			nn.NewDense(128, 64, rng), nn.NewReLU(),
			nn.NewDense(64, 8, rng), nn.NewReLU(),
			nn.NewDense(8, 4, rng)),
	}
	walk := []Conditions{
		{BandwidthBps: 1.6e6, Battery: 1}, {BandwidthBps: 1e6, Battery: 1},
		{BandwidthBps: 2.1e6, Battery: 1}, {BandwidthBps: 0.4e6, Battery: 1},
		{BandwidthBps: 0, Battery: 1}, {BandwidthBps: 100e6, Battery: 1},
		{BandwidthBps: 0, Battery: 1}, {BandwidthBps: 100e6, Battery: 1},
		{BandwidthBps: 100e6, Battery: 0.8}, {BandwidthBps: 100e6, Battery: 0.7},
		{BandwidthBps: 20e6, Battery: 0.5}, {BandwidthBps: 20e6, Battery: 0.12},
		{BandwidthBps: 20e6, Battery: 0.09}, {BandwidthBps: 20e6, Battery: 0.05},
		{BandwidthBps: 5e6, Battery: 0.04}, {BandwidthBps: 0, Battery: 0.04},
		{BandwidthBps: 50e6, Battery: 0.03}, {BandwidthBps: 50e6, Battery: 0.3},
		{BandwidthBps: 1e6, Battery: 1},
	}
	var got []string
	for mi, net := range models {
		costs, err := net.Summary()
		if err != nil {
			t.Fatal(err)
		}
		for _, rtt := range []time.Duration{0, 10 * time.Microsecond, 5 * time.Millisecond} {
			r, err := NewReplanner(ReplanConfig{RTT: rtt}, m4, gw, costs, 32, inputs[mi], nil, Conditions{BandwidthBps: 1e6, Battery: 1})
			if err != nil {
				t.Fatal(err)
			}
			row := fmt.Sprintf("model%d/rtt=%v: start=%+v", mi, rtt, r.plan)
			for _, cond := range walk {
				plan, moved := r.Observe(cond)
				row += fmt.Sprintf(" | %+v moved=%v replans=%d", plan, moved, r.replans)
			}
			got = append(got, row)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("testdata/replan.golden has %d rows, the matrix %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
