package benchsuite

import (
	"testing"

	"tinymlops/internal/tensor"
)

func TestFixtureHelpersProduceWorkloads(t *testing.T) {
	net, x := servingFixture()
	if net == nil || x == nil {
		t.Fatal("serving fixture incomplete")
	}
	if got := net.Forward(tensor.New(1, 64), false); got == nil || got.Size() == 0 {
		t.Fatal("serving fixture network does not serve")
	}
	rng := tensor.NewRNG(9)
	a, wq := settleOperands(rng)
	if len(a) != settleK || len(wq) != settleK*settleN {
		t.Fatal("settlement operands misshapen")
	}
	in := offloadInput()
	om := offloadModel(rng)
	if out := om.Forward(tensor.FromSlice(in, 1, len(in)), false); out == nil || out.Size() == 0 {
		t.Fatal("offload fixture network does not serve")
	}
	onet, clients, ds := FedFixture()
	if onet == nil || len(clients) == 0 || ds == nil {
		t.Fatal("fed fixture incomplete")
	}
}

func TestRunKeepsBestRoundAndReportWraps(t *testing.T) {
	cases := []Case{
		{Name: "Trivial", Bench: func(b *testing.B) {
			s := 0
			for i := 0; i < b.N; i++ {
				s += i
			}
			_ = s
		}},
	}
	entries := Run(cases)
	if len(entries) != 1 || entries[0].Name != "Trivial" {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].NsPerOp < 0 {
		t.Fatalf("negative ns/op: %+v", entries[0])
	}
	rep := RunArea("smoke", cases)
	if rep.Area != "smoke" || len(rep.Entries) != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestAreasCoverEveryBenchArea(t *testing.T) {
	areas := Areas()
	for _, want := range []string{"serving", "offload", "fed", "swarm"} {
		cs, ok := areas[want]
		if !ok || len(cs) == 0 {
			t.Fatalf("area %q missing or empty", want)
		}
		for _, c := range cs {
			if c.Name == "" || c.Bench == nil {
				t.Fatalf("area %q has an unnamed or nil case: %+v", want, c)
			}
		}
	}
}

func TestSwarmWaveGeometry(t *testing.T) {
	for _, n := range []int{996, 1002, 9996} {
		ws := swarmWaves(n)
		if len(ws) != 3 {
			t.Fatalf("waves(%d) = %+v", n, ws)
		}
		// Fractions are cumulative: the fixed canary first, then half,
		// then everyone.
		canary := int(float64(n)*ws[0].Fraction + 0.5)
		if canary != swarmCanary {
			t.Fatalf("canary at n=%d sizes to %d devices", n, canary)
		}
		if ws[1].Fraction != 0.5 || ws[2].Fraction != 1.0 {
			t.Fatalf("waves(%d) = %+v", n, ws)
		}
	}
	for _, tc := range []struct{ n, want int }{
		{1, 6}, {6, 6}, {7, 12}, {1000, 1002}, {10000, 10002},
	} {
		if got := swarmFleetSize(tc.n); got != tc.want {
			t.Fatalf("swarmFleetSize(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}
