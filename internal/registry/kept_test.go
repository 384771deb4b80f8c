package registry

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"sync"
	"testing"

	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// registerLine registers n same-topology versions of one line, each a
// fresh perturbation of one base's head, and returns their IDs and the
// networks the caller handed in.
func registerLine(t *testing.T, r *Registry, n int) ([]string, []*nn.Network) {
	t.Helper()
	base := newTestNet(42)
	ids := make([]string, n)
	nets := make([]*nn.Network, n)
	for i := range n {
		nets[i] = base.Clone()
		head := nets[i].Layers()[2].(*nn.Dense)
		rng := tensor.NewRNG(uint64(100 + i))
		for j := range head.W.Value.Data {
			head.W.Value.Data[j] += 0.01 * rng.Float32()
		}
		v, err := r.RegisterModel("kept", nets[i], 0.9)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID
	}
	return ids, nets
}

// scribble overwrites every parameter of net in place, as a federated round
// trains the global model it published.
func scribble(t *testing.T, net *nn.Network, value float32) {
	t.Helper()
	flat := net.FlatParams()
	for i := range flat {
		flat[i] = value
	}
	if err := net.SetFlatParams(flat); err != nil {
		t.Fatal(err)
	}
}

// checkLoad holds Load(id) to the stored artifact: the network it returns
// encodes to exactly Bytes(id).
func checkLoad(t *testing.T, r *Registry, id string) *nn.Network {
	t.Helper()
	net, err := r.Load(id)
	if err != nil {
		t.Fatal(err)
	}
	got, err := net.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := r.Bytes(id); !bytes.Equal(got, want) {
		t.Fatalf("Load(%s) encodes to the stored artifact\n  expected: %d B, sha %x\n  actual: %d B, sha %x", id, len(want), digestOf(want), len(got), digestOf(got))
	}
	return net
}

func digestOf(b []byte) []byte {
	d := sha256.Sum256(b)
	return d[:8]
}

// checkPlan holds the move from → to to the delta between what Load returns
// for the two versions, byte for byte.
func checkPlan(t *testing.T, r *Registry, from, to string) {
	t.Helper()
	m := r.Plan(from, to)
	want, err := nn.EncodeDelta(checkLoad(t, r, from), checkLoad(t, r, to))
	if err != nil || m.err != nil {
		t.Fatalf("plan %s->%s: %v; reference: %v", from, to, m.err, err)
	}
	if !bytes.Equal(m.Delta, want) {
		t.Fatalf("Plan(%s, %s).Delta\n  expected: %d B, sha %x\n  actual: %d B, sha %x", from, to, len(want), digestOf(want), len(m.Delta), digestOf(m.Delta))
	}
}

// TestKeptNetworkIsIsolated: the network a version keeps is the registry's
// own. The caller training the network it registered, or a caller mutating
// what Load returned, changes neither the next Load nor the next plan.
func TestKeptNetworkIsIsolated(t *testing.T) {
	r := New()
	ids, nets := registerLine(t, r, 2)
	v1, v2 := ids[0], ids[1]
	for i, net := range nets {
		scribble(t, net, float32(7+i))
	}
	checkPlan(t, r, v1, v2)
	scribble(t, checkLoad(t, r, v1), 9)
	scribble(t, checkLoad(t, r, v2), 9)
	checkLoad(t, r, v1)
	checkPlan(t, r, v2, v1)
}

// TestColdPlanAllocations pins what planning a move nobody has planned yet
// allocates: encoding and costing its delta, plus the Move, its done channel
// and its key. Reading the two artifacts costs nothing, so a hash or a
// decode creeping back onto the move path fails here.
func TestColdPlanAllocations(t *testing.T) {
	r := New()
	const n = 6
	// Sized so that no insert below allocates: the map's growth is amortized
	// over every move, not a plan's own.
	r.moves = make(map[versionPair]*Move, 64)
	ids, _ := registerLine(t, r, n)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := range n - 1 {
		from, to := r.nets[ids[i]], r.nets[ids[i+1]]
		delta, err := nn.EncodeDelta(from, to)
		if err != nil {
			t.Fatal(err)
		}
		encode := testing.AllocsPerRun(4, func() { _, _ = nn.EncodeDelta(from, to) })
		cost := testing.AllocsPerRun(4, func() { _, _ = nn.CostOfDelta(delta, 32) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := r.Plan(ids[i], ids[i+1])
		runtime.ReadMemStats(&after)
		if m.err != nil || !bytes.Equal(m.Delta, delta) {
			t.Fatalf("plan %d: %v, %d B; want the %d B delta", i, m.err, len(m.Delta), len(delta))
		}
		want := uint64(encode+cost) + 3
		if got := after.Mallocs - before.Mallocs; got != want {
			t.Errorf("cold plan %d allocations\n  expected: %d (encode %v + cost %v + the Move, its channel and its key)\n  actual: %d", i, want, encode, cost, got)
		}
	}
}

// TestPlanLoadConcurrently runs Plan, Delta and Load on the same versions
// from 8 goroutines, each mutating what it loaded. Run under -race: every
// one of them reads the kept networks at once.
func TestPlanLoadConcurrently(t *testing.T) {
	r := New()
	ids, _ := registerLine(t, r, 3)
	const goroutines = 8
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(goroutines)
	for g := range goroutines {
		go func() {
			defer done.Done()
			start.Wait()
			for k := range 2 * len(ids) {
				from, to := ids[(g+k)%len(ids)], ids[(g+k+1)%len(ids)]
				if _, err := r.Delta(from, to); err != nil || r.Plan(to, from).err != nil {
					t.Errorf("goroutine %d: moves between %s and %s: %v", g, from, to, err)
					return
				}
				net, err := r.Load(from)
				if err == nil {
					err = net.SetFlatParams(make([]float32, net.ParamCount()))
				}
				if err != nil {
					t.Errorf("goroutine %d: load %s: %v", g, from, err)
					return
				}
			}
		}()
	}
	start.Done()
	done.Wait()
	if n := r.deltaComputes.Load(); n != 2*int64(len(ids)) {
		t.Errorf("planned %d moves, want the %d distinct ones once each", n, 2*len(ids))
	}
	for i, id := range ids {
		checkPlan(t, r, id, ids[(i+1)%len(ids)])
	}
}
