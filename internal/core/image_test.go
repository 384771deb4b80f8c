package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"tinymlops/internal/dataset"
	"tinymlops/internal/device"
	"tinymlops/internal/ipprot"
	"tinymlops/internal/nn"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/rollout"
	"tinymlops/internal/swarm"
	"tinymlops/internal/tensor"
)

// tableState reads the image table's miss counter and its keys, sorted.
func tableState(p *Platform) (misses int, keys []string) {
	p.images.mu.Lock()
	defer p.images.mu.Unlock()
	for k, img := range p.images.entries {
		keys = append(keys, fmt.Sprintf("%s native=%v refs=%d", k.versionID, k.native, img.refs))
	}
	sort.Strings(keys)
	return p.images.misses, keys
}

// referencedImages lists what the table must hold: every (version, kind)
// some unwatermarked deployment's live or rollback slot holds, with the
// number of slots holding it, in tableState's format.
func referencedImages(p *Platform) []string {
	refs := map[imageKey]int{}
	for _, d := range p.Deployments() {
		d.mu.Lock()
		for _, img := range []*image{d.img, d.prev} {
			if img != nil && d.watermark == "" {
				native := img.version.Scheme != quant.Float32 && d.device.Caps.SupportsBits(img.version.Scheme.Bits())
				refs[imageKey{img.version.ID, native}]++
			}
		}
		d.mu.Unlock()
	}
	var keys []string
	for k, n := range refs {
		keys = append(keys, fmt.Sprintf("%s native=%v refs=%d", k.versionID, k.native, n))
	}
	sort.Strings(keys)
	return keys
}

// nudgeHead returns a copy of net with the head layer moved a little: a
// same-topology version whose delta is sparse.
func nudgeHead(net *nn.Network, step float32) *nn.Network {
	next := net.Clone()
	layers := next.Layers()
	head := layers[len(layers)-1].(*nn.Dense)
	for i := range head.W.Value.Data {
		head.W.Value.Data[i] += step * float32(i%7)
	}
	return next
}

// TestWaveBuildsOneImage is the single-flight property under -race: 32
// int8-native deployments update onto one version concurrently while a
// 33rd keeps serving on the image they all leave. One image enters the
// table (one delta apply, one QModel lowering), all 32 hold its executor by
// pointer, and rolling one back leaves the other 31 alone.
func TestWaveBuildsOneImage(t *testing.T) {
	const wave = 32
	rng := tensor.NewRNG(5)
	caps, err := device.ProfileByName("phone")
	if err != nil {
		t.Fatal(err)
	}
	fleet := device.NewFleet()
	ids := make([]string, wave+1)
	for i := range ids {
		ids[i] = fmt.Sprintf("phone-%02d", i)
		d := device.NewDevice(ids[i], caps, tensor.NewRNG(uint64(100+i)))
		d.SetNet(device.WiFi)
		if err := fleet.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	p, err := New(fleet, Config{VendorKey: vendorKey, Seed: 5, MinCohort: 1, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Blobs(rng, 300, 4, 3, 5)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 16, rng), nn.NewReLU(), nn.NewDense(16, 3, rng))
	spec := registry.OptimizationSpec{Schemes: []quant.Scheme{quant.Int8}, Evaluate: func(*nn.Network) float64 { return 1 }}
	if _, err := p.Publish("wave", net, ds, spec); err != nil {
		t.Fatal(err)
	}
	deps, err := p.DeployMany(ids, "wave", DeployConfig{PrepaidQueries: 1 << 20, Policy: int8Policy()})
	if err != nil {
		t.Fatal(err)
	}
	if misses, keys := tableState(p); misses != 1 || len(keys) != 1 {
		t.Fatalf("33 deploys of one kind built %d images, table %v", misses, keys)
	}
	v2s, err := p.Publish("wave", nudgeHead(net, 0.01), ds, spec)
	if err != nil {
		t.Fatal(err)
	}

	server, old := deps[wave], deps[wave].img
	rows := make([][]float32, 16)
	for i := range rows {
		rows[i] = ds.X.Data[i*4 : (i+1)*4]
	}
	want := server.InferBatch(rows)
	stop, served := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				served <- nil
				return
			default:
			}
			for i, o := range server.InferBatch(rows) {
				if o.Err != nil || o.Result.Label != want[i].Result.Label {
					served <- fmt.Errorf("row %d served %+v (err %v) during the wave, want label %d", i, o.Result, o.Err, want[i].Result.Label)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for _, d := range deps[:wave] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := d.Update(v2s[0], UpdateOptions{})
			if err != nil {
				t.Error(err)
			} else if !rep.UsedDelta || rep.To.Scheme != quant.Int8 {
				t.Errorf("%s: delta %v to scheme %v, want an int8 delta", d.DeviceID, rep.UsedDelta, rep.To.Scheme)
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	misses, keys := tableState(p)
	if misses != 2 || !slices.Equal(keys, referencedImages(p)) {
		t.Fatalf("the wave built %d images (want 1 more than the deploys' 1); table %v, referenced %v", misses, keys, referencedImages(p))
	}
	shared := deps[0].img
	for _, d := range deps[:wave] {
		if d.img != shared || d.img.run != shared.run || d.prev != old || d.ExecutionScheme() != quant.Int8 {
			t.Fatalf("%s holds its own image or executor", d.DeviceID)
		}
	}
	if server.img != old || shared == old {
		t.Fatal("the serving deployment's image moved")
	}

	if _, err := deps[0].Rollback(); err != nil {
		t.Fatal(err)
	}
	if deps[0].img != old || deps[0].prev != nil {
		t.Fatal("rollback did not restore the shared v1 image")
	}
	for _, d := range deps[1:wave] {
		if d.img != shared || d.prev != old {
			t.Fatalf("rolling %s back disturbed %s", deps[0].DeviceID, d.DeviceID)
		}
	}
	if _, keys := tableState(p); !slices.Equal(keys, referencedImages(p)) {
		t.Fatalf("after one rollback: table %v, referenced %v", keys, referencedImages(p))
	}
}

// TestImageTableResidency rolls a 12-device fleet through 20 versions: after
// every rollout the table holds exactly the images some live or rollback
// slot references — the new version and the one before it, never a third.
func TestImageTableResidency(t *testing.T) {
	f := newRolloutFixture(t, 4)
	if _, keys := tableState(f.p); !slices.Equal(keys, referencedImages(f.p)) || len(keys) != 1 {
		t.Fatalf("after deploy: table %v, referenced %v", keys, referencedImages(f.p))
	}
	net, err := f.p.Registry.Load(f.v1.ID)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 20; r++ {
		net = nudgeHead(net, 0.001*float32(r))
		vs, err := f.p.Publish("clf", net, f.ds, baseOnlySpec(f.ds))
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.p.Rollout(vs[0], RolloutConfig{Seed: uint64(r), Gate: rollout.Gate{MaxDriftFraction: 1, MaxErrorRate: 1, MaxLatencyIncrease: 1e9}})
		if err != nil || !res.Completed {
			t.Fatalf("rollout %d: completed %v, err %v", r, res != nil && res.Completed, err)
		}
		_, keys := tableState(f.p)
		if !slices.Equal(keys, referencedImages(f.p)) || len(keys) != 2 {
			t.Fatalf("after rollout %d: table %v, referenced %v", r, keys, referencedImages(f.p))
		}
	}
	// A rollback drops the live image; a re-deploy drops both of the
	// deployment it replaces.
	deps := f.p.Deployments()
	for _, d := range deps {
		if _, err := d.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
	if _, keys := tableState(f.p); !slices.Equal(keys, referencedImages(f.p)) || len(keys) != 1 {
		t.Fatalf("after fleet rollback: table %v, referenced %v", keys, referencedImages(f.p))
	}
	stale := deps[0]
	if _, err := f.p.Deploy(stale.DeviceID, "clf", DeployConfig{PrepaidQueries: 10}); err != nil {
		t.Fatal(err)
	}
	_, keys := tableState(f.p)
	if !slices.Equal(keys, referencedImages(f.p)) {
		t.Fatalf("after re-deploy: table %v, referenced %v", keys, referencedImages(f.p))
	}
	// The replaced handle still serves and still updates, privately.
	if _, err := stale.Infer(f.inRows[0]); err != nil {
		t.Fatal(err)
	}
	latest, err := f.p.Registry.Latest("clf")
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := stale.Update(latest, UpdateOptions{}); err != nil || !rep.UsedDelta {
		t.Fatalf("replaced handle's update: %+v, %v", rep, err)
	}
	if _, err := stale.Rollback(); err != nil {
		t.Fatal(err)
	}
	if _, after := tableState(f.p); !slices.Equal(after, keys) {
		t.Fatalf("a replaced deployment moved the table: %v → %v", keys, after)
	}
}

// TestFailedInstallsLeaveTheTableAlone is the poisoning property: a swarm
// transfer whose chunk fails its hash, an install interrupted mid-flash and
// a delta against an evicted base each fail or fall back on that device
// alone; none inserts into the table, and the fleet's image of the target
// is the one an undisturbed device built.
func TestFailedInstallsLeaveTheTableAlone(t *testing.T) {
	f := newRolloutFixture(t, 2)
	deps := f.p.Deployments()
	if _, err := deps[0].Update(f.v2, UpdateOptions{}); err != nil {
		t.Fatal(err)
	}
	good := deps[0].img
	misses, keys := tableState(f.p)
	unchanged := func(when string, refs int) {
		t.Helper()
		m, k := tableState(f.p)
		if m != misses || len(k) != len(keys) || good.refs != refs {
			t.Fatalf("%s: table %v (%d misses, v2 refs %d), want %d entries, %d misses, v2 refs %d", when, k, m, good.refs, len(keys), misses, refs)
		}
	}

	// A corrupt chunk: the source's bytes change after the manifest is cut.
	deltaKey := "delta:" + f.v1.ID + ">" + f.v2.ID
	delta, err := f.p.Registry.Delta(f.v1.ID, f.v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	served := append([]byte(nil), delta...)
	sw, err := swarm.New(swarm.Config{
		Source: swarm.SourceFunc(func(key string) ([]byte, error) {
			if key != deltaKey {
				return nil, fmt.Errorf("unexpected key %q", key)
			}
			return served, nil
		}),
		Peer: f.p.Fleet.Get, ChunkBytes: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Manifest(deltaKey); err != nil {
		t.Fatal(err)
	}
	served[len(served)/2] ^= 0x40
	if _, err := deps[1].Update(f.v2, UpdateOptions{Swarm: sw}); !errors.Is(err, swarm.ErrChunkHashMismatch) {
		t.Fatalf("corrupt chunk: %v, want ErrChunkHashMismatch", err)
	}
	if sw.Stats().HashRejects != 1 || deps[1].Version.ID != f.v1.ID {
		t.Fatalf("hash rejects %d, device on %s", sw.Stats().HashRejects, deps[1].Version.ID)
	}
	unchanged("after a rejected chunk", 1)
	served[len(served)/2] ^= 0x40
	if _, err := deps[1].Update(f.v2, UpdateOptions{Swarm: sw}); err != nil {
		t.Fatalf("retry against the honest bytes: %v", err)
	}
	if deps[1].img != good {
		t.Fatal("the retried device did not take the fleet's image")
	}
	unchanged("after the retry", 2)

	// An install interrupted mid-flash.
	dev := deps[2].Device()
	calls := 0
	dev.SetInstallInterrupter(func(string, int64) float64 {
		if calls++; calls == 1 {
			return 0.5
		}
		return 1
	})
	defer dev.SetInstallInterrupter(nil)
	if _, err := deps[2].Update(f.v2, UpdateOptions{}); !errors.Is(err, device.ErrInstallInterrupted) {
		t.Fatalf("interrupted install: %v", err)
	}
	unchanged("after an interrupted install", 2)
	if rep, err := deps[2].Update(f.v2, UpdateOptions{}); err != nil || !rep.UsedDelta || deps[2].img != good {
		t.Fatalf("resumed install: %+v, %v, shared %v", rep, err, deps[2].img == good)
	}
	unchanged("after the resume", 3)

	// A delta whose base the registry evicted falls back to a full ship,
	// and the full bytes resolve to the image a device that shipped them in
	// full already built. (The v1→v3 delta must not be cached, so the first
	// device ships v3 whole.)
	v2net, err := f.p.Registry.Load(f.v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	v3s, err := f.p.Publish("clf", nudgeHead(v2net, 0.02), f.ds, baseOnlySpec(f.ds))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deps[3].Update(v3s[0], UpdateOptions{ForceFull: true}); err != nil {
		t.Fatal(err)
	}
	good, misses, keys = deps[3].img, misses+1, append(keys, "v3")
	unchanged("after a full ship of v3", 1)
	if err := f.p.Registry.Evict(f.v1.ID); err != nil {
		t.Fatal(err)
	}
	rep, err := deps[4].Update(v3s[0], UpdateOptions{})
	if err != nil || rep.UsedDelta || !errors.Is(rep.DeltaFallback, ErrDeltaBaseMissing) || deps[4].img != good {
		t.Fatalf("evicted base: %+v, %v, shared %v", rep, err, deps[4].img == good)
	}
	unchanged("after the full-ship fallback", 2)
}

// TestWatermarkedDeviceKeepsPrivateImage puts one watermarked device in a
// wave: it ends on its own decoded copy and executor, its mark extracts at
// BER 0, and the rest of the wave shares the table's image untouched by it.
func TestWatermarkedDeviceKeepsPrivateImage(t *testing.T) {
	f := newRolloutFixture(t, 4)
	const owner = "customer-9"
	id := f.p.Deployments()[5].DeviceID
	marked, err := f.p.Deploy(id, "clf", DeployConfig{PrepaidQueries: 1000, Watermark: owner})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.p.Rollout(f.v2, RolloutConfig{Seed: 3})
	if err != nil || !res.Completed || res.DeltaTransfers != 11 || res.FullTransfers != 1 {
		t.Fatalf("rollout: %+v, %v", res, err)
	}
	var shared *image
	for _, d := range f.p.Deployments() {
		switch {
		case d == marked:
		case shared == nil:
			shared = d.img
		case d.img != shared:
			t.Fatalf("%s is off the fleet's image", d.DeviceID)
		}
	}
	if marked.Version.ID != f.v2.ID || marked.img == shared || marked.img.model == shared.model || marked.img.run == shared.run {
		t.Fatal("the watermarked device shares the fleet's image")
	}
	if f.p.images.shares(marked.img) || f.p.images.shares(marked.prev) || shared.refs != 11 {
		t.Fatalf("private images entered the table, or the fleet's has %d holders", shared.refs)
	}
	want := ipprot.KeyedBits(owner, WatermarkCapacity(marked.Model()))
	got, err := ipprot.ExtractStatic(marked.Model(), owner, len(want), ipprot.DefaultStaticWMConfig())
	if err != nil || ipprot.BitErrorRate(want, got) != 0 {
		t.Fatalf("mark after the wave: BER %v, err %v", ipprot.BitErrorRate(want, got), err)
	}
	if g, err := ipprot.ExtractStatic(shared.model, owner, len(want), ipprot.DefaultStaticWMConfig()); err == nil && ipprot.BitErrorRate(want, g) == 0 {
		t.Fatal("the fleet's image carries the customer's mark")
	}
}

// TestConcurrentRolloutsOnOnePlatform rolls two model lines on one platform
// at once — what bench/ could not do while DeviceIDs read
// Deployment.Version without the deployment's lock. Run it under -race.
func TestConcurrentRolloutsOnOnePlatform(t *testing.T) {
	f := newRolloutFixture(t, 4)
	// A second line on six fresh devices.
	caps, err := device.ProfileByName("phone")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 6; i++ {
		d := device.NewDevice(fmt.Sprintf("line2-%02d", i), caps, tensor.NewRNG(uint64(300+i)))
		d.SetNet(device.WiFi)
		if err := f.p.Fleet.Add(d); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, d.ID)
	}
	net, err := f.p.Registry.Load(f.v1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.p.Publish("clf2", nudgeHead(net, 0.5), f.ds, baseOnlySpec(f.ds)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.p.DeployMany(ids, "clf2", DeployConfig{PrepaidQueries: 1000}); err != nil {
		t.Fatal(err)
	}
	// Each line rolls through eight versions back to back, so that one
	// rollout's DeviceIDs overlaps the other's updates.
	const rounds = 8
	var targets [2][]*registry.ModelVersion
	for r := 1; r <= rounds; r++ {
		for line, name := range []string{"clf", "clf2"} {
			vs, err := f.p.Publish(name, nudgeHead(net, 0.5*float32(line)+0.01*float32(r)), f.ds, baseOnlySpec(f.ds))
			if err != nil {
				t.Fatal(err)
			}
			targets[line] = append(targets[line], vs[0])
		}
	}
	var errs [2]error
	var updated [2]int
	var wg sync.WaitGroup
	for line := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r, target := range targets[line] {
				res, err := f.p.Rollout(target, RolloutConfig{Seed: uint64(r + 1)})
				if err == nil && !res.Completed {
					err = fmt.Errorf("rollout %d of line %d did not complete", r, line)
				}
				if err != nil {
					errs[line] = err
					return
				}
				updated[line] += res.DeltaTransfers + res.FullTransfers
			}
		}()
	}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		t.Fatal(errs)
	}
	if updated != [2]int{12 * rounds, 6 * rounds} {
		t.Fatalf("updated %v devices, want each line's own 12 and 6 per round", updated)
	}
	if _, keys := tableState(f.p); !slices.Equal(keys, referencedImages(f.p)) || len(keys) != 4 {
		t.Fatalf("table %v, referenced %v", keys, referencedImages(f.p))
	}
}

// TestSharedImageServesConcurrently pins what sharing an executor asks of
// the serving path: twelve deployments on one image serve bursts at once,
// every borrowed arena holds one output slot for the executor they share,
// and each deployment's labels still equal its own unshared reference. Run
// it under -race.
func TestSharedImageServesConcurrently(t *testing.T) {
	f := newRolloutFixture(t, 4)
	deps := f.p.Deployments()
	want := make([][]int, len(deps))
	rows := make([][][]float32, len(deps))
	for i, d := range deps {
		if d.img != deps[0].img {
			t.Fatalf("%s is off the fleet's image", d.DeviceID)
		}
		// Each deployment serves its own rotation of the rows, so a burst
		// that read a neighbour's logits would be caught.
		rows[i] = append(append([][]float32(nil), f.inRows[i:]...), f.inRows[:i]...)
		for _, x := range rows[i] {
			want[i] = append(want[i], argMax(d.ReferenceLogits(x)))
		}
	}
	var wg sync.WaitGroup
	for i, d := range deps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for q, o := range d.InferBatch(rows[i]) {
					if o.Err != nil || o.Result.Label != want[i][q] {
						t.Errorf("%s burst %d row %d: label %d (err %v), want %d", d.DeviceID, rep, q, o.Result.Label, o.Err, want[i][q])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
