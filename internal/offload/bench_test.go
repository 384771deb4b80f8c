package offload

import (
	"fmt"
	"sync"
	"testing"

	"tinymlops/internal/device"
	"tinymlops/internal/enclave"
	"tinymlops/internal/market"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
)

// benchModel is a deeper MLP so the split benchmarks measure real suffix
// work, not just queue overhead.
func benchModel(rng *tensor.RNG) *nn.Network {
	return nn.NewNetwork([]int{32},
		nn.NewDense(32, 128, rng), nn.NewReLU(),
		nn.NewDense(128, 128, rng), nn.NewReLU(),
		nn.NewDense(128, 64, rng), nn.NewTanh(),
		nn.NewDense(64, 8, rng))
}

func benchSession(b *testing.B, cut int, cloud *CloudTier, model *nn.Network, id string) *Session {
	b.Helper()
	caps, _ := device.ProfileByName("phone")
	dev := device.NewDevice(id, caps, tensor.NewRNG(1))
	dev.SetNet(device.WiFi)
	plan := market.SplitPlan{Cut: cut}
	s, err := NewSession(SessionConfig{
		Tenant: id, VersionID: "bench", Device: dev, Model: model.Clone(),
		Cloud: cloud, Plan: &plan, Replan: ReplanConfig{Disabled: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func benchInput() []float32 {
	rng := tensor.NewRNG(4)
	x := make([]float32, 32)
	for i := range x {
		x[i] = rng.NormFloat32()
	}
	return x
}

// BenchmarkOffloadMonolithic is the baseline: the whole model on-device
// through the session path (cut = n, no network).
func BenchmarkOffloadMonolithic(b *testing.B) {
	rng := tensor.NewRNG(2)
	model := benchModel(rng)
	cloud := NewCloud(CloudConfig{})
	registerFloat(b, cloud, "bench", model, 1)
	cloud.Start()
	defer cloud.Close()
	s := benchSession(b, len(model.Layers()), cloud, model, "mono")
	x := benchInput()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOffloadSplit measures one device's split round trip: prefix
// on-device, activation through the codec, suffix served by the cloud
// tier (batch size 1 — no concurrency to coalesce).
func BenchmarkOffloadSplit(b *testing.B) {
	rng := tensor.NewRNG(2)
	model := benchModel(rng)
	cloud := NewCloud(CloudConfig{})
	registerFloat(b, cloud, "bench", model, 1)
	cloud.Start()
	defer cloud.Close()
	s := benchSession(b, 2, cloud, model, "split")
	x := benchInput()
	b.ReportAllocs()
	b.ResetTimer()
	var act int64
	for i := 0; i < b.N; i++ {
		res, err := s.Exec(x)
		if err != nil {
			b.Fatal(err)
		}
		act = res.ActivationBytes
	}
	b.StopTimer()
	b.ReportMetric(float64(act), "activation-B/op")
}

// BenchmarkOffloadBatchedCloud drives 16 concurrent sessions through one
// cloud tier so the admission queue actually coalesces: the per-query
// cost includes the batching win the tier exists for. The reported
// batch/op metric is the mean coalesced batch size observed.
func BenchmarkOffloadBatchedCloud(b *testing.B) {
	rng := tensor.NewRNG(2)
	model := benchModel(rng)
	cloud := NewCloud(CloudConfig{MaxBatch: 32, QueueCap: 1024, Dispatchers: 2})
	registerFloat(b, cloud, "bench", model, 1)
	cloud.Start()
	defer cloud.Close()
	const sessions = 16
	ss := make([]*Session, sessions)
	for i := range ss {
		ss[i] = benchSession(b, 2, cloud, model, fmt.Sprintf("batch-%02d", i))
	}
	x := benchInput()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N/sessions + 1
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			for q := 0; q < per; q++ {
				if _, err := s.Exec(x); err != nil {
					b.Error(err)
					return
				}
			}
		}(ss[i])
	}
	wg.Wait()
	b.StopTimer()
	st := cloud.Stats()
	if st.Batches > 0 {
		b.ReportMetric(float64(st.Served)/float64(st.Batches), "batch/op")
	}
}

// BenchmarkOffloadEnclaveSuffix mirrors BenchmarkOffloadSplit with one
// change: the suffix model is registered on an enclave-hosted executor, so
// every cloud-side resume executes the enclave-resident copy and pays the
// protected world's overhead. The delta against OffloadSplit is the price
// of trusted offload.
func BenchmarkOffloadEnclaveSuffix(b *testing.B) {
	rng := tensor.NewRNG(2)
	model := benchModel(rng)
	enc, err := enclave.New("bench-enclave", []byte("bench-manufacturer-root-key-00001"), 1.2)
	if err != nil {
		b.Fatal(err)
	}
	esess := enclave.NewSession(enc)
	blob, err := model.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	sealed, err := enc.Seal(blob)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := esess.LoadSealedNetwork("bench-art", sealed); err != nil {
		b.Fatal(err)
	}
	cloud := NewCloud(CloudConfig{})
	inside, err := esess.Network("bench-art")
	if err != nil {
		b.Fatal(err)
	}
	registerFloat(b, cloud, "bench", inside, esess.Enclave().Slowdown)
	cloud.Start()
	defer cloud.Close()
	s := benchSession(b, 2, cloud, model, "enclave")
	x := benchInput()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec(x); err != nil {
			b.Fatal(err)
		}
	}
}
