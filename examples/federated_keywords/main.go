// Federated keyword spotting (§III-D): a fleet of users with non-IID,
// speaker-shifted keyword data collaboratively improves a global model
// without sharing audio. The example compares uplink cost across update
// codecs, gates participation on charger+WiFi, and finishes with
// per-user personalization that recovers the speaker-shift loss.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"tinymlops"
)

const (
	users   = 10
	seqLen  = 32
	classes = 4
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example; main_test.go pins its transcript.
func run(w io.Writer) error {
	rng := tinymlops.NewRNG(2026)

	// Global pool (the vendor's seed corpus) and held-out test set.
	pool := tinymlops.KeywordSeq(rng, 2000, seqLen, classes, 0.1, 0)
	train, test := pool.Split(0.8, rng)

	// Non-IID user shards: Dirichlet label skew, as in the FL literature.
	shards := tinymlops.PartitionDirichlet(rng, train, users, 0.5)
	clients := tinymlops.MakeFederatedClients(train, shards, "user")

	global := tinymlops.NewNetwork([]int{seqLen},
		tinymlops.Dense(seqLen, 32, rng), tinymlops.ReLU(),
		tinymlops.Dense(32, classes, rng))

	fmt.Fprintln(w, "=== federated training: codec comparison (8 rounds each) ===")
	type result struct {
		name   string
		acc    float64
		uplink int64
	}
	var results []result
	for _, codec := range []tinymlops.UpdateCodec{
		tinymlops.RawCodec{},
		tinymlops.Int8Codec{},
		tinymlops.TernaryCodec{},
		tinymlops.TopKCodec{Ratio: 0.05},
	} {
		g := global.Clone()
		// Fresh client RNG streams per run for a fair comparison.
		runClients := tinymlops.MakeFederatedClients(train, shards, "user")
		co, err := tinymlops.NewFederatedCoordinator(g, runClients, test.X, test.Y,
			tinymlops.FederatedConfig{
				Rounds: 8, LocalEpochs: 2, LocalBatch: 16, LR: 0.1,
				Codec: codec, Seed: 11,
			})
		if err != nil {
			return err
		}
		stats, err := co.Run()
		if err != nil {
			return err
		}
		var uplink int64
		for _, s := range stats {
			uplink += s.UplinkBytes
		}
		results = append(results, result{codec.Name(), stats[len(stats)-1].TestAccuracy, uplink})
	}
	base := float64(results[0].uplink)
	for _, r := range results {
		fmt.Fprintf(w, "  codec %-10s final acc %.3f  uplink %8d B  (%.1f× smaller)\n",
			r.name, r.acc, r.uplink, base/float64(r.uplink))
	}

	// Personalization: each user fine-tunes the shared model on their own
	// pitch-shifted voice; the feature extractor stays frozen.
	fmt.Fprintln(w, "\n=== per-user personalization (speaker pitch shift) ===")
	gl := global.Clone()
	co, err := tinymlops.NewFederatedCoordinator(gl, clients, test.X, test.Y,
		tinymlops.FederatedConfig{Rounds: 8, LocalEpochs: 2, LocalBatch: 16, LR: 0.1, Seed: 11})
	if err != nil {
		return err
	}
	if _, err := co.Run(); err != nil {
		return err
	}
	var beforeSum, afterSum float64
	for u := 0; u < 4; u++ {
		shift := 0.2 + 0.1*float32(u)
		local := tinymlops.KeywordSeq(rng, 400, seqLen, classes, 0.1, shift)
		ltrain, ltest := local.Split(0.7, rng)
		before := tinymlops.Evaluate(co.Global, ltest.X, ltest.Y)
		personal, err := tinymlops.Personalize(co.Global, ltrain, tinymlops.PersonalizeConfig{
			Epochs: 8, RNG: rng,
		})
		if err != nil {
			return err
		}
		after := tinymlops.Evaluate(personal, ltest.X, ltest.Y)
		beforeSum += before
		afterSum += after
		fmt.Fprintf(w, "  user %d (pitch %+.0f%%): global %.3f -> personalized %.3f\n",
			u, shift*100, before, after)
	}
	fmt.Fprintf(w, "  mean: %.3f -> %.3f (personalization gain %+.3f)\n",
		beforeSum/4, afterSum/4, (afterSum-beforeSum)/4)
	return nil
}
