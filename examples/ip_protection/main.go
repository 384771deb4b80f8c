// Model IP protection (§V): the full attacker/defender story on one
// deployed model — encryption at rest, per-customer watermarks (static
// white-box and dynamic trigger-set), the indirect extraction attack at
// increasing query budgets, prediction-poisoning defenses, PRADA-style
// stealing-query detection, and key-gated weight scrambling.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"tinymlops"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example; main_test.go pins its transcript.
func run(w io.Writer) error {
	rng := tinymlops.NewRNG(99)
	// A moderately hard 5-class task: with overlapping clusters the clone
	// quality actually depends on what the black box reveals, so the
	// defense comparison is informative.
	data := tinymlops.Blobs(rng, 2500, 8, 5, 1.6)
	train, test := data.Split(0.7, rng)

	victim := tinymlops.NewNetwork([]int{8},
		tinymlops.Dense(8, 48, rng), tinymlops.ReLU(),
		tinymlops.Dense(48, 5, rng))
	if _, err := tinymlops.Train(victim, train.X, train.Y, tinymlops.TrainConfig{
		Epochs: 12, BatchSize: 32, Optimizer: tinymlops.SGD(0.1).WithMomentum(0.9), RNG: rng,
	}); err != nil {
		return err
	}
	fmt.Fprintf(w, "victim model accuracy: %.3f\n\n", tinymlops.Evaluate(victim, test.X, test.Y))

	// --- Encryption at rest ------------------------------------------
	fmt.Fprintln(w, "=== encryption at rest ===")
	artifact, err := victim.MarshalBinary()
	if err != nil {
		return err
	}
	vendorKey := []byte("vendor-secret-key-0123456789abcd")
	sealed, err := tinymlops.EncryptModel(vendorKey, "victim-v1", artifact)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  artifact %d B -> sealed %d B; flash dump is useless without the key\n",
		len(artifact), len(sealed.Ciphertext))
	if _, err := tinymlops.DecryptModel([]byte("wrong-key-aaaaaaaaaaaaaaaaaaaaaa"), sealed); err != nil {
		fmt.Fprintln(w, "  wrong key rejected:", err != nil)
	}

	// --- Per-customer watermarks --------------------------------------
	fmt.Fprintln(w, "\n=== watermarking ===")
	marked := victim.Clone()
	bits := tinymlops.WatermarkBits("customer-7", 48)
	if err := tinymlops.EmbedWatermark(marked, "customer-7", bits, tinymlops.DefaultStaticWatermarkConfig()); err != nil {
		return err
	}
	got, _ := tinymlops.ExtractWatermark(marked, "customer-7", 48, tinymlops.DefaultStaticWatermarkConfig())
	fmt.Fprintf(w, "  static mark: BER %.3f, accuracy cost %.3f\n",
		tinymlops.BitErrorRate(bits, got),
		tinymlops.Evaluate(victim, test.X, test.Y)-tinymlops.Evaluate(marked, test.X, test.Y))

	triggers := tinymlops.NewTriggerSet("customer-7", 30, []int{8}, 5)
	if err := tinymlops.EmbedTriggerWatermark(marked, triggers, train.X, train.Y, 6, rng); err != nil {
		return err
	}
	fmt.Fprintf(w, "  dynamic mark: trigger recall %.2f (innocent model: %.2f) — black-box evidence\n",
		tinymlops.VerifyTriggerWatermark(marked, triggers),
		tinymlops.VerifyTriggerWatermark(victim, triggers))

	// --- Extraction attack vs defenses ---------------------------------
	fmt.Fprintln(w, "\n=== indirect model stealing: clone agreement by query budget ===")
	bb := tinymlops.ModelBlackBox(victim)
	eval := test.X.RowSlice(0, 300)
	defenses := []tinymlops.Defense{
		tinymlops.NoDefense{},
		tinymlops.RoundDefense{Decimals: 1},
		tinymlops.Top1Defense{},
		tinymlops.NoiseDefense{Std: 0.08, RNG: tinymlops.NewRNG(5)},
		tinymlops.DeceptiveDefense{},
	}
	budgets := []int{40, 150, 500}
	fmt.Fprintf(w, "  %-12s", "defense")
	for _, b := range budgets {
		fmt.Fprintf(w, "  q=%4d", b)
	}
	fmt.Fprintln(w)
	for _, d := range defenses {
		fmt.Fprintf(w, "  %-12s", d.Name())
		for _, budget := range budgets {
			srng := tinymlops.NewRNG(1000 + uint64(budget))
			student := tinymlops.NewNetwork([]int{8},
				tinymlops.Dense(8, 48, srng), tinymlops.ReLU(),
				tinymlops.Dense(48, 5, srng))
			queries := train.X.RowSlice(0, budget)
			if _, err := tinymlops.ExtractModel(tinymlops.Defend(bb, d), student, queries,
				tinymlops.ExtractionConfig{Epochs: 20, LR: 0.05, RNG: srng}); err != nil {
				return err
			}
			fmt.Fprintf(w, "  %.3f", tinymlops.Agreement(bb, tinymlops.ModelBlackBox(student), eval))
		}
		fmt.Fprintln(w)
	}

	// --- Stealing-query detection --------------------------------------
	fmt.Fprintln(w, "\n=== PRADA-style query-stream detection ===")
	det := tinymlops.NewQueryDetector()
	for i := 0; i < 500; i++ {
		row := make([]float32, 8)
		r := rng.Intn(train.Len())
		for f := 0; f < 8; f++ {
			row[f] = train.X.At2(r, f)
		}
		det.Observe(row)
	}
	fmt.Fprintf(w, "  benign client after 500 queries: flagged=%v (K²=%.1f)\n", det.Flagged(), det.Score())
	det.Reset()
	seed := make([]float32, 8)
	attackFlagged := -1
	for i := 0; i < 800; i++ {
		q := make([]float32, 8)
		if i%10 == 0 {
			r := rng.Intn(train.Len())
			for f := 0; f < 8; f++ {
				q[f] = train.X.At2(r, f)
			}
			copy(seed, q)
		} else {
			copy(q, seed)
			q[rng.Intn(8)] += 0.01
		}
		det.Observe(q)
		if det.Flagged() && attackFlagged < 0 {
			attackFlagged = i
		}
	}
	fmt.Fprintf(w, "  perturbation attacker: flagged at query %d\n", attackFlagged)

	// --- Key-gated scrambling ------------------------------------------
	fmt.Fprintln(w, "\n=== key-gated weight scrambling ===")
	locked := victim.Clone()
	if err := tinymlops.ScrambleModel(locked, "activation-key"); err != nil {
		return err
	}
	fmt.Fprintf(w, "  scrambled accuracy: %.3f (was %.3f)\n",
		tinymlops.Evaluate(locked, test.X, test.Y), tinymlops.Evaluate(victim, test.X, test.Y))
	if err := tinymlops.UnscrambleModel(locked, "activation-key"); err != nil {
		return err
	}
	fmt.Fprintf(w, "  with the key: %.3f — full potential restored\n",
		tinymlops.Evaluate(locked, test.X, test.Y))
	return nil
}
