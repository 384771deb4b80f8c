// Verifiable execution gating a payment (§VI): a face-recognition-style
// model runs on an untrusted device; its answer authorizes a payment only
// if the attached sum-check proof verifies. A tampered result — the
// attacker claiming "the face matched" — is rejected without the verifier
// re-executing the network. The enclave path (MLCapsule-style) is shown as
// the alternative trade-off.
package main

import (
	"crypto/sha256"
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
	rng := tinymlops.NewRNG(4242)

	// An "is this the enrolled user?" classifier (2 classes).
	data := tinymlops.Blobs(rng, 1000, 16, 2, 5)
	train, test := data.Split(0.8, rng)
	model := tinymlops.NewNetwork([]int{16},
		tinymlops.Dense(16, 24, rng), tinymlops.ReLU(),
		tinymlops.Dense(24, 2, rng))
	if _, err := tinymlops.Train(model, train.X, train.Y, tinymlops.TrainConfig{
		Epochs: 12, BatchSize: 32, Optimizer: tinymlops.SGD(0.1).WithMomentum(0.9), RNG: rng,
	}); err != nil {
		return err
	}
	fmt.Fprintf(w, "authorizer model accuracy: %.3f\n\n", tinymlops.Evaluate(model, test.X, test.Y))

	// The device proves a batch of authentications.
	batch := test.X.RowSlice(0, 32)
	proof, err := tinymlops.ProveInference(model, batch)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "=== honest device ===")
	fmt.Fprintf(w, "  evidence size: %d bytes for 32 authentications\n", proof.SizeBytes())

	ok, stats, err := tinymlops.VerifyInference(model, batch, proof)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  proof verifies: %v\n", ok)
	fmt.Fprintf(w, "  verifier work: %d field mults vs %d for re-execution (%.0f× cheaper)\n",
		stats.VerifierMuls, stats.DirectMuls,
		float64(stats.DirectMuls)/float64(stats.VerifierMuls))
	if ok {
		accepted := 0
		for _, l := range proof.Output.ArgMaxRows() {
			if l == 1 {
				accepted++
			}
		}
		fmt.Fprintf(w, "  payment service: %d/32 authentications accepted\n", accepted)
	}

	// A compromised device flips a decision to steal a payment.
	fmt.Fprintln(w, "\n=== tampered device ===")
	forged, err := tinymlops.ProveInference(model, batch)
	if err != nil {
		return err
	}
	// Flip the logits of the first authentication toward "match".
	forged.Output.Set2(0, 0, -10)
	forged.Output.Set2(0, 1, +10)
	ok, _, err = tinymlops.VerifyInference(model, batch, forged)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  forged 'face matched' answer verifies: %v -> payment refused\n", ok)

	// Forging the intermediate accumulators fails too.
	forged2, _ := tinymlops.ProveInference(model, batch)
	forged2.Layers[0].Claimed[0] += 7
	ok, _, _ = tinymlops.VerifyInference(model, batch, forged2)
	fmt.Fprintf(w, "  forged layer accumulator verifies:     %v -> payment refused\n", ok)

	// Alternative: run the whole model inside a (simulated) enclave.
	fmt.Fprintln(w, "\n=== enclave alternative (MLCapsule-style) ===")
	root := []byte("device-manufacturer-root-key-123")
	encl, err := tinymlops.NewEnclave("payment-spe", root, 2.0)
	if err != nil {
		return err
	}
	macs := model.TotalMACs()
	full := encl.PlanFullEnclave(macs)
	slalom, err := encl.PlanSlalom(macs, macs/10)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  full enclave: %.1f× latency; Slalom split (10%% protected): %.2f×\n",
		full.LatencyFactor, slalom.LatencyFactor)

	// Attestation: the payment service checks what the enclave runs.
	artifact, _ := model.MarshalBinary()
	meas := sha256.Sum256(artifact)
	report := encl.Attest(meas, []byte("payment-service-nonce"))
	fmt.Fprintf(w, "  attestation verifies: %v\n", tinymlops.VerifyAttestation(root, report))
	report.Measurement[0] ^= 1
	fmt.Fprintf(w, "  forged measurement verifies: %v\n", tinymlops.VerifyAttestation(root, report))
	return nil
}
