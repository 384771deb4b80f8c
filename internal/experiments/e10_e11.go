package experiments

import (
	"fmt"
	"io"

	"tinymlops/internal/enclave"
	"tinymlops/internal/ipprot"
	"tinymlops/internal/nn"
	"tinymlops/internal/tensor"
	"tinymlops/internal/verify"
)

// RunE10 counts verifiable-execution overhead: sum-check prover and
// verifier multiplications versus re-execution across matrix sizes (the
// SafetyNets shape: verifier ≪ prover ≈ execution, proofs of a few hundred
// bytes), plus the enclave alternative's latency factors (MLCapsule ≈2×).
func RunE10(w io.Writer) error {
	rng := tensor.NewRNG(70)
	tw := table(w)
	fmt.Fprintln(tw, "batch×in×out\tproof B\tprover muls\tverifier muls\tdirect muls\tverifier saving")
	for _, dims := range [][3]int{{32, 32, 32}, {64, 64, 32}, {128, 128, 64}, {256, 256, 128}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := make([]int32, m*k)
		b := make([]int32, k*n)
		for i := range a {
			a[i] = int32(rng.Intn(255) - 127)
		}
		for i := range b {
			b[i] = int32(rng.Intn(255) - 127)
		}
		c, proof, pstats, err := verify.ProveMatMul(a, m, k, b, n)
		if err != nil {
			return err
		}
		ok, vstats, err := verify.VerifyMatMul(a, m, k, b, n, c, proof)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("honest proof rejected at %v", dims)
		}
		fmt.Fprintf(tw, "%d×%d×%d\t%d\t%d\t%d\t%d\t%.0f×\n",
			m, k, n, proof.SizeBytes(), pstats.ProverMuls, vstats.VerifierMuls, vstats.DirectMuls,
			float64(vstats.DirectMuls)/float64(vstats.VerifierMuls))
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// Whole-network verifiable inference.
	net := nn.NewNetwork([]int{64},
		nn.NewDense(64, 64, rng), nn.NewReLU(),
		nn.NewDense(64, 10, rng))
	x := tensor.Randn(rng, 1, 64, 64)
	ip, err := verify.ProveInference(net, x)
	if err != nil {
		return err
	}
	ok, stats, err := verify.VerifyInference(net, x, ip)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nMLP (64→64→10, batch 64): evidence %d B\n", ip.SizeBytes())
	fmt.Fprintf(w, "proof verifies: %v; verifier %d vs direct %d field muls (%.0f× cheaper than re-execution)\n",
		ok, stats.VerifierMuls, stats.DirectMuls, float64(stats.DirectMuls)/float64(stats.VerifierMuls))

	// Enclave alternative.
	encl, err := enclave.New("e10-spe", []byte("root-key-0123456789abcdef"), 2.0)
	if err != nil {
		return err
	}
	macs := net.TotalMACs()
	full := encl.PlanFullEnclave(macs)
	slalom, err := encl.PlanSlalom(macs, macs/10)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nenclave alternative: untrusted 1.00×, Slalom(10%% protected) %.2f×, full enclave %.2f× latency\n",
		slalom.LatencyFactor, full.LatencyFactor)
	fmt.Fprintln(w, "\nprove and verify time: bench/run.sh measures it (verify.prove_us, verify.verify_us)")
	return nil
}

// RunE11 round-trips model encryption at rest across model sizes and
// reports what is sealed: parameters and artifact bytes.
func RunE11(w io.Writer) error {
	rng := tensor.NewRNG(80)
	vendorKey := []byte("e11-vendor-key-0123456789abcdef0")
	tw := table(w)
	fmt.Fprintln(tw, "model\tparams\tartifact B")
	for _, size := range []struct {
		name   string
		hidden []int
	}{
		{"tiny", []int{32}},
		{"small", []int{128, 64}},
		{"medium", []int{512, 256}},
		{"large", []int{1024, 512, 256}},
	} {
		layers := []nn.Layer{}
		in := 64
		for _, h := range size.hidden {
			layers = append(layers, nn.NewDense(in, h, rng), nn.NewReLU())
			in = h
		}
		layers = append(layers, nn.NewDense(in, 10, rng))
		net := nn.NewNetwork([]int{64}, layers...)
		artifact, err := net.MarshalBinary()
		if err != nil {
			return err
		}
		em, err := ipprot.EncryptModel(vendorKey, size.name, artifact)
		if err != nil {
			return err
		}
		plain, err := ipprot.DecryptModel(vendorKey, em)
		if err != nil {
			return err
		}
		if _, err := nn.UnmarshalNetwork(plain); err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\n", size.name, net.ParamCount(), len(artifact))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\ndecryption is a one-time load cost; amortized per query it is negligible (§V),")
	fmt.Fprintln(w, "while a flash dump of the sealed artifact reveals nothing without the vendor key.")
	fmt.Fprintln(w, "\nencrypt and decrypt time: bench/run.sh measures it (ipprot.encrypt_us, ipprot.decrypt_us)")
	return nil
}
