package metering

import (
	"crypto/sha256"
	"fmt"
	"net"
	"sync"
	"testing"

	"tinymlops/internal/engine"
	"tinymlops/internal/tensor"
	"tinymlops/internal/verify"
)

// stubAttestor builds attestations whose "proof" is a digest of the
// context — enough to exercise the settlement plumbing without the real
// proof system (that pairing is tested below and in core).
func stubAttestor(voucherID, modelID string) Attestor {
	return func(seq uint64, entryHash [32]byte) (Attestation, error) {
		ctx := AttestationContext(voucherID, modelID, seq, entryHash)
		d := sha256.Sum256(ctx)
		return Attestation{ModelID: modelID, Proof: d[:]}, nil
	}
}

func stubVerifier() AttestationVerifier {
	return func(v Voucher, items []AttestationCheck) []error {
		errs := make([]error, len(items))
		for i, it := range items {
			ctx := AttestationContext(v.ID, it.Att.ModelID, it.Att.Seq, it.EntryHash)
			d := sha256.Sum256(ctx)
			if string(d[:]) != string(it.Att.Proof) {
				errs[i] = fmt.Errorf("%w: digest mismatch", ErrProofInvalid)
			}
		}
		return errs
	}
}

func attestedFixture(t *testing.T, rate int) (*Meter, *Settler, Voucher) {
	t.Helper()
	issuer, err := NewIssuer([]byte("attest-test-key-0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	v, err := issuer.Issue("dev-a", "model-v1", 100)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMeter(v)
	m.SetAttestor(rate, stubAttestor(v.ID, "model-v1"))
	s := NewSettler(issuer)
	s.SetAttestation(rate, stubVerifier())
	return m, s, v
}

func TestAttestedSettlementHonest(t *testing.T) {
	m, s, v := attestedFixture(t, 3)
	for i := 0; i < 20; i++ {
		if err := m.Charge(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := m.BuildAttestedReport()
	if err != nil {
		t.Fatal(err)
	}
	// The device and settler must agree on the sample, rooted at the
	// report's terminal head.
	head := rep.Entries[len(rep.Entries)-1].Hash
	want := 0
	for _, e := range rep.Entries {
		if Sampled(head, v.ID, e.Seq, 3) {
			want++
		}
	}
	if len(rep.Attestations) != want {
		t.Fatalf("report carries %d attestations, sample is %d", len(rep.Attestations), want)
	}
	rc := s.SettleAttested(rep)
	if !rc.OK {
		t.Fatalf("honest attested report rejected: %s", rc.Reason)
	}
	if rc.ProofsChecked != want {
		t.Fatalf("receipt says %d proofs checked, want %d", rc.ProofsChecked, want)
	}
	m.Acknowledge(rc.AckSeq)
	if got, _ := s.LastReceipt(v.ID); !got.OK {
		t.Fatal("LastReceipt lost the verdict")
	}
	// Second window: the settled head must line up on both sides so an
	// empty-sample or mid-stream report still verifies.
	for i := 20; i < 29; i++ {
		if err := m.Charge(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	rep2, err := m.BuildAttestedReport()
	if err != nil {
		t.Fatal(err)
	}
	rc2 := s.SettleAttested(rep2)
	if !rc2.OK {
		t.Fatalf("second attested window rejected: %s", rc2.Reason)
	}
	// Third window, once everything is acknowledged: nothing to sample,
	// and the empty report still settles.
	m.Acknowledge(rc2.AckSeq)
	rep3, err := m.BuildAttestedReport()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep3.Entries) != 0 || len(rep3.Attestations) != 0 {
		t.Fatalf("acknowledged meter reports %d entries, %d attestations", len(rep3.Entries), len(rep3.Attestations))
	}
	if rc3 := s.SettleAttested(rep3); !rc3.OK {
		t.Fatalf("empty attested window rejected: %s", rc3.Reason)
	}
}

// TestSampledRate: rate 16 picks near a sixteenth of the charges, and a rate
// of 1 or less picks every one.
func TestSampledRate(t *testing.T) {
	head := [32]byte{1, 2, 3}
	picked := func(rate int) (n int) {
		for seq := uint64(1); seq <= 4096; seq++ {
			if Sampled(head, "dev-a", seq, rate) {
				n++
			}
		}
		return n
	}
	// 256 expected; σ ≈ 15.5, so 192..320 is four σ either side.
	if n := picked(16); n < 192 || n > 320 {
		t.Errorf("rate 16 over 4096 charges\n  expected: 192..320 picked\n  actual: %d", n)
	}
	for _, rate := range []int{1, 0, -2} {
		if n := picked(rate); n != 4096 {
			t.Errorf("rate %d over 4096 charges\n  expected: 4096 picked\n  actual: %d", rate, n)
		}
	}
}

func TestAttestedSettlementFraud(t *testing.T) {
	charge := func(t *testing.T, m *Meter, n int) AttestedReport {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := m.Charge(uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := m.BuildAttestedReport()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	t.Run("missing proof", func(t *testing.T) {
		m, s, _ := attestedFixture(t, 2)
		rep := charge(t, m, 16)
		if len(rep.Attestations) == 0 {
			t.Fatal("fixture sampled nothing")
		}
		rep.Attestations = rep.Attestations[:len(rep.Attestations)-1]
		if rc := s.SettleAttested(rep); rc.OK || rc.Reason != ReasonProofMissing {
			t.Fatalf("got %+v, want %s", rc, ReasonProofMissing)
		}
	})

	t.Run("overclaimed entries are sampled too", func(t *testing.T) {
		// A device appending fabricated charges (without proofs for the
		// newly sampled ones) must be caught: the sample is rooted at the
		// terminal head, which the fabricated entries move.
		m, s, v := attestedFixture(t, 2)
		rep := charge(t, m, 10)
		head := rep.Entries[len(rep.Entries)-1].Hash
		for i := 0; i < 6; i++ {
			e := NextEntry(head, rep.Used+1, 99, v.ID)
			rep.Entries = append(rep.Entries, e)
			rep.Used++
			head = e.Hash
		}
		if rc := s.SettleAttested(rep); rc.OK || (rc.Reason != ReasonProofMissing && rc.Reason != ReasonProofInvalid) {
			t.Fatalf("inflated report accepted or misclassified: %+v", rc)
		}
	})

	t.Run("stale replayed proof", func(t *testing.T) {
		m, s, _ := attestedFixture(t, 2)
		rep := charge(t, m, 16)
		if len(rep.Attestations) < 2 {
			t.Fatal("fixture sampled too little")
		}
		// Replay the first sampled proof in place of the last: duplicate
		// seq — classic stale-proof replay.
		rep.Attestations[len(rep.Attestations)-1] = rep.Attestations[0]
		if rc := s.SettleAttested(rep); rc.OK || rc.Reason != ReasonProofInvalid {
			t.Fatalf("got %+v, want %s", rc, ReasonProofInvalid)
		}
	})

	t.Run("wrong model version", func(t *testing.T) {
		m, s, _ := attestedFixture(t, 2)
		rep := charge(t, m, 16)
		rep.Attestations[0].ModelID = "model-v2"
		if rc := s.SettleAttested(rep); rc.OK || rc.Reason != ReasonProofInvalid {
			t.Fatalf("got %+v, want %s", rc, ReasonProofInvalid)
		}
	})

	t.Run("rejection leaves state untouched", func(t *testing.T) {
		m, s, v := attestedFixture(t, 2)
		rep := charge(t, m, 16)
		good := rep
		bad := rep
		bad.Attestations = nil
		if rc := s.SettleAttested(bad); rc.OK {
			t.Fatal("proofless report accepted")
		}
		if rc := s.SettleAttested(good); !rc.OK {
			t.Fatalf("honest retry after rejection failed: %s", rc.Reason)
		}
		if used, _ := s.SettledUsage(v.ID); used != 16 {
			t.Fatalf("settled usage %d, want 16", used)
		}
	})
}

// Attested settlement over the real TCP path, exercising the wire
// superset property (AttestedReport embeds Report).
func TestAttestedSettlementOverTCP(t *testing.T) {
	m, s, _ := attestedFixture(t, 2)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, s)
	defer srv.Close()
	for i := 0; i < 12; i++ {
		if err := m.Charge(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := MustSettle(srv.Addr(), m); err != nil {
		t.Fatal(err)
	}
	if m.SettledSeq() != 12 {
		t.Fatalf("settled seq %d, want 12", m.SettledSeq())
	}
}

// realAttestor pairs the metering plumbing with the actual sum-check
// prover; the matching verifier runs on a BatchVerifier, as core wires
// it in production.
func realAttestor(voucherID, modelID string, wq []int32, k, n int, input []int8) Attestor {
	return func(seq uint64, entryHash [32]byte) (Attestation, error) {
		ctx := AttestationContext(voucherID, modelID, seq, entryHash)
		a := make([]int32, k)
		for i, c := range input {
			a[i] = int32(c)
		}
		claimed, proof, _, err := verify.ProveMatMulCtx(ctx, a, 1, k, wq, n)
		if err != nil {
			return Attestation{}, err
		}
		blob, err := proof.MarshalBinary()
		if err != nil {
			return Attestation{}, err
		}
		return Attestation{ModelID: modelID, Input: input, Claimed: claimed, Proof: blob}, nil
	}
}

func batchBackedVerifier(bv *verify.BatchVerifier) AttestationVerifier {
	return func(v Voucher, items []AttestationCheck) []error {
		errs := make([]error, len(items))
		batch := make([]verify.BatchItem, len(items))
		for i, it := range items {
			var proof verify.Proof
			if err := proof.UnmarshalBinary(it.Att.Proof); err != nil {
				errs[i] = err
				continue
			}
			a := make([]int32, len(it.Att.Input))
			for j, c := range it.Att.Input {
				a[j] = int32(c)
			}
			batch[i] = verify.BatchItem{
				ClassID: it.Att.ModelID,
				Ctx:     AttestationContext(v.ID, it.Att.ModelID, it.Att.Seq, it.EntryHash),
				A:       a, M: 1, C: it.Att.Claimed, Proof: &proof,
			}
		}
		results, _, err := bv.VerifyBatch(batch)
		if err != nil {
			for i := range errs {
				errs[i] = err
			}
			return errs
		}
		for i, r := range results {
			if errs[i] != nil {
				continue
			}
			if r.Err != nil {
				errs[i] = r.Err
			} else if !r.OK {
				errs[i] = fmt.Errorf("%w: sum-check failed", ErrProofInvalid)
			}
		}
		return errs
	}
}

// 64 goroutines hammer one Settler armed with a BatchVerifier-backed
// attestation verifier, at three engine widths. Every settlement must
// succeed; run under -race this is the S3 concurrency gate.
func TestSharedSettlerConcurrentAttested(t *testing.T) {
	const goroutines = 64
	const k, n = 16, 8
	rng := tensor.NewRNG(31)
	wq := make([]int32, k*n)
	for i := range wq {
		wq[i] = int32(rng.Intn(255)) - 127
	}

	for _, workers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			issuer, err := NewIssuer([]byte("race-test-key-0123456789abcdef!!"))
			if err != nil {
				t.Fatal(err)
			}
			s := NewSettler(issuer)
			bv := verify.NewBatchVerifier(engine.New(engine.Config{Workers: workers}))
			if err := bv.Prepare("model-v1", wq, k, n); err != nil {
				t.Fatal(err)
			}
			s.SetAttestation(2, batchBackedVerifier(bv))

			var wg sync.WaitGroup
			failures := make([]error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					v, err := issuer.Issue(fmt.Sprintf("dev-%03d", g), "model-v1", 50)
					if err != nil {
						failures[g] = err
						return
					}
					m := NewMeter(v)
					input := make([]int8, k)
					for i := range input {
						input[i] = int8(g - 32 + i)
					}
					m.SetAttestor(2, realAttestor(v.ID, "model-v1", wq, k, n, input))
					for round := 0; round < 2; round++ {
						for i := 0; i < 8; i++ {
							if err := m.Charge(uint64(round*8 + i)); err != nil {
								failures[g] = err
								return
							}
						}
						rep, err := m.BuildAttestedReport()
						if err != nil {
							failures[g] = err
							return
						}
						rc := s.SettleAttested(rep)
						if !rc.OK {
							failures[g] = fmt.Errorf("goroutine %d round %d rejected: %s", g, round, rc.Reason)
							return
						}
						m.Acknowledge(rc.AckSeq)
					}
				}(g)
			}
			wg.Wait()
			for _, err := range failures {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
