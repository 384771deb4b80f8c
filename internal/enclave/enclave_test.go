package enclave

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

var root = []byte("manufacturer-root-key-for-tests")

func TestSealUnsealRoundTrip(t *testing.T) {
	e, err := New("dev-1", root, 2)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("model weights bytes")
	sealed, err := e.Seal(secret)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(sealed, secret) {
		t.Fatal("sealed blob leaks plaintext")
	}
	got, err := e.Unseal(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatal("unsealed plaintext differs")
	}
}

func TestUnsealDetectsTampering(t *testing.T) {
	e, _ := New("dev-1", root, 2)
	sealed, _ := e.Seal([]byte("payload"))
	sealed[len(sealed)-1] ^= 1
	if _, err := e.Unseal(sealed); err == nil {
		t.Fatal("tampered blob unsealed")
	}
}

func TestSealedBlobBoundToEnclave(t *testing.T) {
	e1, _ := New("dev-1", root, 2)
	e2, _ := New("dev-2", root, 2)
	sealed, _ := e1.Seal([]byte("secret"))
	if _, err := e2.Unseal(sealed); err == nil {
		t.Fatal("blob sealed on dev-1 unsealed on dev-2")
	}
}

func TestSealNoncesNeverRepeat(t *testing.T) {
	e, _ := New("dev-1", root, 2)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		sealed, err := e.Seal([]byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		nonce := string(sealed[:12])
		if seen[nonce] {
			t.Fatal("nonce reuse detected")
		}
		seen[nonce] = true
	}
}

func TestAttestVerify(t *testing.T) {
	e, _ := New("dev-1", root, 2)
	meas := sha256.Sum256([]byte("model artifact"))
	nonce := []byte("verifier-nonce")
	r := e.Attest(meas, nonce)
	if !VerifyReport(root, r) {
		t.Fatal("genuine report rejected")
	}
	// Forged measurement fails.
	r2 := r
	r2.Measurement[0] ^= 1
	if VerifyReport(root, r2) {
		t.Fatal("forged measurement accepted")
	}
	// Wrong root key fails.
	if VerifyReport([]byte("other-root"), r) {
		t.Fatal("report verified under wrong root")
	}
	// Replay under a different enclave ID fails.
	r3 := r
	r3.EnclaveID = "dev-2"
	if VerifyReport(root, r3) {
		t.Fatal("report accepted for wrong enclave")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", nil, 2); err == nil {
		t.Fatal("accepted empty root key")
	}
	if _, err := New("x", root, 0.5); err == nil {
		t.Fatal("accepted slowdown < 1")
	}
}

func TestExecutionPlans(t *testing.T) {
	e, _ := New("dev-1", root, 2)
	full := e.PlanFullEnclave()
	if full.LatencyFactor != 2 {
		t.Fatalf("full plan = %+v", full)
	}
	// Slalom with 10% of MACs in the enclave: factor 1.1 at slowdown 2.
	sl, err := e.PlanSlalom(1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sl.LatencyFactor < 1.09 || sl.LatencyFactor > 1.11 {
		t.Fatalf("slalom factor = %v, want ≈1.1", sl.LatencyFactor)
	}
	if _, err := e.PlanSlalom(100, 200); err == nil {
		t.Fatal("accepted enclaveMACs > totalMACs")
	}
	// Zero-MAC model degenerates gracefully.
	z, err := e.PlanSlalom(0, 0)
	if err != nil || z.LatencyFactor != 1 {
		t.Fatalf("zero plan = %+v, %v", z, err)
	}
}
