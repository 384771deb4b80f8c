package enclave

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Enclave is one simulated protected execution environment, provisioned
// from a manufacturer root key. Keys never leave the struct; callers
// interact through Seal/Unseal/Attest.
type Enclave struct {
	// ID identifies the enclave instance (burned in at provisioning).
	ID string
	// Slowdown is the multiplicative latency factor of running inside the
	// protected world (≥1).
	Slowdown float64

	sealKey   [32]byte
	attestKey [32]byte
	monotonic uint64 // anti-rollback counter for sealed state
}

// New provisions an enclave from the manufacturer root key. Slowdown must
// be ≥ 1.
func New(id string, rootKey []byte, slowdown float64) (*Enclave, error) {
	if len(rootKey) == 0 {
		return nil, errors.New("enclave: empty root key")
	}
	if slowdown < 1 {
		return nil, fmt.Errorf("enclave: slowdown %v must be >= 1", slowdown)
	}
	e := &Enclave{ID: id, Slowdown: slowdown}
	e.sealKey = deriveKey(rootKey, "seal", id)
	e.attestKey = deriveKey(rootKey, "attest", id)
	return e, nil
}

func deriveKey(root []byte, purpose, id string) [32]byte {
	mac := hmac.New(sha256.New, root)
	mac.Write([]byte(purpose))
	mac.Write([]byte{0})
	mac.Write([]byte(id))
	var out [32]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// Seal encrypts plaintext under the enclave's sealing key with AES-GCM.
// The nonce is derived from an internal monotonic counter, which both
// avoids nonce reuse and gives sealed blobs an anti-rollback ordering.
func (e *Enclave) Seal(plaintext []byte) ([]byte, error) {
	block, err := aes.NewCipher(e.sealKey[:])
	if err != nil {
		return nil, fmt.Errorf("enclave: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("enclave: %w", err)
	}
	e.monotonic++
	nonce := make([]byte, gcm.NonceSize())
	binary.LittleEndian.PutUint64(nonce, e.monotonic)
	sealed := gcm.Seal(nil, nonce, plaintext, []byte(e.ID))
	return append(nonce, sealed...), nil
}

// Unseal decrypts a blob produced by Seal. Any tampering with the blob or
// an attempt to unseal it in a different enclave fails authentication.
func (e *Enclave) Unseal(blob []byte) ([]byte, error) {
	block, err := aes.NewCipher(e.sealKey[:])
	if err != nil {
		return nil, fmt.Errorf("enclave: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("enclave: %w", err)
	}
	if len(blob) < gcm.NonceSize() {
		return nil, errors.New("enclave: sealed blob too short")
	}
	nonce, ct := blob[:gcm.NonceSize()], blob[gcm.NonceSize():]
	pt, err := gcm.Open(nil, nonce, ct, []byte(e.ID))
	if err != nil {
		return nil, fmt.Errorf("enclave: unseal failed (tampered or wrong enclave): %w", err)
	}
	return pt, nil
}

// Report is a remote-attestation statement: "enclave ID is running code/
// data with this measurement", bound to a verifier-chosen nonce.
type Report struct {
	EnclaveID   string
	Measurement [32]byte
	Nonce       []byte
	MAC         []byte
}

// Attest produces a report over a measurement (e.g. the SHA-256 of a model
// artifact) and a verifier-supplied freshness nonce.
func (e *Enclave) Attest(measurement [32]byte, nonce []byte) Report {
	return Report{
		EnclaveID:   e.ID,
		Measurement: measurement,
		Nonce:       append([]byte(nil), nonce...),
		MAC:         reportMAC(e.attestKey, e.ID, measurement, nonce),
	}
}

func reportMAC(key [32]byte, id string, measurement [32]byte, nonce []byte) []byte {
	mac := hmac.New(sha256.New, key[:])
	mac.Write([]byte(id))
	mac.Write([]byte{0})
	mac.Write(measurement[:])
	mac.Write(nonce)
	return mac.Sum(nil)
}

// VerifyReport checks a report against the manufacturer root key (the
// verifier re-derives the per-enclave attestation key, as an attestation
// service holding the root would).
func VerifyReport(rootKey []byte, r Report) bool {
	key := deriveKey(rootKey, "attest", r.EnclaveID)
	want := reportMAC(key, r.EnclaveID, r.Measurement, r.Nonce)
	return hmac.Equal(want, r.MAC)
}

// ExecutionPlan describes how much of a model runs inside the enclave and
// the resulting latency multiple versus fully-untrusted execution.
type ExecutionPlan struct {
	// Mode names the strategy ("untrusted", "full-enclave", "slalom").
	Mode string
	// EnclaveMACs of TotalMACs execute in the protected world.
	EnclaveMACs, TotalMACs int64
	// LatencyFactor multiplies the untrusted baseline latency.
	LatencyFactor float64
}

// PlanFullEnclave returns the cost of running all totalMACs inside the
// enclave (MLCapsule-style guarded execution).
func (e *Enclave) PlanFullEnclave(totalMACs int64) ExecutionPlan {
	return ExecutionPlan{
		Mode: "full-enclave", EnclaveMACs: totalMACs, TotalMACs: totalMACs,
		LatencyFactor: e.Slowdown,
	}
}

// PlanSlalom returns the cost of the Slalom partition: only the given
// nonlinear fraction of MACs executes inside the enclave, the (heavy)
// linear algebra stays outside. The latency factor interpolates between 1
// and the full slowdown accordingly.
func (e *Enclave) PlanSlalom(totalMACs, enclaveMACs int64) (ExecutionPlan, error) {
	if enclaveMACs < 0 || enclaveMACs > totalMACs {
		return ExecutionPlan{}, fmt.Errorf("enclave: enclaveMACs %d out of [0,%d]", enclaveMACs, totalMACs)
	}
	frac := 0.0
	if totalMACs > 0 {
		frac = float64(enclaveMACs) / float64(totalMACs)
	}
	return ExecutionPlan{
		Mode: "slalom", EnclaveMACs: enclaveMACs, TotalMACs: totalMACs,
		LatencyFactor: 1 + frac*(e.Slowdown-1),
	}, nil
}
