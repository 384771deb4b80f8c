// Package enclave simulates a Secure Processing Environment (Intel SGX /
// ARM TrustZone class) for the protection mechanisms of §V and §VI:
// sealed (encrypted-at-rest) model storage, remote attestation of what
// the enclave is running, and a cost model for the measured slowdown of
// executing inside the protected world (MLCapsule reports ≈2× for
// MobileNet-class models; Slalom mitigates it by keeping linear layers
// outside).
//
// The cryptography is real (AES-GCM, HMAC-SHA-256 from the standard
// library); the isolation is simulated — there is no actual hardware
// boundary, only the protocol and its costs, which is what the paper's
// operational argument depends on.
//
// A Session is the trusted-loading layer on top: sealed artifacts —
// networks or compiled procvm modules — unseal only inside the session,
// which records the plaintext SHA-256 as the attestable measurement,
// rejects tampered blobs, kind confusion and non-canonical encodings,
// and hands the loaded artifact to an exec.Hosted executor that charges
// the protected world's slowdown. The offload cloud tier serves protected
// suffixes through exactly this interface, so a vendor can prove to a
// customer what model their queries actually ran against.
package enclave
