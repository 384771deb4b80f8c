package enclave

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
)

// Session is a cloud-tier protected-execution context: it loads sealed
// model artifacts into the enclave, attests what it loaded, and holds the
// networks (watermarked copies) and compiled procvm modules (obfuscated
// deployments) that offload suffixes execute from inside the protected
// world — an exec.Hosted executor over Network or Module, charged the
// enclave's Slowdown. Plaintext model bytes exist only behind the Session
// after Unseal — the simulation's stand-in for enclave-resident memory. A
// Session is safe for concurrent use by any number of goroutines: loads
// and lookups serialize on one mutex, and the artifacts it hands out are
// read-shared (executors perform no model writes).
type Session struct {
	enc *Enclave

	mu   sync.RWMutex
	arts map[string]*sessionArtifact
}

type sessionArtifact struct {
	measurement [32]byte
	net         *nn.Network
	mod         *procvm.Module
}

// Session error sentinels.
var (
	ErrUnknownArtifact = errors.New("enclave: artifact not loaded in session")
	ErrBadArtifact     = errors.New("enclave: sealed blob does not decode to the expected artifact")
)

// NewSession opens a protected-execution session on an enclave.
func NewSession(e *Enclave) *Session {
	return &Session{enc: e, arts: map[string]*sessionArtifact{}}
}

// Enclave returns the backing enclave (for report verification metadata).
func (s *Session) Enclave() *Enclave { return s.enc }

// LoadSealedNetwork unseals a network artifact into the session under id
// and returns its measurement (the SHA-256 of the plaintext bytes).
// Tampered blobs, blobs sealed to a different enclave, and plaintexts that
// are not a canonical serialized network all reject.
func (s *Session) LoadSealedNetwork(id string, sealed []byte) ([32]byte, error) {
	plain, err := s.enc.Unseal(sealed)
	if err != nil {
		return [32]byte{}, err
	}
	net, err := nn.UnmarshalNetwork(plain)
	if err != nil {
		return [32]byte{}, fmt.Errorf("%w: %v", ErrBadArtifact, err)
	}
	meas := sha256.Sum256(plain)
	s.mu.Lock()
	s.arts[id] = &sessionArtifact{measurement: meas, net: net}
	s.mu.Unlock()
	return meas, nil
}

// LoadSealedModule unseals a compiled procvm module into the session under
// id and returns its measurement. The plaintext must be a canonical PVM1
// encoding (truncation, trailing bytes and garbage reject).
func (s *Session) LoadSealedModule(id string, sealed []byte) ([32]byte, error) {
	plain, err := s.enc.Unseal(sealed)
	if err != nil {
		return [32]byte{}, err
	}
	mod, err := procvm.DecodeModule(plain)
	if err != nil {
		return [32]byte{}, fmt.Errorf("%w: %v", ErrBadArtifact, err)
	}
	meas := sha256.Sum256(plain)
	s.mu.Lock()
	s.arts[id] = &sessionArtifact{measurement: meas, mod: mod}
	s.mu.Unlock()
	return meas, nil
}

// Attest produces a freshness-bound report over the loaded artifact's
// measurement. A verifier holding the manufacturer root checks it with
// VerifyReport and compares the measurement against the expected digest.
func (s *Session) Attest(id string, nonce []byte) (Report, error) {
	s.mu.RLock()
	art, ok := s.arts[id]
	s.mu.RUnlock()
	if !ok {
		return Report{}, fmt.Errorf("%w: %s", ErrUnknownArtifact, id)
	}
	return s.enc.Attest(art.measurement, nonce), nil
}

// Network exposes a loaded network for protected suffix execution. The
// returned network is enclave-resident state: callers run it, they do not
// re-export it.
func (s *Session) Network(id string) (*nn.Network, error) {
	s.mu.RLock()
	art, ok := s.arts[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownArtifact, id)
	}
	if art.net == nil {
		return nil, fmt.Errorf("%w: %s holds a module, not a network", ErrUnknownArtifact, id)
	}
	return art.net, nil
}

// Module exposes a loaded compiled module for protected execution, under
// the same contract as Network. Gas metering applies inside the protected
// world exactly as outside it.
func (s *Session) Module(id string) (*procvm.Module, error) {
	s.mu.RLock()
	art, ok := s.arts[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownArtifact, id)
	}
	if art.mod == nil {
		return nil, fmt.Errorf("%w: %s holds a network, not a module", ErrUnknownArtifact, id)
	}
	return art.mod, nil
}
