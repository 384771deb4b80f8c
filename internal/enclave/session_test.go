package enclave

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"tinymlops/internal/compat"
	"tinymlops/internal/engine"
	"tinymlops/internal/exec"
	"tinymlops/internal/nn"
	"tinymlops/internal/procvm"
	"tinymlops/internal/tensor"
)

func testSessionFixture(t *testing.T) (*Session, *procvm.Module, *nn.Network, []byte) {
	t.Helper()
	root := []byte("session-test-root-key-0123456789ab")
	enc, err := New("test-enclave", root, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(11)
	net := nn.NewNetwork([]int{4}, nn.NewDense(4, 8, rng), nn.NewReLU(), nn.NewDense(8, 3, rng))
	mod, err := compat.CompileProcVM(net, compat.CompileOptions{Name: "sess"})
	if err != nil {
		t.Fatal(err)
	}
	return NewSession(enc), mod, net, root
}

// runHosted executes a loaded module the way the cloud tier does: on the
// enclave-hosted executor over the session's artifact.
func runHosted(sess *Session, id string, input []float32) ([]float32, error) {
	mod, err := sess.Module(id)
	if err != nil {
		return nil, err
	}
	inner, err := exec.Module(mod, mod.Caps, len(input), 0)
	if err != nil {
		return nil, err
	}
	out, err := exec.Hosted(inner, sess.Enclave().Slowdown).Run(tensor.FromSlice(input, 1, len(input)), 0, 1, engine.NewArena())
	if err != nil {
		return nil, err
	}
	return out.Data, nil
}

// TestSessionErrorPaths is the trusted-loading failure table: every way a
// protected artifact can be wrong — tampered blob, wrong enclave, garbage
// plaintext, kind confusion, unknown IDs, forged reports — must reject
// with the matching sentinel and leave the session unpolluted.
func TestSessionErrorPaths(t *testing.T) {
	sess, mod, net, root := testSessionFixture(t)
	enc := sess.Enclave()
	modBlob := mod.Encode()
	netBlob, err := net.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sealedMod, err := enc.Seal(modBlob)
	if err != nil {
		t.Fatal(err)
	}
	sealedNet, err := enc.Seal(netBlob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.LoadSealedModule("mod", sealedMod); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.LoadSealedNetwork("net", sealedNet); err != nil {
		t.Fatal(err)
	}

	otherEnc, err := New("other-enclave", root, 2)
	if err != nil {
		t.Fatal(err)
	}
	tamper := func(b []byte, i int) []byte {
		out := append([]byte(nil), b...)
		out[i%len(out)] ^= 0x40
		return out
	}
	sealGarbage := func(plain []byte) []byte {
		s, err := enc.Seal(plain)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	loadErrs := []struct {
		name string
		do   func() error
		want error // nil = any error accepted
	}{
		{"tampered sealed module", func() error {
			_, err := sess.LoadSealedModule("x", tamper(sealedMod, 9))
			return err
		}, nil},
		{"tampered sealed network", func() error {
			_, err := sess.LoadSealedNetwork("x", tamper(sealedNet, 31))
			return err
		}, nil},
		{"wrong enclave", func() error {
			_, err := NewSession(otherEnc).LoadSealedModule("x", sealedMod)
			return err
		}, nil},
		{"sealed garbage as module", func() error {
			_, err := sess.LoadSealedModule("x", sealGarbage([]byte("not a module")))
			return err
		}, ErrBadArtifact},
		{"sealed truncated module", func() error {
			_, err := sess.LoadSealedModule("x", sealGarbage(modBlob[:len(modBlob)/2]))
			return err
		}, ErrBadArtifact},
		{"sealed module with trailing bytes", func() error {
			_, err := sess.LoadSealedModule("x", sealGarbage(append(append([]byte(nil), modBlob...), 0)))
			return err
		}, ErrBadArtifact},
		{"sealed network as module", func() error {
			_, err := sess.LoadSealedModule("x", sealedNet)
			return err
		}, ErrBadArtifact},
		{"unknown artifact module", func() error {
			_, err := sess.Module("missing")
			return err
		}, ErrUnknownArtifact},
		{"unknown artifact attest", func() error {
			_, err := sess.Attest("missing", []byte{1})
			return err
		}, ErrUnknownArtifact},
		{"unknown artifact run", func() error {
			_, err := runHosted(sess, "missing", make([]float32, 4))
			return err
		}, ErrUnknownArtifact},
		{"network artifact run as module", func() error {
			_, err := runHosted(sess, "net", make([]float32, 4))
			return err
		}, ErrUnknownArtifact},
		{"network artifact fetched as module", func() error {
			_, err := sess.Module("net")
			return err
		}, ErrUnknownArtifact},
	}
	for _, tc := range loadErrs {
		err := tc.do()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v does not wrap %v", tc.name, err, tc.want)
		}
		if _, err := sess.Module("x"); err == nil {
			t.Errorf("%s: failed load left artifact %q in the session", tc.name, "x")
		}
	}

	// Forged attestation reports: any flipped field breaks the MAC chain.
	rep, err := sess.Attest("mod", []byte("nonce-1"))
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyReport(root, rep) {
		t.Fatal("genuine report rejected")
	}
	bad := rep
	bad.Measurement[0] ^= 1
	if VerifyReport(root, bad) {
		t.Error("report with flipped measurement verified")
	}
	bad = rep
	bad.Nonce = []byte("nonce-2")
	if VerifyReport(root, bad) {
		t.Error("report with replayed nonce verified")
	}
	bad = rep
	bad.EnclaveID = "imposter"
	if VerifyReport(root, bad) {
		t.Error("report with forged identity verified")
	}
	bad = rep
	bad.MAC = append([]byte(nil), rep.MAC...)
	bad.MAC[0] ^= 1
	if VerifyReport(root, bad) {
		t.Error("report with corrupted MAC verified")
	}
	if VerifyReport([]byte("some-other-manufacturer-root-0000"), rep) {
		t.Error("report verified under the wrong root")
	}
}

// TestRunModuleGasExhaustionMidSuffix pins the protected world's metering:
// a module whose pinned gas limit is too small for one inference fails
// with procvm.ErrOutOfGas — inside the enclave exactly as outside — and
// returns no partial output.
func TestRunModuleGasExhaustionMidSuffix(t *testing.T) {
	sess, mod, _, _ := testSessionFixture(t)
	starved, err := procvm.DecodeModule(mod.Encode())
	if err != nil {
		t.Fatal(err)
	}
	starved.GasLimit = mod.GasLimit / 2 // dies partway through the suffix
	sealed, err := sess.Enclave().Seal(starved.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.LoadSealedModule("starved", sealed); err != nil {
		t.Fatal(err)
	}
	out, err := runHosted(sess, "starved", make([]float32, 4))
	if !errors.Is(err, procvm.ErrOutOfGas) {
		t.Fatalf("error %v, want %v", err, procvm.ErrOutOfGas)
	}
	if len(out) > 0 {
		t.Fatal("gas exhaustion leaked a partial output")
	}
	// The healthy module still runs in the same session.
	healthy, err := sess.Enclave().Seal(mod.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.LoadSealedModule("healthy", healthy); err != nil {
		t.Fatal(err)
	}
	if _, err := runHosted(sess, "healthy", make([]float32, 4)); err != nil {
		t.Fatal(err)
	}
}

// TestLoadSealedModuleValidates: a sealed program Builder.Build could not
// have emitted is a bad artifact at load, not a failure (or, for the pool
// window larger than its map, once an index panic) on the first hosted run.
func TestLoadSealedModuleValidates(t *testing.T) {
	sess, _, _, _ := testSessionFixture(t)
	for name, code := range map[string][]byte{
		"underflow":         {byte(procvm.OpInput), byte(procvm.OpAdd)},
		"truncated operand": {byte(procvm.OpInput), byte(procvm.OpSlice), 0, 0, 1},
		"unknown opcode":    {byte(procvm.OpInput), 250},
		"pool index":        {byte(procvm.OpInput), byte(procvm.OpPushScalar), 1, 0},
		"empty final stack": {byte(procvm.OpInput), byte(procvm.OpDrop)},
		"pool window":       {byte(procvm.OpInput), byte(procvm.OpMaxPool2D), 1, 0, 2, 0, 2, 0, 3, 0, 2, 0},
	} {
		mod := &procvm.Module{Name: name, Scalars: []float32{1}, Code: code}
		sealed, err := sess.Enclave().Seal(mod.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.LoadSealedModule(name, sealed); !errors.Is(err, ErrBadArtifact) {
			t.Errorf("%s: error %v, want %v", name, err, ErrBadArtifact)
		}
	}
}

// TestSessionShared64Goroutines hammers one Session from 64 goroutines
// mixing loads, runs, attestations and measurements — the shape of a cloud
// tier serving many split sessions from one enclave. Every runner must see
// bit-identical outputs and verifiable reports; run under -race in CI.
func TestSessionShared64Goroutines(t *testing.T) {
	sess, mod, _, root := testSessionFixture(t)
	enc := sess.Enclave()
	sealed, err := enc.Seal(mod.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.LoadSealedModule("shared", sealed); err != nil {
		t.Fatal(err)
	}
	input := []float32{0.25, -1.5, 3, 0.125}
	ref, err := runHosted(sess, "shared", input)
	if err != nil {
		t.Fatal(err)
	}
	ref = append([]float32(nil), ref...)

	const goroutines = 64
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("own-%d", g%8)
			for q := 0; q < 10; q++ {
				res, err := runHosted(sess, "shared", input)
				if err != nil {
					errCh <- err
					return
				}
				for i, v := range res {
					if math.Float32bits(v) != math.Float32bits(ref[i]) {
						errCh <- fmt.Errorf("goroutine %d: output %d diverged", g, i)
						return
					}
				}
				rep, err := sess.Attest("shared", []byte{byte(g), byte(q)})
				if err != nil {
					errCh <- err
					return
				}
				if !VerifyReport(root, rep) {
					errCh <- fmt.Errorf("goroutine %d: report failed verification", g)
					return
				}
				if q == 0 {
					// Interleave loads of per-goroutine artifacts to race
					// the map against the readers.
					if _, err := sess.LoadSealedModule(id, sealed); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestSessionNetworkAndSlowdown pins the remaining session accessors: a
// loaded network artifact is retrievable (and kind-guarded), and the
// session reports its enclave's slowdown for cloud-tier cost accounting.
func TestSessionNetworkAndSlowdown(t *testing.T) {
	sess, mod, net, _ := testSessionFixture(t)
	if sess.Enclave().Slowdown != 2 {
		t.Fatalf("slowdown %v, want the enclave's 2", sess.Enclave().Slowdown)
	}
	blob, err := net.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := sess.Enclave().Seal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.LoadSealedNetwork("net", sealed); err != nil {
		t.Fatal(err)
	}
	got, err := sess.Network("net")
	if err != nil {
		t.Fatal(err)
	}
	out, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, blob) {
		t.Fatal("network artifact did not round-trip through the session")
	}
	// A module artifact fetched as a network is kind confusion.
	sealedMod, err := sess.Enclave().Seal(mod.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.LoadSealedModule("mod2", sealedMod); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Network("mod2"); !errors.Is(err, ErrUnknownArtifact) {
		t.Fatalf("module fetched as network: %v, want ErrUnknownArtifact", err)
	}
}
