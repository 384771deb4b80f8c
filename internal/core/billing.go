package core

import (
	"fmt"
	"slices"

	"tinymlops/internal/metering"
	"tinymlops/internal/nn"
	"tinymlops/internal/quant"
	"tinymlops/internal/registry"
	"tinymlops/internal/verify"
)

// Verified pay-per-query billing (§III-C + §VI). With
// Config.VerifiedBilling on, every deployment retains lightweight
// evidence (the quantized input row and the serving model version) for
// each charged query; at settlement the meter's attestor proves the
// deterministic sample of those charges against the deployment's first
// dense layer with a sum-check bound to (voucher, model version,
// sequence, chain entry). The platform arms the settler with a
// BatchVerifier-backed checker that re-derives the proved layer from the
// registry artifact — never the (possibly watermarked) deployed copy —
// so proofs amortize per (model-version, shape) class across the window
// and a report with any missing or failing proof is rejected whole.

// retainedCharge is the per-charge evidence the attestor proves later:
// which model version served it, and the claimed quantized input row. A
// zero-length input means "charged but not served" (preprocess failure,
// battery death) — the attestor proves a zero row, which is honest: the
// query was charged, and the vendor never sees real inputs anyway.
type retainedCharge struct {
	modelID string
	input   []int8
}

// provedLayer extracts the settlement-proved layer of a network: the
// first dense layer's deterministically quantized weights and shape.
func provedLayer(net *nn.Network) ([]int32, int, int, error) {
	for _, l := range net.Layers() {
		if dl, ok := l.(*nn.Dense); ok {
			wq, _ := verify.QuantizeWeights(dl.W.Value)
			return wq, dl.In, dl.Out, nil
		}
	}
	return nil, 0, 0, fmt.Errorf("core: model has no dense layer to prove")
}

// provedWeights resolves the prepared encoding of a model version's
// proved layer — padded field matrix plus transcript digest, 8 B per
// padded weight — re-derived from the registry artifact the first time
// the version is asked for and immutable afterwards. It is the one place
// settlement loads and quantizes a model: provers (deploy, update,
// rollback, charges served by a since-retired version) and the vendor's
// batch verifier all resolve here, so the encoding is resident once per
// version however many deployments serve it. A deployment keeps only the
// pointer.
func (p *Platform) provedWeights(modelID string) (*verify.PreparedWeights, error) {
	// Held across the miss so concurrent deploys of one version prepare
	// it once; a hit costs the verifier's map lookup.
	p.classMu.Lock()
	defer p.classMu.Unlock()
	if pw, ok := p.verifier.Class(modelID); ok {
		return pw, nil
	}
	if _, err := p.Registry.Get(modelID); err != nil {
		return nil, fmt.Errorf("core: attestation names unknown model: %w", err)
	}
	art, err := p.Registry.Load(modelID)
	if err != nil {
		return nil, fmt.Errorf("core: load proved layer of %s: %w", modelID, err)
	}
	wq, k, n, err := provedLayer(art)
	if err != nil {
		return nil, err
	}
	if err := p.verifier.Prepare(modelID, wq, k, n); err != nil {
		return nil, err
	}
	if p.onPrepare != nil {
		p.onPrepare(modelID)
	}
	pw, _ := p.verifier.Class(modelID)
	return pw, nil
}

// refreshAttestorLocked points the attestor at the live version's
// prepared weights. Called at deploy and after every update or rollback;
// caller holds d.mu (or owns d exclusively).
func (d *Deployment) refreshAttestorLocked() error {
	// Compiled module versions prove against the float artifact they were
	// lowered from: the bytecode executes the same dense layer, and every
	// retained modelID then names a loadable network — so the settler's
	// class cache and retired-version re-derivation never see a procvm ID.
	proveID := d.Version.ID
	if d.Version.Kind == registry.KindProcVM {
		proveID = d.Version.ParentID
	}
	pw, err := d.platform.provedWeights(proveID)
	if err != nil {
		return err
	}
	d.att, d.attModelID = pw, proveID
	if d.retained == nil {
		d.retained = make(map[uint64]retainedCharge)
	}
	return nil
}

// retainLocked stores the evidence for one charged query. Caller holds
// d.mu. Settled sequences are swept so the map stays bounded by the
// unsettled window — but only when an acknowledgment has arrived since
// the last sweep: past 1 024 unsettled charges a rescan per query finds
// nothing to delete. A swept row goes onto freeRows and the next charge
// quantizes into it, so evidence costs no allocation once the rows of the
// largest window exist.
func (d *Deployment) retainLocked(seq uint64, features []float32) {
	if d.retained == nil {
		return
	}
	if len(d.retained) >= 1024 {
		if settled := d.Meter.SettledSeq(); settled > d.sweptSeq {
			for s, rc := range d.retained {
				if s <= settled {
					if rc.input != nil {
						d.freeRows = append(d.freeRows, rc.input)
					}
					delete(d.retained, s)
				}
			}
			d.sweptSeq = settled
		}
	}
	rc := retainedCharge{modelID: d.attModelID}
	if k := d.att.K; len(features) == k {
		if n := len(d.freeRows); n > 0 {
			rc.input, d.freeRows = d.freeRows[n-1], d.freeRows[:n-1]
		}
		if cap(rc.input) < k { // a row of a narrower version: let it go
			rc.input = make([]int8, k)
		}
		rc.input = rc.input[:k]
		quant.QuantizeBlock(features, rc.input)
	}
	d.retained[seq] = rc
}

// attest is the metering.Attestor for this deployment: it proves one
// sampled charge. Runs without d.mu held (the meter calls it from
// BuildAttestedReport).
func (d *Deployment) attest(seq uint64, entryHash [32]byte) (metering.Attestation, error) {
	d.mu.Lock()
	rc, ok := d.retained[seq]
	if !ok {
		rc = retainedCharge{modelID: d.attModelID}
	}
	// The retained row is recycled once its charge settles, and the
	// attestation outlives that: it ships a copy taken under the lock.
	input := slices.Clone(rc.input)
	pw, curModel := d.att, d.attModelID
	voucherID := d.Meter.Voucher().ID
	d.mu.Unlock()

	if rc.modelID == "" {
		rc.modelID = curModel
	}
	if rc.modelID != curModel {
		// The charge was served by a version this deployment has since
		// moved off (update or rollback mid-window): prove it against that
		// version's artifact, which the registry still holds.
		var err error
		if pw, err = d.platform.provedWeights(rc.modelID); err != nil {
			return metering.Attestation{}, fmt.Errorf("core: attest against retired version %s: %w", rc.modelID, err)
		}
	}
	if len(input) != pw.K {
		input = make([]int8, pw.K)
	}
	a := make([]int32, pw.K)
	for i, c := range input {
		a[i] = int32(c)
	}
	ctx := metering.AttestationContext(voucherID, rc.modelID, seq, entryHash)
	claimed, proof, _, err := verify.ProveMatMulPrepared(ctx, a, 1, pw)
	if err != nil {
		return metering.Attestation{}, fmt.Errorf("core: prove charge %d: %w", seq, err)
	}
	blob, err := proof.MarshalBinary()
	if err != nil {
		return metering.Attestation{}, err
	}
	return metering.Attestation{ModelID: rc.modelID, Input: input, Claimed: claimed, Proof: blob}, nil
}

// verifyAttestations is the metering.AttestationVerifier the platform
// installs on its settler: one batch-amortized sum-check pass over a
// report's proof sample.
func (p *Platform) verifyAttestations(v metering.Voucher, items []metering.AttestationCheck) []error {
	errs := make([]error, len(items))
	batch := make([]verify.BatchItem, len(items))
	for i, it := range items {
		if _, err := p.provedWeights(it.Att.ModelID); err != nil {
			errs[i] = err
			continue
		}
		var proof verify.Proof
		if err := proof.UnmarshalBinary(it.Att.Proof); err != nil {
			errs[i] = fmt.Errorf("%w: %v", metering.ErrProofInvalid, err)
			continue
		}
		a := make([]int32, len(it.Att.Input))
		for j, c := range it.Att.Input {
			a[j] = int32(c)
		}
		batch[i] = verify.BatchItem{
			ClassID: it.Att.ModelID,
			Ctx:     metering.AttestationContext(v.ID, it.Att.ModelID, it.Att.Seq, it.EntryHash),
			A:       a,
			M:       1,
			C:       it.Att.Claimed,
			Proof:   &proof,
		}
	}
	results, _, err := p.verifier.VerifyBatch(batch)
	if err != nil {
		for i := range errs {
			if errs[i] == nil {
				errs[i] = err
			}
		}
		return errs
	}
	for i, r := range results {
		if errs[i] != nil {
			continue
		}
		if r.Err != nil {
			errs[i] = fmt.Errorf("%w: %v", metering.ErrProofInvalid, r.Err)
		} else if !r.OK {
			errs[i] = fmt.Errorf("%w: sum-check rejected charge %d", metering.ErrProofInvalid, items[i].Att.Seq)
		}
	}
	return errs
}
