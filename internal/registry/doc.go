// Package registry implements the model-version management of §III-A: a
// content-addressed store of model artifacts, a lineage DAG from base
// models to their derived variants (quantized, watermarked), an
// optimization pipeline that regenerates every variant automatically when
// a base model is retrained, compiled procvm modules as first-class
// versions in that DAG, and weight-delta computation between same-topology
// versions so OTA updates ship patches instead of full artifacts.
//
// The paper's observation is that edge deployment multiplies the number of
// artifacts a registry must track — one cloud model becomes a matrix of
// (bit width × sparsity × target) variants whose relationships must be
// recorded so retraining can trigger regeneration. The lineage DAG is that
// record; a Move is the transfer-efficient bridge from one generation of
// the matrix to the next. The registry plans each version move once — its
// delta, the delta's cost, whether it beats the packed image — and owns the
// artifact names ("full:<id>", "delta:<from>><to>") that installs and the
// swarm use, resolving them itself as the source of last resort. It keeps
// each network version decoded beside its bytes, so a plan neither hashes
// nor decodes an artifact.
package registry
