// Package registry implements the model-version management of §III-A: a
// content-addressed store of model artifacts, a lineage DAG from base
// models to their derived variants (quantized, pruned, watermarked), an
// optimization pipeline that regenerates every variant automatically when
// a base model is retrained, compiled procvm modules as first-class
// versions in that DAG, and weight-delta computation between same-topology
// versions so OTA updates ship patches instead of full artifacts.
//
// The paper's observation is that edge deployment multiplies the number of
// artifacts a registry must track — one cloud model becomes a matrix of
// (bit width × sparsity × target) variants whose relationships must be
// recorded so retraining can trigger regeneration. The lineage DAG is that
// record; Delta is the transfer-efficient bridge from one generation of the
// matrix to the next.
package registry
