// Package fed implements the federated learning stack of §III-D:
// FedAvg/FedProx rounds over a flat or two-tier topology, with exact secure
// aggregation at the edge tier.
//
// # Topologies
//
// One round engine, Coordinator, runs every topology; flat is a hierarchy
// with no edge tier. With 0 aggregators (NewCoordinator) the clients
// train locally and upload straight to the cloud, which averages their
// updates. With N (NewHierCoordinator) the fleet shards into
// edge-aggregator cohorts (assignment by engine.ShardForID, so the
// partition is stable at any worker count), each aggregator collects its
// cohort's updates, masked or plain, and the cloud sums only one
// varint-encoded partial per aggregator — the fan-in reduction that keeps
// 100k-client rounds affordable on the vendor uplink. Weather, training and
// the weigh-and-sum are one body; the topology picks the unit of fan-out (a
// client or a cohort) and the tier each byte is charged to.
//
// # Exact aggregation and masking
//
// All aggregation happens in an int64 fixed-point ring (Q44.20): integer
// addition is associative, so the hierarchical grouping is bit-identical
// to the flat sum over the same clients. Pairwise secure aggregation
// (Bonawitz-style) lives in the same ring — clients upload uniformly
// masked uint64 words, the Aggregator learns only the cohort sum, and
// dropped or late clients' stale masks are reconciled exactly by
// regenerating their pairwise streams from surviving peers' seeds. Every
// masked round cross-checks the unmasked reference and fails loudly on
// any bit difference.
//
// What a hierarchical round costs over a flat one for the same bits is
// secure aggregation and nothing else: a cohort of n clients shares
// n(n−1)/2 pairwise streams of one word per parameter, and the partial
// encoding, the cloud merge and the cross-check are small beside that.
// The simulator draws each stream once, adding it to one end of the pair
// and subtracting it from the other (maskCohort), where a fleet draws it
// at both ends; every client's masked upload is nevertheless
// word-identical to what it would compute alone with MaskFixed, and a
// property test and the fuzzer hold the two forms to that.
//
// # Per-worker workspace
//
// Clients do not each hold a model. A round trains every client in
// one workspace per engine worker (workspace.go), borrowed from an
// engine.ArenaPool as serving borrows its scratch: a scratch network that
// nn.Network.ResetFrom returns to the global before each client, the delta
// and contribution buffers, and the masked vectors of the cohort the
// worker is running (cohort × dimension words). The global and its flat
// view are immutable while a round's clients train; a client owns its
// shard and its (seed, round, ID) stream, nothing else.
//
// # Compression, faults, personalization
//
// Client updates pass through an update codec (int8, ternary/TernGrad,
// top-k sparsification) with honest byte accounting per tier; downlinks
// ship bit-exact nn delta patches after the first full artifact. Both
// tiers take injected weather — client dropouts/stragglers via
// Config.Faults, aggregator faults via HierConfig.AggFaults — with all
// stochasticity derived from (seed, round, ID), so rounds reproduce at
// any worker count; a client that sits a round out, off its charger or
// WiFi (§III-D), is a dropout. Personalize/PersonalizeCohorts layer local
// fine-tuning (frozen shared layers) on the published global, and
// PseudoLabel/SemiSupervisedRound cover unlabeled clients.
package fed
