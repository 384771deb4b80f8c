// Package swarm implements peer-to-peer OTA artifact distribution: the
// device-to-device dissemination mode that keeps vendor registry egress
// ~flat as the fleet grows, instead of linear in fleet size.
//
// An artifact — a registry image or an encoded weight delta — is split by
// a Manifest into fixed-size SHA-256-hashed chunks with a canonical wire
// codec, and a Reassembler verifies every chunk on receipt (duplicates,
// truncations, reorderings and corrupt chunks are rejected, never
// mis-assembled). The Swarm coordinator tracks which devices hold which
// artifact per rollout wave: devices that complete an update register as
// pending seeders, wave promotion freezes them into a sorted active set,
// and the next wave's devices fetch chunks from SeedForID-assigned peers
// with the registry serving only the canary wave and acting as seeder of
// last resort: a chunk attempt probes at most three seeders (maxPeerTries,
// a constant) before falling back to it. Transfers reuse the device staging-slot discipline, so a
// swarm transfer interrupted mid-chunk resumes from the exact byte and
// every byte is downloaded and flashed exactly once — the Stats ledger
// proves byte conservation (registry egress + peer bytes == delivered
// bytes), which the fault auditor checks at the end of every chaos run.
//
// The swarm moves the canonical plaintext artifact bytes (chunks are
// content-addressed, so every source must serve identical bytes); the
// envelope encryption used on registry-direct transfers is a vendor-link
// concern and does not apply between peers, which already hold the image
// they serve.
//
// Determinism: peer assignment is a pure function of (seed, wave,
// fetcher, key, chunk, attempt); seeder sets only change at wave
// boundaries; and per-device transfer state advances only from the
// device's own serial update calls — so a swarm rollout is bit-identical
// at any worker count, the repo's core invariant.
package swarm
