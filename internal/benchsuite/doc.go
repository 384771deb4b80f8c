// Package benchsuite is the programmatic form of the performance-critical
// benchmarks: the serving hot path (float32/int8/packed-int4 batched
// inference plus settlement proving and verification) and the offload
// plane (monolithic, split, and batched-cloud query round trips).
//
// The `go test -bench` benchmarks measure; this package remembers. Each
// Case wraps the same fixture as its -bench twin so `tinymlops bench` can
// run the suite via testing.Benchmark outside a test binary and commit the
// results as BENCH_<area>.json snapshots that CI diffs on every push. Cases
// run inside tensor.EnterPool, pinning the kernels to their serial
// in-worker form — the numbers measure the kernels, not the host's core
// count.
//
// A Report is one area run on one machine: per-benchmark ns/op, B/op and
// allocs/op plus the Go version and platform that produced it.
// WriteFile/ReadFile give the snapshots a stable, diff-friendly encoding;
// Diff compares a current run against a committed baseline and returns
// every regression — ns/op beyond the tolerance, any allocation increase at
// all, and benchmarks that appear or disappear without the baseline being
// refreshed. CI runs `tinymlops bench -check` so a slow patch fails the
// build instead of landing silently.
package benchsuite
