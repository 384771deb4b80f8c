// Package engine is the concurrent fleet execution substrate: a bounded
// worker pool plus deterministic seed derivation that lets thousands of
// simulated devices tick, infer, train and drift-check in parallel while
// producing results that are bit-identical to a serial run.
//
// The paper frames TinyMLOps as operating ML across fleets of "millions of
// users" (§I, §III-B); a serial per-device loop cannot exercise that scale.
// The engine solves the operational half of the problem: Engine.ForEach and
// Map fan indexed work out over a fixed number of workers with dynamic
// block scheduling, and SeedForID derives each task's randomness from
// (root seed, round, entity ID) alone — never from scheduling order — so a
// fleet round gives identical results at one worker or sixty-four.
//
// It is the platform's only parallelism: a task's tensor kernels run
// serially in the worker that calls them.
package engine
