//go:build race

package core

// raceBuild reports a race-detector build. Its sync.Pool drops a share of
// what it is handed, so paths behind a pool (fmt among them) allocate more
// and the rollout allocation pins do not apply.
const raceBuild = true
