//go:build headline

package faults

import "testing"

// The full-scale headlines, run by one CI step:
//
//	go test -tags headline -run Headline ./internal/fed ./internal/faults
//
// They make the assertions of TestChaosRollout300BitIdenticalAcrossWorkerCounts
// and TestChaosSwarmRollout300BitIdenticalAcrossWorkerCounts at 10 000
// devices.

// TestChaosRollout10kHeadline drives 10 000 devices through the chaos
// rollout at 1, 4 and 16 workers.
func TestChaosRollout10kHeadline(t *testing.T) {
	checkChaosRollout(t, 10_000)
}

// TestChaosSwarmRollout10kHeadline drives 10 000 devices through the swarm
// rollout at 1, 4 and 16 workers.
func TestChaosSwarmRollout10kHeadline(t *testing.T) {
	checkSwarmRollout(t, 10_000)
}
