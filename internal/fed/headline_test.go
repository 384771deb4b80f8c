//go:build headline

package fed

import "testing"

// TestHier100kHeadline makes the assertions of
// TestHier2kBitIdenticalAcrossWorkerCounts over 100 000 clients and 100
// aggregators. One CI step runs it with the faults headlines:
//
//	go test -tags headline -run Headline ./internal/fed ./internal/faults
func TestHier100kHeadline(t *testing.T) {
	checkHierRound(t, 100_000, 100)
}
