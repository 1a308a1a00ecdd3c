//go:build !race

package core_test

import (
	"fmt"
	"testing"

	"mpq/internal/workload"
)

// TestPruneGroundTruthFiveTables checks the plan sets where the
// whole-space shortcut prunes more than the per-piece prune keeps
// (clique-2p/5t: 9, 14 and 9 plans against 11, 18 and 9) against the
// exhaustive enumeration of 107,520 plans each. About ten seconds per
// seed, so it stays out of -race and -short runs.
func TestPruneGroundTruthFiveTables(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration of 5-table cliques")
	}
	for _, seed := range []int64{5, 1005, 2005} {
		t.Run(fmt.Sprintf("clique-2p-5t-s%d", seed), func(t *testing.T) {
			t.Parallel()
			checkGroundTruth(t, workload.Clique, 5, 2, seed, 8)
		})
	}
}
