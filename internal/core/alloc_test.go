package core

import (
	"testing"
)

// TestMultiSearchAllocsPerCut guards the §6.2 searcher's inner loop: the
// undo state of a visited node lives in per-rank arenas allocated with
// the searcher, so a search allocates a constant amount however many
// cuts it considers — a 2,000-cut budget stop and the full search alike.
func TestMultiSearchAllocsPerCut(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	g := hotBlock(t, "fir")
	for _, budget := range []int64{2000, 0} {
		cfg := Config{Nin: 4, Nout: 2, PruneInputs: true, PruneMerit: true, MaxCuts: budget}
		var cuts int64
		allocs := testing.AllocsPerRun(3, func() {
			cuts = FindBestCuts(g, 2, cfg).Stats.CutsConsidered
		})
		if cuts < 1000 {
			t.Fatalf("budget %d: search considered only %d cuts; the guard needs a real search", budget, cuts)
		}
		if perCut := allocs / float64(cuts); perCut >= 0.05 {
			t.Errorf("budget %d: %.0f allocations for %d cuts (%.3f per cut), want < 0.05 per cut",
				budget, allocs, cuts, perCut)
		}
	}
}
