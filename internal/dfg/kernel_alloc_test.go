package dfg_test

import (
	"testing"

	"isex/internal/core"
	"isex/internal/workload"
)

// TestConstraintKernelAllocs: the word-parallel §5 constraint kernel
// allocates nothing. It runs on the adpcmdecode hot block, with the cut
// the §9 windowed heuristic picks at (2,1).
func TestConstraintKernelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	graphs, err := workload.RealBlockGraphs()
	if err != nil {
		t.Fatal(err)
	}
	var hot *workload.BlockInfo
	for i := range graphs {
		if graphs[i].Kernel == "adpcmdecode" && (hot == nil || graphs[i].Graph.NumOps() > hot.Graph.NumOps()) {
			hot = &graphs[i]
		}
	}
	if hot == nil {
		t.Fatal("no adpcmdecode block")
	}
	g := hot.Graph
	cut := core.FindBestCutWindowed(g, core.Config{Nin: 2, Nout: 1}, 12).Cut
	if len(cut) == 0 {
		t.Fatalf("the windowed search found no cut on %s/%s", hot.Fn, hot.Block)
	}
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Inputs", func() { g.Inputs(cut) }},
		{"Outputs", func() { g.Outputs(cut) }},
		{"Convex", func() { g.Convex(cut) }},
		{"Legal", func() { g.Legal(cut, 2, 1) }},
		{"Components", func() { g.Components(cut) }},
	} {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s on a %d-node cut of %s/%s: %.1f allocations per call, want 0",
				c.name, len(cut), hot.Fn, hot.Block, allocs)
		}
	}
}
