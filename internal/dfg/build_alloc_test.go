package dfg_test

import (
	"testing"

	"isex/internal/dfg"
	"isex/internal/ir"
	"isex/internal/workload"
)

// TestBuildAllocs bounds Build's mean allocations per graph over the
// blocks of the 12 kernels. Counting the nodes first, carving every edge
// list from one slab, building the V+ names in one buffer and leaving
// the constraint tables to the first query bring it to 9.2 (59.6
// before): the graph, its nodes, the slab, the names and the search
// order, and the register table, the output registers, the edge list
// and the degree counts while Build runs. The bound leaves 25% headroom.
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	type block struct {
		f  *ir.Function
		b  *ir.Block
		li *ir.LiveInfo
	}
	var blocks []block
	for _, k := range workload.All() {
		m, err := k.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range m.Funcs {
			li := ir.Liveness(f)
			for _, b := range f.Blocks {
				blocks = append(blocks, block{f, b, li})
			}
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		for _, bl := range blocks {
			if _, err := dfg.Build(bl.f, bl.b, bl.li); err != nil {
				t.Fatal(err)
			}
		}
	})
	const bound = 11.5
	if perGraph := allocs / float64(len(blocks)); perGraph > bound {
		t.Errorf("Build made %.1f allocations per graph over %d kernel blocks, want at most %.1f",
			perGraph, len(blocks), bound)
	}
}
