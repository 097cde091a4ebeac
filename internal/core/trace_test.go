package core

import (
	"math/rand"
	"strings"
	"testing"

	"isex/internal/dfg"
	"isex/internal/ir"
)

// TestTraceTreeFig5 reproduces Figs. 5 and 7 on the Fig. 4 example with
// Nout = 1: 11 considered cuts, 5 passed, 6 failed, 4 never considered.
func TestTraceTreeFig5(t *testing.T) {
	g, _ := fig4Graph(t)
	res, err := TraceSearchTree(g, Config{Nin: 100, Nout: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Considered != 11 || res.Passed != 5 || res.Failed != 6 || res.Skipped != 4 {
		t.Fatalf("trace = %d/%d/%d/%d, paper says 11/5/6/4",
			res.Considered, res.Passed, res.Failed, res.Skipped)
	}
	// The specific labels of Fig. 5: the level-1 cut is 1000, the nonconvex
	// failure 1001 is... Fig. 7's failing nodes include the cut {0,3}
	// (bits 1001) — find it and check it failed on convexity.
	var find func(n *TraceNode, bits string, branch int) *TraceNode
	find = func(n *TraceNode, bits string, branch int) *TraceNode {
		if n.Bits == bits && n.Branch == branch {
			return n
		}
		for _, k := range n.Kids {
			if r := find(k, bits, branch); r != nil {
				return r
			}
		}
		return nil
	}
	if n := find(res.Root, "1000", 1); n == nil || n.Status != TracePassed {
		t.Errorf("cut {0} should pass: %+v", n)
	}
	if n := find(res.Root, "1001", 1); n == nil || n.Status != TraceFailed {
		t.Errorf("cut {0,3} (nonconvex) should fail: %+v", n)
	}
	if n := find(res.Root, "0001", 1); n == nil || n.Status != TracePassed {
		t.Errorf("cut {3} should pass: %+v", n)
	}
	// Full cut 1111 lies under the failed 1100 subtree: never considered.
	if n := find(res.Root, "1111", 1); n == nil || n.Status != TraceSkipped {
		t.Errorf("cut {0,1,2,3} should be eliminated: %+v", n)
	}
	out := res.Render()
	for _, want := range []string{"(root)", "[pass]", "[FAIL", "[not considered]", "considered=11"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestTraceMatchesSearchStats: on random small graphs the tree tallies
// must equal the optimized searcher's statistics — an independent
// cross-check of the incremental checks.
func TestTraceMatchesSearchStats(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(t, rng, 4+rng.Intn(8))
		for _, c := range []struct{ nin, nout int }{{100, 1}, {100, 2}, {100, 3}} {
			cfg := Config{Nin: c.nin, Nout: c.nout}
			res, err := TraceSearchTree(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			search := FindBestCut(g, cfg)
			if res.Considered != search.Stats.CutsConsidered ||
				res.Passed != search.Stats.Passed ||
				res.Failed != search.Stats.Pruned {
				t.Fatalf("trial %d (%d,%d): trace %d/%d/%d vs search %d/%d/%d",
					trial, c.nin, c.nout,
					res.Considered, res.Passed, res.Failed,
					search.Stats.CutsConsidered, search.Stats.Passed, search.Stats.Pruned)
			}
		}
	}
}

func TestTraceTreeTooBig(t *testing.T) {
	b := ir.NewBuilder("big", 2)
	v := b.Fn.Params[0]
	for i := 0; i < 20; i++ {
		v = b.Op(ir.OpAdd, v, b.Fn.Params[1])
	}
	b.Ret(v)
	f := b.Finish()
	g := dfg.Build(f, f.Entry(), ir.Liveness(f))
	if _, err := TraceSearchTree(g, Config{Nin: 4, Nout: 2}); err == nil {
		t.Error("oversized graph accepted")
	}
}
