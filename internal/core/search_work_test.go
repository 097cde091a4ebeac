package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"slices"
	"testing"

	"isex/internal/dfg"
	"isex/internal/workload"
)

// searchWorkDigest is the SHA-256 of the work record of every serial
// exact search in TestSearchWorkDigest. The searchers are rewritten for
// speed from time to time, and each rewrite must leave the traversal
// identical — same cuts considered, passed and pruned, same status, same
// merit and cuts — so this constant moves only on purpose: a change that
// moves it updates it here and says why in CHANGES.md.
const searchWorkDigest = "f5538e7df0767e7b40ad9d3b9d9c477db3ce3835bac260a58cbbe52868423cf6"

// searchWorkBudget caps every search of TestSearchWorkDigest, so the
// blocks the exact search cannot finish stop at the budget and pin the
// traversal order as well as its extent.
const searchWorkBudget = 250_000

// TestSearchWorkDigest hashes what serial FindBestCut and FindBestCuts
// at M = 1 and M = 2 do on every kernel block with at least 8 operation
// nodes, at ports 2/1, 4/2 and 4/3, with and without the PruneInputs
// and PruneMerit prunings.
func TestSearchWorkDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("exact searches on the kernels' blocks")
	}
	graphs, err := workload.RealBlockGraphs()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, bi := range graphs {
		g := bi.Graph
		if g.NumOps() < 8 {
			continue
		}
		for _, p := range []struct{ nin, nout int }{{2, 1}, {4, 2}, {4, 3}} {
			for _, prune := range []bool{false, true} {
				cfg := Config{Nin: p.nin, Nout: p.nout, PruneInputs: prune, PruneMerit: prune, MaxCuts: searchWorkBudget}
				fmt.Fprintf(h, "== %s/%s/%s %d/%d prune=%v\n", bi.Kernel, bi.Fn, bi.Block, p.nin, p.nout, prune)
				r := FindBestCut(g, cfg)
				var merit int64
				var cuts []dfg.Cut
				if r.Found {
					merit, cuts = r.Est.Merit, []dfg.Cut{r.Cut}
				}
				hashSearch(h, 0, r.Status, r.Stats, merit, cuts)
				for m := 1; m <= 2; m++ {
					mr := FindBestCuts(g, m, cfg)
					hashSearch(h, m, mr.Status, mr.Stats, mr.TotalMerit, mr.Cuts)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != searchWorkDigest {
		t.Errorf("search work digest = %s, want %s: at least one search's traversal changed",
			got, searchWorkDigest)
	}
}

// searchWorkDigestM3 is the SHA-256 of the work record of every search
// in TestSearchWorkDigestM3, under the same rule as searchWorkDigest.
const searchWorkDigestM3 = "ac991feff3dba3bb2224a1a9b683e821691721fb1a6fe8cdae685272ae9571c3"

// TestSearchWorkDigestM3 hashes what serial FindBestCuts at M = 3 does
// on the same blocks at ports 2/1, 4/2, 4/3 and 8/4, with and without
// the prunings: the selection drivers' §6.2 re-searches run at M ≥ 2,
// and at the wider ports most of a block's cuts have three siblings.
func TestSearchWorkDigestM3(t *testing.T) {
	if testing.Short() {
		t.Skip("exact searches on the kernels' blocks")
	}
	graphs, err := workload.RealBlockGraphs()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, bi := range graphs {
		g := bi.Graph
		if g.NumOps() < 8 {
			continue
		}
		for _, p := range []struct{ nin, nout int }{{2, 1}, {4, 2}, {4, 3}, {8, 4}} {
			for _, prune := range []bool{false, true} {
				cfg := Config{Nin: p.nin, Nout: p.nout, PruneInputs: prune, PruneMerit: prune, MaxCuts: searchWorkBudget}
				fmt.Fprintf(h, "== %s/%s/%s %d/%d prune=%v\n", bi.Kernel, bi.Fn, bi.Block, p.nin, p.nout, prune)
				mr := FindBestCuts(g, 3, cfg)
				hashSearch(h, 3, mr.Status, mr.Stats, mr.TotalMerit, mr.Cuts)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != searchWorkDigestM3 {
		t.Errorf("M = 3 search work digest = %s, want %s: at least one search's traversal changed",
			got, searchWorkDigestM3)
	}
}

// hashSearch adds one search's work record to h; m is 0 for FindBestCut.
func hashSearch(h hash.Hash, m int, st SearchStatus, s Stats, merit int64, cuts []dfg.Cut) {
	fmt.Fprintf(h, "m=%d %v cuts=%d passed=%d pruned=%d merit=%d %v\n",
		m, st, s.CutsConsidered, s.Passed, s.Pruned, merit, cuts)
}

// TestIncludeCheckMatchesKernel pins the incremental 1-branch checks to
// the §5 kernel. Along random search paths, on seeded random graphs and
// on the kernel blocks that carry memory-order edges, includeOK(v) must
// equal Convex(S∪{v}) && Outputs(S∪{v}) ≤ Nout for the current cut S,
// and assignOK(v, k), which reads the consumer scan's masks, the same for
// every cut k of an M = 3 search. A path includes a node only where the
// kernel allows it, as the searchers do.
//
// Order edges join barrier nodes only, which never join a cut, so each
// ordered block is also walked with its barriers made includable: that
// exercises the checks' own order-edge test, which an order edge between
// operations would reach.
func TestIncludeCheckMatchesKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var graphs []*dfg.Graph
	for i := 0; i < 60; i++ {
		graphs = append(graphs, randomGraph(t, rng, 4+rng.Intn(16)))
	}
	blocks, err := workload.RealBlockGraphs()
	if err != nil {
		t.Fatal(err)
	}
	ordered := 0
	for _, bi := range blocks {
		for _, n := range bi.Graph.Nodes {
			if len(n.OrderSuccs) > 0 {
				graphs = append(graphs, bi.Graph, withoutBarriers(bi.Graph))
				ordered++
				break
			}
		}
	}
	if ordered == 0 {
		t.Fatal("no kernel block carries memory-order edges")
	}
	for gi, g := range graphs {
		for nout := -1; nout <= 3; nout++ {
			for walk := 0; walk < 3; walk++ {
				walkSingle(t, g, nout, rng, gi)
				walkMulti(t, g, 3, nout, rng, gi)
			}
		}
	}
}

// withoutBarriers returns g with no forbidden node. It shares g's edges
// and §5 kernel tables, which Forbidden does not enter.
func withoutBarriers(g *dfg.Graph) *dfg.Graph {
	ng := *g
	ng.Nodes = append([]dfg.Node(nil), g.Nodes...)
	for i := range ng.Nodes {
		ng.Nodes[i].Forbidden = false
	}
	return &ng
}

// kernelAdmits is the §5 kernel's verdict on adding id to cut.
func kernelAdmits(g *dfg.Graph, cut dfg.Cut, id, nout int) bool {
	c := append(append(dfg.Cut(nil), cut...), id)
	return g.Convex(c) && g.Outputs(c) <= nout
}

// walkSingle takes one random §6.1 search path, checking includeOK at
// every includable node.
func walkSingle(t *testing.T, g *dfg.Graph, nout int, rng *rand.Rand, gi int) {
	t.Helper()
	s := newSearcher(g, Config{Nin: 1 << 20, Nout: nout})
	for _, id := range s.order {
		node := &g.Nodes[id]
		if !node.Forbidden {
			want := kernelAdmits(g, s.currentCut(), id, nout)
			if got := s.includeOK(node); got != want {
				t.Fatalf("graph %d Nout %d: includeOK(%d) = %v with cut %v, kernel says %v",
					gi, nout, id, got, s.currentCut(), want)
			}
			if want && rng.Intn(4) != 0 {
				s.applyInclude(id, node)
				continue
			}
		}
		s.applyExclude(id, node)
	}
}

// walkMulti takes one random §6.2 search path over m cuts. At every
// node it checks the consumer scan's verdict for every cut k, open or
// not, against the kernel's, and after every decision it recounts the
// state the searcher keeps incrementally (checkMultiState). A path
// assigns a node only to a cut the search may open or extend.
func walkMulti(t *testing.T, g *dfg.Graph, m, nout int, rng *rand.Rand, gi int) {
	t.Helper()
	s := newMultiSearcher(g, m, Config{Nin: 2, Nout: nout, PruneInputs: true})
	cuts := make([]dfg.Cut, m+1)
	for rank, id := range s.order {
		maxK := min(s.open+1, m)
		s.enter(rank, id, maxK)
		var legal []int
		if !g.Nodes[id].Forbidden {
			for k := 1; k <= m; k++ {
				want := kernelAdmits(g, cuts[k], id, nout)
				if got := s.assignOK(rank, k); got != want {
					t.Fatalf("graph %d Nout %d: assignOK(%d, %d) = %v with cuts %v, kernel says %v",
						gi, nout, id, k, got, cuts[1:], want)
				}
				if want && k <= maxK {
					legal = append(legal, k)
				}
			}
		}
		if len(legal) > 0 && rng.Intn(4) != 0 {
			k := legal[rng.Intn(len(legal))]
			s.applyAssign(rank, id, k)
			cuts[k] = append(cuts[k], id)
		} else {
			s.applyExclude(rank, id)
		}
		checkMultiState(t, s, cuts, rank, gi)
	}
}

// checkMultiState recounts, after the decision at rank, every cut's IN,
// OUT, permanent inputs (live-ins and decided producers outside the cut)
// and cycles, and the running totals over the cuts, and compares them
// with what the searcher keeps.
func checkMultiState(t *testing.T, s *multiSearcher, cuts []dfg.Cut, rank, gi int) {
	t.Helper()
	g, nin := s.g, s.cfg.Nin
	var merit int64
	var open, overIn, overPerm int
	for k := 1; k <= s.m; k++ {
		c := &s.cuts[k]
		if len(cuts[k]) == 0 {
			if c.size != 0 {
				t.Fatalf("graph %d rank %d: empty cut %d has size %d", gi, rank, k, c.size)
			}
			continue
		}
		open++
		est := Evaluate(g, cuts[k], s.model)
		permanent := map[int]bool{}
		for _, id := range cuts[k] {
			for _, p := range g.Nodes[id].Preds {
				if !slices.Contains(cuts[k], p) && (g.Nodes[p].Kind == dfg.KindIn || g.Pos(p) <= rank) {
					permanent[p] = true
				}
			}
		}
		perm := len(permanent)
		if c.size != len(cuts[k]) || c.inputs != est.In || c.out != est.Out || c.permIn != perm ||
			max(c.cyc, 1) != est.HWCycles {
			t.Fatalf("graph %d rank %d: cut %d %v: size %d in %d out %d permIn %d cycles %d, recount %d/%d/%d/%d/%d",
				gi, rank, k, cuts[k], c.size, c.inputs, c.out, c.permIn, max(c.cyc, 1),
				len(cuts[k]), est.In, est.Out, perm, est.HWCycles)
		}
		merit += est.Merit
		overIn += b2i(est.In > nin)
		overPerm += b2i(perm > nin)
	}
	if s.open != open || s.merit != merit || s.overIn != overIn || s.overPerm != overPerm {
		t.Fatalf("graph %d rank %d: open %d merit %d overIn %d overPerm %d, recount %d/%d/%d/%d",
			gi, rank, s.open, s.merit, s.overIn, s.overPerm, open, merit, overIn, overPerm)
	}
}
