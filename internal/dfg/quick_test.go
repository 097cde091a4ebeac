package dfg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"isex/internal/ir"
)

// randomGraphLocal builds a random single-block function (mirrors the
// generator used in core's tests, kept local to avoid an import cycle).
func randomGraphLocal(rng *rand.Rand, nOps int) *Graph {
	b := ir.NewBuilder("rand", 3)
	vals := append([]ir.Reg{}, b.Fn.Params...)
	pick := func() ir.Reg { return vals[rng.Intn(len(vals))] }
	ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpXor, ir.OpShl, ir.OpSelect}
	for i := 0; i < nOps; i++ {
		switch rng.Intn(8) {
		case 0:
			vals = append(vals, b.Const(int32(rng.Intn(64))))
		case 1:
			vals = append(vals, b.Load(pick()))
		case 2:
			b.Store(pick(), pick())
		default:
			op := ops[rng.Intn(len(ops))]
			if op.Info().Arity == 3 {
				vals = append(vals, b.Op(op, pick(), pick(), pick()))
			} else {
				vals = append(vals, b.Op(op, pick(), pick()))
			}
		}
	}
	next := b.NewBlock("next")
	b.Jump(next)
	b.SetBlock(next)
	acc := vals[len(vals)-1]
	for i := 0; i < 2; i++ {
		acc = b.Op(ir.OpAdd, acc, vals[rng.Intn(len(vals))])
	}
	b.Ret(acc)
	f := b.Finish()
	return Build(f, f.Entry(), ir.Liveness(f))
}

func randomCut(rng *rand.Rand, g *Graph) Cut {
	var c Cut
	for _, id := range g.OpOrder {
		if !g.Nodes[id].Forbidden && rng.Intn(3) == 0 {
			c = append(c, id)
		}
	}
	return c
}

// TestQuickCutInvariants: structural properties of IN/OUT/convexity on
// random cuts of random graphs.
func TestQuickCutInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraphLocal(rng, 4+rng.Intn(14))
		c := randomCut(rng, g)
		in, out := g.Inputs(c), g.Outputs(c)
		// OUT never exceeds the cut size; IN never exceeds total pred count.
		if out > len(c) || out < 0 || in < 0 {
			return false
		}
		// The empty cut is trivially legal; singletons are always convex.
		if !g.Convex(Cut{}) {
			return false
		}
		for _, id := range c {
			if !g.Convex(Cut{id}) {
				return false
			}
		}
		// Monotone union: adding all op nodes yields a superset whose
		// components count is at most that of the sub-cut… (weak check:
		// Components never exceeds |cut|).
		if comps := g.Components(c); comps > len(c) || (len(c) > 0 && comps < 1) {
			return false
		}
		// Convexity is invariant under canonical reordering.
		if g.Convex(c) != g.Convex(c.Canon()) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// checkKernelAgainstSpec differential-tests the word-parallel kernel
// against the specification predicates on one cut.
func checkKernelAgainstSpec(t *testing.T, g *Graph, c Cut, label string) {
	t.Helper()
	if got, want := g.Inputs(c), g.InputsSpec(c); got != want {
		t.Fatalf("%s: Inputs=%d spec=%d on cut %v", label, got, want, c)
	}
	if got, want := g.Outputs(c), g.OutputsSpec(c); got != want {
		t.Fatalf("%s: Outputs=%d spec=%d on cut %v", label, got, want, c)
	}
	if got, want := g.Convex(c), g.ConvexSpec(c); got != want {
		t.Fatalf("%s: Convex=%v spec=%v on cut %v", label, got, want, c)
	}
	if got, want := g.Components(c), g.ComponentsSpec(c); got != want {
		t.Fatalf("%s: Components=%d spec=%d on cut %v", label, got, want, c)
	}
	for _, lim := range [][2]int{{1, 1}, {2, 1}, {4, 2}, {64, 64}} {
		if got, want := g.Legal(c, lim[0], lim[1]), g.LegalSpec(c, lim[0], lim[1]); got != want {
			t.Fatalf("%s: Legal(%d,%d)=%v spec=%v on cut %v", label, lim[0], lim[1], got, want, c)
		}
	}
	// The set-based API agrees with the Cut-based wrappers (fresh set, so
	// the wrappers' scratch reuse cannot mask a stale-state bug).
	s := g.SetOf(c, nil)
	if g.InputsSet(s) != g.InputsSpec(c) || g.OutputsSet(s) != g.OutputsSpec(c) ||
		g.ConvexSet(s) != g.ConvexSpec(c) || g.ComponentsSet(s) != g.ComponentsSpec(c) ||
		g.LegalSet(s, 4, 2) != g.LegalSpec(c, 4, 2) {
		t.Fatalf("%s: set-based kernel diverges from spec on cut %v", label, c)
	}
}

// TestQuickKernelMatchesSpec: the bitset kernel agrees with the §5
// specification predicates on random cuts of random graphs — which
// include loads and stores, so order edges are exercised — including
// cuts that touch forbidden (barrier) nodes.
func TestQuickKernelMatchesSpec(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraphLocal(rng, 4+rng.Intn(16))
		for trial := 0; trial < 8; trial++ {
			c := randomCut(rng, g)
			checkKernelAgainstSpec(t, g, c, "random")
			// Also an illegal-by-construction cut including barrier nodes.
			var all Cut
			for _, id := range g.OpOrder {
				if rng.Intn(2) == 0 {
					all = append(all, id)
				}
			}
			checkKernelAgainstSpec(t, g, all, "with-forbidden")
		}
		checkKernelAgainstSpec(t, g, Cut{}, "empty")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickKernelAfterCollapse: the kernel stays consistent with the spec
// on graphs containing collapsed super-nodes, and on Restrict views of
// them (the shapes the iterative selection and the windowed rescue
// actually query).
func TestQuickKernelAfterCollapse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraphLocal(rng, 8+rng.Intn(10))
		c := randomCut(rng, g)
		if len(c) == 0 || !g.ConvexSpec(c) {
			return true
		}
		ng, err := g.Collapse(c, "s", 1)
		if err != nil {
			t.Fatalf("collapse of convex cut failed: %v", err)
		}
		for trial := 0; trial < 8; trial++ {
			checkKernelAgainstSpec(t, ng, randomCut(rng, ng), "collapsed")
		}
		n := ng.NumOps()
		if n == 0 {
			return true
		}
		lo := rng.Intn(n)
		view := ng.Restrict(lo, lo+1+rng.Intn(n-lo))
		for trial := 0; trial < 4; trial++ {
			checkKernelAgainstSpec(t, view, randomCut(rng, view), "restricted")
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickCollapsePreservesBoundary: after collapsing a legal cut, the
// super-node's degree structure matches the cut's boundary on the
// original graph (distinct external producers = IN side, and it has a
// successor iff the cut had an output).
func TestQuickCollapsePreservesBoundary(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraphLocal(rng, 6+rng.Intn(10))
		c := randomCut(rng, g)
		if len(c) == 0 || !g.Convex(c) {
			return true // only convex cuts are collapsed in practice
		}
		in, out := g.Inputs(c), g.Outputs(c)
		ng, err := g.Collapse(c, "s", 1)
		if err != nil {
			return false
		}
		var super *Node
		for i := range ng.Nodes {
			if ng.Nodes[i].Name == "s" {
				super = &ng.Nodes[i]
			}
		}
		if super == nil {
			return false
		}
		if len(super.Preds) != in {
			return false
		}
		// The super-node has data successors iff the cut produced outputs.
		return (len(super.Succs) > 0) == (out > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickRestrictSoundness: any cut legal on a Restrict view is legal
// on the original graph with identical IN/OUT.
func TestQuickRestrictSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraphLocal(rng, 8+rng.Intn(8))
		n := g.NumOps()
		lo := rng.Intn(n)
		hi := lo + 1 + rng.Intn(n-lo)
		view := g.Restrict(lo, hi)
		c := randomCut(rng, view)
		if len(c) == 0 {
			return true
		}
		// Members must be within the window and non-forbidden originally.
		for _, id := range c {
			if g.Nodes[id].Forbidden {
				return false
			}
		}
		return g.Inputs(c) == view.Inputs(c) &&
			g.Outputs(c) == view.Outputs(c) &&
			g.Convex(c) == view.Convex(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalCollapseRejectsNonConvex: Collapse errors on exactly
// the non-convex cuts — contracting one would fold a path through
// outside nodes into a cycle.
func TestIncrementalCollapseRejectsNonConvex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	found := 0
	for attempt := 0; attempt < 400 && found < 10; attempt++ {
		g := randomGraphLocal(rng, 8+rng.Intn(12))
		c := randomCut(rng, g)
		if len(c) == 0 {
			continue
		}
		_, err := g.Collapse(c, "s", 1)
		if g.ConvexSpec(c) {
			if err != nil {
				t.Fatalf("Collapse rejected convex cut %v: %v", c, err)
			}
			continue
		}
		found++
		if err == nil {
			t.Fatalf("Collapse accepted non-convex cut %v", c)
		}
	}
	if found == 0 {
		t.Skip("no non-convex cut drawn")
	}
}
