package dfg

import (
	"strings"
	"testing"

	"isex/internal/ir"
	"isex/internal/minic"
	"isex/internal/passes"
)

// buildStraightLine constructs a single-block function:
//
//	t0 = a + b     (uses params a, b -> two input nodes)
//	t1 = t0 * a    (internal edge + input reuse)
//	t2 = t0 - t1
//	store mem[a] = t2  (forbidden node)
//	ret t2             (t2 is an output)
//
// mustBuild and mustCollapse fail the test on the error paths the
// production code now reports instead of panicking.
func mustBuild(t *testing.T, f *ir.Function, b *ir.Block, li *ir.LiveInfo) *Graph {
	t.Helper()
	g, err := Build(f, b, li)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustCollapse(t *testing.T, g *Graph, c Cut, name string, latency int) *Graph {
	t.Helper()
	ng, err := g.Collapse(c, name, latency)
	if err != nil {
		t.Fatal(err)
	}
	return ng
}

func buildStraightLine(t *testing.T) (*ir.Function, *Graph) {
	t.Helper()
	b := ir.NewBuilder("f", 2)
	a, bb := b.Fn.Params[0], b.Fn.Params[1]
	t0 := b.Op(ir.OpAdd, a, bb)
	t1 := b.Op(ir.OpMul, t0, a)
	t2 := b.Op(ir.OpSub, t0, t1)
	b.Store(a, t2)
	b.Ret(t2)
	f := b.Finish()
	if err := ir.VerifyFunction(f, nil); err != nil {
		t.Fatal(err)
	}
	li := ir.Liveness(f)
	return f, mustBuild(t, f, f.Entry(), li)
}

func opNode(t *testing.T, g *Graph, instrIdx int) int {
	t.Helper()
	for i := range g.Nodes {
		if g.Nodes[i].Kind == KindOp && g.Nodes[i].InstrIndex == instrIdx {
			return g.Nodes[i].ID
		}
	}
	t.Fatalf("no op node for instruction %d", instrIdx)
	return -1
}

func TestBuildBasics(t *testing.T) {
	_, g := buildStraightLine(t)
	if g.NumOps() != 4 {
		t.Fatalf("op nodes = %d, want 4", g.NumOps())
	}
	var nIn, nOut int
	for i := range g.Nodes {
		switch g.Nodes[i].Kind {
		case KindIn:
			nIn++
		case KindOut:
			nOut++
		}
	}
	if nIn != 2 {
		t.Errorf("input V+ nodes = %d, want 2 (a, b)", nIn)
	}
	if nOut != 1 {
		t.Errorf("output V+ nodes = %d, want 1 (t2 consumed by ret)", nOut)
	}
	add := opNode(t, g, 0)
	mul := opNode(t, g, 1)
	sub := opNode(t, g, 2)
	st := opNode(t, g, 3)
	if !g.Nodes[st].Forbidden {
		t.Error("store not forbidden")
	}
	for _, id := range []int{add, mul, sub} {
		if g.Nodes[id].Forbidden {
			t.Errorf("node %d wrongly forbidden", id)
		}
	}
	// add feeds mul and sub.
	succs := g.Nodes[add].Succs
	if len(succs) != 2 || !(contains(succs, mul) && contains(succs, sub)) {
		t.Errorf("add succs = %v", succs)
	}
	// sub feeds the store and the output node.
	foundOut := false
	for _, s := range g.Nodes[sub].Succs {
		if g.Nodes[s].Kind == KindOut {
			foundOut = true
		}
	}
	if !foundOut {
		t.Error("sub has no output V+ edge despite terminator use")
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func TestSearchOrderInvariant(t *testing.T) {
	_, g := buildStraightLine(t)
	checkOrder(t, g)
	// Freshly built graphs use exactly reverse instruction order.
	for r := 1; r < len(g.OpOrder); r++ {
		if g.Nodes[g.OpOrder[r]].InstrIndex >= g.Nodes[g.OpOrder[r-1]].InstrIndex {
			t.Fatalf("fresh graph order not reverse instruction order: %v", g.OpOrder)
		}
	}
}

func checkOrder(t *testing.T, g *Graph) {
	t.Helper()
	if len(g.OpOrder) != g.NumOps() {
		t.Fatalf("order length %d != ops %d", len(g.OpOrder), g.NumOps())
	}
	for _, id := range g.OpOrder {
		for _, s := range g.Nodes[id].Succs {
			if g.Nodes[s].Kind != KindOp {
				continue
			}
			if g.Pos(s) >= g.Pos(id) {
				t.Fatalf("consumer %d (pos %d) not before producer %d (pos %d)",
					s, g.Pos(s), id, g.Pos(id))
			}
		}
	}
}

func TestDuplicateArgSingleEdge(t *testing.T) {
	b := ir.NewBuilder("f", 1)
	a := b.Fn.Params[0]
	sq := b.Op(ir.OpMul, a, a) // same value twice: one edge
	b.Ret(sq)
	f := b.Finish()
	g := mustBuild(t, f, f.Entry(), ir.Liveness(f))
	mul := opNode(t, g, 0)
	if len(g.Nodes[mul].Preds) != 1 {
		t.Errorf("duplicate arg produced %d edges, want 1", len(g.Nodes[mul].Preds))
	}
	if got := g.Inputs(Cut{mul}); got != 1 {
		t.Errorf("IN = %d, want 1", got)
	}
}

func TestRedefinitionSplitsValues(t *testing.T) {
	// r = a+1 ; use r ; r = a+2 ; ret r — the first r is internal only.
	b := ir.NewBuilder("f", 1)
	a := b.Fn.Params[0]
	r := b.Fn.NewReg()
	b.CopyTo(r, b.Op(ir.OpAdd, a, b.Const(1)))
	u := b.Op(ir.OpShl, r, b.Const(1))
	_ = u
	b.CopyTo(r, b.Op(ir.OpAdd, a, b.Const(2)))
	b.Ret(r)
	f := b.Finish()
	g := mustBuild(t, f, f.Entry(), ir.Liveness(f))
	// Exactly one output V+ node (the final r).
	outs := 0
	for i := range g.Nodes {
		if g.Nodes[i].Kind == KindOut {
			outs++
			// It must hang off the *last* copy.
			def := g.Nodes[i].Preds[0]
			if g.Nodes[def].InstrIndex != len(f.Entry().Instrs)-1 {
				t.Errorf("output attached to instruction %d, want last", g.Nodes[def].InstrIndex)
			}
		}
	}
	if outs != 1 {
		t.Errorf("outputs = %d, want 1", outs)
	}
}

// diamondGraph builds the four-node graph used for IN/OUT/convexity unit
// tests:
//
//	n0 = a + b
//	n1 = n0 << 1
//	n2 = n0 * 3          (3 is folded as an extra const node n2c)
//	n3 = n1 - n2
//	ret n3
func diamondGraph(t *testing.T) (*Graph, [4]int) {
	t.Helper()
	b := ir.NewBuilder("f", 2)
	a, bb := b.Fn.Params[0], b.Fn.Params[1]
	n0 := b.Op(ir.OpAdd, a, bb)
	c1 := b.Const(1)
	n1 := b.Op(ir.OpShl, n0, c1)
	c3 := b.Const(3)
	n2 := b.Op(ir.OpMul, n0, c3)
	n3 := b.Op(ir.OpSub, n1, n2)
	b.Ret(n3)
	f := b.Finish()
	g := mustBuild(t, f, f.Entry(), ir.Liveness(f))
	return g, [4]int{opNode(t, g, 0), opNode(t, g, 2), opNode(t, g, 4), opNode(t, g, 5)}
}

func TestCutInOut(t *testing.T) {
	g, n := diamondGraph(t)
	cases := []struct {
		cut     Cut
		in, out int
		convex  bool
		comps   int
	}{
		{Cut{n[0]}, 2, 1, true, 1},
		{Cut{n[0], n[1]}, 3, 2, true, 1},       // const 1 is an input
		{Cut{n[0], n[1], n[2]}, 4, 2, true, 1}, // consts 1 and 3 in
		{Cut{n[0], n[1], n[2], n[3]}, 4, 1, true, 1},
		{Cut{n[1], n[2]}, 3, 2, true, 2},  // disconnected; add is shared
		{Cut{n[0], n[3]}, 4, 2, false, 2}, // classic nonconvex
		{Cut{n[3]}, 2, 1, true, 1},
		{Cut{}, 0, 0, true, 0},
	}
	for i, c := range cases {
		if got := g.Inputs(c.cut); got != c.in {
			t.Errorf("case %d: IN = %d, want %d", i, got, c.in)
		}
		if got := g.Outputs(c.cut); got != c.out {
			t.Errorf("case %d: OUT = %d, want %d", i, got, c.out)
		}
		if got := g.Convex(c.cut); got != c.convex {
			t.Errorf("case %d: convex = %v, want %v", i, got, c.convex)
		}
		if got := g.Components(c.cut); got != c.comps {
			t.Errorf("case %d: components = %d, want %d", i, got, c.comps)
		}
	}
}

func TestLegal(t *testing.T) {
	g, n := diamondGraph(t)
	if !g.Legal(Cut{n[0]}, 2, 1) {
		t.Error("single add should be legal at (2,1)")
	}
	if g.Legal(Cut{n[0]}, 1, 1) {
		t.Error("two-input cut legal at Nin=1")
	}
	if g.Legal(Cut{n[0], n[1]}, 4, 1) {
		t.Error("two-output cut legal at Nout=1")
	}
	if g.Legal(Cut{n[0], n[3]}, 4, 4) {
		t.Error("nonconvex cut declared legal")
	}
	// Forbidden node never legal.
	bld := ir.NewBuilder("g", 1)
	v := bld.Load(bld.Fn.Params[0])
	bld.Ret(v)
	f := bld.Finish()
	g2 := mustBuild(t, f, f.Entry(), ir.Liveness(f))
	ld := opNode(t, g2, 0)
	if g2.Legal(Cut{ld}, 4, 4) {
		t.Error("forbidden load declared legal")
	}
}

func TestCollapse(t *testing.T) {
	g, n := diamondGraph(t)
	// Collapse {n0, n1} (with const-1 outside to exercise boundary edges).
	ng := mustCollapse(t, g, Cut{n[0], n[1]}, "ise0", 1)
	checkOrder(t, ng)
	if ng.NumOps() != g.NumOps()-1 {
		t.Errorf("ops after collapse = %d, want %d", ng.NumOps(), g.NumOps()-1)
	}
	// Find the super-node.
	super := -1
	for i := range ng.Nodes {
		if ng.Nodes[i].Name == "ise0" {
			super = i
		}
	}
	if super < 0 {
		t.Fatal("super-node missing")
	}
	sn := &ng.Nodes[super]
	if !sn.Forbidden || sn.SuperLatency != 1 {
		t.Errorf("super-node attrs wrong: %+v", sn)
	}
	if len(sn.SuperMembers) != 2 {
		t.Errorf("super members = %v", sn.SuperMembers)
	}
	// Super-node inputs: a, b, const1 producers (3 preds);
	// outputs: mul (uses n0) and sub (uses n1).
	if len(sn.Preds) != 3 {
		t.Errorf("super preds = %d, want 3", len(sn.Preds))
	}
	if len(sn.Succs) != 2 {
		t.Errorf("super succs = %d, want 2", len(sn.Succs))
	}
	// No cut may now include the super-node.
	if ng.Legal(Cut{super}, 8, 8) {
		t.Error("collapsed super-node still selectable")
	}
}

func TestCollapseNested(t *testing.T) {
	g, n := diamondGraph(t)
	ng := mustCollapse(t, g, Cut{n[0]}, "a", 1)
	// Find remaining mul node and collapse it together with... only
	// non-forbidden nodes allowed in future cuts; collapse the shl.
	var shl int = -1
	for i := range ng.Nodes {
		if ng.Nodes[i].Op == ir.OpShl {
			shl = i
		}
	}
	if shl < 0 {
		t.Fatal("shl missing after first collapse")
	}
	ng2 := mustCollapse(t, ng, Cut{shl}, "b", 1)
	checkOrder(t, ng2)
	if ng2.NumOps() != g.NumOps()-0 { // two collapses of singletons keep count
		// 6 ops originally (add, const1, shl, const3, mul, sub); still 6.
		if ng2.NumOps() != 6 {
			t.Errorf("ops = %d", ng2.NumOps())
		}
	}
}

func TestBuildAllOnCompiledProgram(t *testing.T) {
	src := `
int tab[8] = {1,2,3,4,5,6,7,8};
int f(int x, int n) {
    int s = 0;
    int i;
    for (i = 0; i < n; i++) {
        int v = tab[i & 7];
        s += v > x ? v - x : x - v;
    }
    return s;
}`
	m, err := minic.Compile(src, minic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := passes.Run(m, passes.Options{}); err != nil {
		t.Fatal(err)
	}
	graphs, err := BuildAll(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(graphs) == 0 {
		t.Fatal("no graphs")
	}
	total := 0
	for b, g := range graphs {
		checkOrder(t, g)
		if len(g.Nodes) < len(b.Instrs) {
			t.Errorf("%s: fewer nodes than instructions", b.Name)
		}
		total += g.NumOps()
		// Every op node maps back to its instruction.
		for i := range g.Nodes {
			n := &g.Nodes[i]
			if n.Kind == KindOp && (n.InstrIndex < 0 || n.InstrIndex >= len(b.Instrs)) {
				t.Errorf("%s: bad instr index %d", b.Name, n.InstrIndex)
			}
		}
	}
	if total == 0 {
		t.Error("no operation nodes at all")
	}
}

func TestDot(t *testing.T) {
	g, n := diamondGraph(t)
	dot := g.Dot([]int{n[0]})
	for _, want := range []string{"digraph", "->", "lightblue", "invtriangle"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
}

func TestCutHelpers(t *testing.T) {
	c := Cut{3, 1, 2}
	canon := c.Canon()
	if canon[0] != 1 || canon[1] != 2 || canon[2] != 3 {
		t.Errorf("canon = %v", canon)
	}
	if !c.Contains(2) || c.Contains(9) {
		t.Error("Contains broken")
	}
}
