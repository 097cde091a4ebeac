package dfg

import (
	"testing"

	"isex/internal/ir"
)

// buildMemBlock: load a; t = a+1; store [p] t; load b; u = b*2; ret u —
// with memory-order edges store→load2 and load1→store.
func buildMemBlock(t *testing.T) (*ir.Function, *Graph) {
	t.Helper()
	b := ir.NewBuilder("f", 1)
	p := b.Fn.Params[0]
	a := b.Load(p)                      // 0: reader
	t1 := b.Op(ir.OpAdd, a, b.Const(1)) // 1,2
	b.Store(p, t1)                      // 3: writer
	bb := b.Load(p)                     // 4: reader after writer
	u := b.Op(ir.OpMul, bb, b.Const(2)) // 5,6
	b.Ret(u)
	f := b.Finish()
	return f, Build(f, f.Entry(), ir.Liveness(f))
}

func TestMemoryOrderEdges(t *testing.T) {
	_, g := buildMemBlock(t)
	var ld1, st, ld2 = -1, -1, -1
	for i := range g.Nodes {
		n := &g.Nodes[i]
		switch {
		case n.Op == ir.OpLoad && n.InstrIndex == 0:
			ld1 = n.ID
		case n.Op == ir.OpStore:
			st = n.ID
		case n.Op == ir.OpLoad && n.InstrIndex > 0:
			ld2 = n.ID
		}
	}
	if ld1 < 0 || st < 0 || ld2 < 0 {
		t.Fatal("nodes not found")
	}
	hasOrder := func(from, to int) bool {
		for _, s := range g.Nodes[from].OrderSuccs {
			if s == to {
				return true
			}
		}
		return false
	}
	if !hasOrder(ld1, st) {
		t.Error("missing read→write order edge")
	}
	if !hasOrder(st, ld2) {
		t.Error("missing write→read order edge")
	}
	if hasOrder(ld1, ld2) {
		t.Error("read→read order edge should not exist")
	}
	// Order edges must not contribute to IN/OUT.
	cut := Cut{ld1} // forbidden; but Inputs/Outputs are still well-defined
	if in := g.Inputs(cut); in != 1 {
		t.Errorf("load inputs = %d, want 1 (the address)", in)
	}
}

func TestConvexityThroughOrderEdges(t *testing.T) {
	// t1 = x+1 ; store [p] t1 ; v = load p ; t2 = v*x
	// Cut {t1, t2}: the only connection is t1 →(data) store →(order)
	// load →(data) t2 — still a path, so the cut must be non-convex.
	b := ir.NewBuilder("f", 2)
	p, x := b.Fn.Params[0], b.Fn.Params[1]
	t1 := b.Op(ir.OpAdd, x, b.Const(1))
	b.Store(p, t1)
	v := b.Load(p)
	t2 := b.Op(ir.OpMul, v, x)
	b.Ret(t2)
	f := b.Finish()
	g := Build(f, f.Entry(), ir.Liveness(f))
	var n1, n2 = -1, -1
	for i := range g.Nodes {
		switch g.Nodes[i].Op {
		case ir.OpAdd:
			n1 = g.Nodes[i].ID
		case ir.OpMul:
			n2 = g.Nodes[i].ID
		}
	}
	if g.Convex(Cut{n1, n2}) {
		t.Error("cut straddling a store→load chain must be non-convex")
	}
	if !g.Convex(Cut{n1}) || !g.Convex(Cut{n2}) {
		t.Error("singletons must be convex")
	}
}

func TestStoreBarriersBetweenWriters(t *testing.T) {
	b := ir.NewBuilder("f", 2)
	p, x := b.Fn.Params[0], b.Fn.Params[1]
	b.Store(p, x) // writer 1
	b.Store(p, x) // writer 2: must be ordered after writer 1
	b.RetVoid()
	f := b.Finish()
	g := Build(f, f.Entry(), ir.Liveness(f))
	var s1, s2 = -1, -1
	for i := range g.Nodes {
		if g.Nodes[i].Op == ir.OpStore {
			if s1 < 0 {
				s1 = g.Nodes[i].ID
			} else {
				s2 = g.Nodes[i].ID
			}
		}
	}
	found := false
	for _, s := range g.Nodes[s1].OrderSuccs {
		if s == s2 {
			found = true
		}
	}
	// Build assigns IDs in instruction order, so s1 is the first store.
	if !found {
		t.Error("missing write→write order edge")
	}
}

func TestCallOrdersWithMemory(t *testing.T) {
	// load ; call ; load — the call is both reader and writer.
	b := ir.NewBuilder("f", 1)
	p := b.Fn.Params[0]
	a := b.Load(p)
	b.Call("g", nil, a)
	c := b.Load(p)
	b.Ret(c)
	f := b.Finish()
	// Module with callee so nothing else fails later.
	g := Build(f, f.Entry(), ir.Liveness(f))
	var ld1, call, ld2 = -1, -1, -1
	for i := range g.Nodes {
		switch {
		case g.Nodes[i].Op == ir.OpLoad && ld1 < 0:
			ld1 = g.Nodes[i].ID
		case g.Nodes[i].Op == ir.OpCall:
			call = g.Nodes[i].ID
		case g.Nodes[i].Op == ir.OpLoad:
			ld2 = g.Nodes[i].ID
		}
	}
	has := func(from, to int) bool {
		for _, s := range g.Nodes[from].OrderSuccs {
			if s == to {
				return true
			}
		}
		return false
	}
	if !has(ld1, call) || !has(call, ld2) {
		t.Error("call not ordered against surrounding memory operations")
	}
}

func TestCollapsePreservesOrderEdges(t *testing.T) {
	_, g := buildMemBlock(t)
	// Collapse the add (a pure node) and check order edges survive on the
	// rest of the graph.
	var add int = -1
	for i := range g.Nodes {
		if g.Nodes[i].Op == ir.OpAdd {
			add = g.Nodes[i].ID
		}
	}
	ng := mustCollapse(t, g, Cut{add}, "super", 1)
	orderEdges := 0
	for i := range ng.Nodes {
		orderEdges += len(ng.Nodes[i].OrderSuccs)
	}
	if orderEdges != 2 {
		t.Errorf("order edges after collapse = %d, want 2", orderEdges)
	}
}
