// Package dfg builds the per-basic-block dataflow graphs G+ of §5 of the
// paper. Operation nodes V are the instructions of the block; additional
// nodes V+ represent the block's input variables (values live into the
// block or produced by instructions of other blocks) and output variables
// (values live out of the block or consumed by its terminator). Edges are
// data dependences.
//
// Barrier instructions (loads, stores, calls, allocas, globals, existing
// custom instructions) are ordinary graph nodes — they appear in Fig. 3
// of the paper just like arithmetic nodes — but are marked Forbidden and
// can never be part of a cut, because the AFU has no memory port and no
// architecturally visible state (§2).
package dfg

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"isex/internal/ir"
)

// Kind discriminates node kinds.
type Kind uint8

const (
	KindOp  Kind = iota // an instruction of the block (member of V)
	KindIn              // an input variable node (member of V+)
	KindOut             // an output variable node (member of V+)
)

// Node is one vertex of G+.
type Node struct {
	ID   int
	Kind Kind
	// Op is the operation for KindOp nodes (OpInvalid for V+ nodes and
	// collapsed super-nodes).
	Op ir.Op
	// InstrIndex is the node's instruction position in the block, or -1
	// for V+ nodes. Collapsed super-nodes carry the largest instruction
	// index of their members.
	InstrIndex int
	// Reg is the incoming register for KindIn, the outgoing register for
	// KindOut, and the primary destination for KindOp (NoReg if none).
	Reg ir.Reg
	// Forbidden marks nodes that may not join any cut: barrier operations
	// and super-nodes of previously selected cuts (§6.3).
	Forbidden bool
	// Preds are producer node IDs; Succs are consumer node IDs. These are
	// data dependences; they define IN(S) and OUT(S).
	Preds, Succs []int
	// OrderPreds/OrderSuccs are memory-ordering dependences between
	// barrier nodes (store→load, load→store, store→store, call⇄any).
	// They carry no values — they never count toward IN/OUT — but paths
	// through them constrain convexity and scheduling, so that a
	// collapsed cut can always be issued as one contiguous instruction.
	OrderPreds, OrderSuccs []int
	// Name labels V+ nodes and super-nodes for printing.
	Name string
	// SuperLatency is the hardware cycle count of a collapsed super-node
	// (0 for ordinary nodes); SuperMembers lists the instruction indices
	// that were collapsed into it.
	SuperLatency int
	SuperMembers []int
}

// Graph is the G+ of one basic block.
type Graph struct {
	Fn    *ir.Function
	Block *ir.Block
	Nodes []Node
	// OpOrder lists operation-node IDs in the search order of §6.1: for
	// every edge (producer u → consumer v), v appears before u. This is
	// the paper's "topological sort" (consumers first).
	OpOrder []int
	// pos[id] is the rank of an op node in OpOrder (-1 for V+ nodes).
	pos []int
	// kern holds the word-parallel constraint tables (see bitset.go),
	// built on the first constraint query; it is immutable and shared
	// with Restrict views.
	kern *kernel
	// forbid marks nodes that may never join a cut (V+ nodes and
	// Forbidden ops); per-graph because Restrict widens it. Built with
	// scr on the first constraint query.
	forbid BitSet
	// scr holds the kernel's reusable accumulators; per-graph, so
	// constraint queries on one Graph are not safe for concurrent use.
	// Nil until the first constraint query.
	scr *scratch
}

// NumOps returns the number of operation nodes (|V|).
func (g *Graph) NumOps() int { return len(g.OpOrder) }

// Pos returns the search-order rank of op node id.
func (g *Graph) Pos(id int) int { return g.pos[id] }

// Build constructs G+ for block b of f. li must be the result of
// ir.Liveness(f); it determines the output variable nodes. It returns an
// error (instead of crashing) when the resulting operation graph is not
// acyclic — which cannot happen for IR produced by the front end, but can
// for hand-written or corrupted textual IR.
//
// A first pass over the block counts its nodes exactly; the second
// creates them and records the edges, and every node's four edge lists
// are then carved from one slab, so a graph costs a few allocations
// whatever its size. Each list is a full slice expression of the slab:
// an append by a caller reallocates instead of overwriting a neighbour.
func Build(f *ir.Function, b *ir.Block, li *ir.LiveInfo) (*Graph, error) {
	operands := 0
	for i := range b.Instrs {
		operands += len(b.Instrs[i].Args) + len(b.Instrs[i].Dsts)
	}
	val := newRegTable(operands)
	// needOut reports whether register r, defined in the block, escapes
	// it: live out, or read by the terminator.
	liveOut := li.Out[b.Index]
	needOut := func(r ir.Reg) bool {
		return liveOut.Has(r) ||
			(b.Term.Kind == ir.TermBranch && r == b.Term.Cond) ||
			(b.Term.Kind == ir.TermRet && b.Term.HasVal && r == b.Term.Val)
	}

	// Pass 1: count the input variable nodes, and list the registers
	// that need an output variable node.
	nIn := 0
	var outs []ir.Reg
	for i := range b.Instrs {
		in := &b.Instrs[i]
		for _, a := range in.Args {
			if v := val.at(a); *v == 0 {
				*v = -1
				nIn++
			}
		}
		for _, d := range in.Dsts {
			if v := val.at(d); *v <= 0 {
				if needOut(d) {
					outs = append(outs, d)
				}
				*v = 1
			}
		}
	}
	slices.Sort(outs)
	val.reset()

	// Pass 2: create the nodes in ID order — each instruction's operation
	// node, then the input nodes its operands first read, and finally the
	// output nodes in register order — and record the data and order
	// edges, as (from, to) pairs, in the order they join the lists. A
	// register's value is now the node holding it: 0 for none yet, id+1
	// for the operation node that last defined it, and -(id+1) for the
	// input node that supplies it from outside the block.
	g := &Graph{Fn: f, Block: b, Nodes: make([]Node, len(b.Instrs)+nIn+len(outs))}
	// Ten bytes a name fit registers below 100,000; a longer name only
	// grows the buffer, and the names cut earlier keep the old one.
	var names strings.Builder
	names.Grow((nIn + len(outs)) * 10)
	var digits [11]byte
	vplus := func(id int, kind Kind, prefix string, r ir.Reg) {
		start := names.Len()
		names.WriteString(prefix)
		names.Write(strconv.AppendInt(digits[:0], int64(r), 10))
		g.Nodes[id] = Node{ID: id, Kind: kind, InstrIndex: -1, Reg: r, Name: names.String()[start:]}
	}
	edges := make([]int32, 0, 2*(operands+len(outs)))
	var order, readers []int32
	// Memory-ordering state: the last writer node and the readers seen
	// since. Calls both read and write; allocas only produce an address.
	lastWriter := -1
	next := 0
	for i := range b.Instrs {
		in := &b.Instrs[i]
		id := next
		next++
		primary := ir.NoReg
		if len(in.Dsts) > 0 {
			primary = in.Dsts[0]
		}
		g.Nodes[id] = Node{ID: id, Kind: KindOp, Op: in.Op, InstrIndex: i, Reg: primary, Forbidden: !in.Op.Pure()}
		first := len(edges)
	args:
		for _, a := range in.Args {
			v := val.at(a)
			if *v == 0 {
				vplus(next, KindIn, "in:r", a)
				*v = int32(-(next + 1))
				next++
			}
			src := *v - 1
			if *v < 0 {
				src = -*v - 1
			}
			// A node reading the same value twice contributes one edge;
			// IN/OUT count nodes, not edges (§5).
			for e := first; e < len(edges); e += 2 {
				if edges[e] == src {
					continue args
				}
			}
			edges = append(edges, src, int32(id))
		}
		for _, d := range in.Dsts {
			*val.at(d) = int32(id + 1)
		}
		// Every order edge ends at the current node and starts at a
		// distinct earlier one, so none repeats.
		switch in.Op {
		case ir.OpLoad:
			if lastWriter >= 0 {
				order = append(order, int32(lastWriter), int32(id))
			}
			readers = append(readers, int32(id))
		case ir.OpStore, ir.OpCall:
			if lastWriter >= 0 {
				order = append(order, int32(lastWriter), int32(id))
			}
			for _, r := range readers {
				order = append(order, r, int32(id))
			}
			readers = readers[:0]
			lastWriter = id
		}
	}
	// Output variable nodes: final definers of registers that are live
	// out of the block or consumed by its terminator. Only the defining
	// instruction's value escapes; V+ output nodes for multi-dst
	// instructions are keyed per register.
	for _, r := range outs {
		vplus(next, KindOut, "out:r", r)
		edges = append(edges, *val.at(r)-1, int32(next))
		next++
	}
	g.link(edges, order)

	if err := g.rebuildOrder(); err != nil {
		return nil, err
	}
	return g, nil
}

// regTable maps the registers one block touches to an int32 each, zero
// until set: an open-addressing hash table sized for the block's
// operands, so its cost follows the block, not the function's register
// count.
type regTable struct {
	slots []regSlot
	shift uint
}

type regSlot struct {
	reg ir.Reg
	set bool
	val int32
}

// newRegTable returns a table for up to n distinct registers, at most
// half full.
func newRegTable(n int) regTable {
	shift := uint(32)
	for 1<<(32-shift) < 2*n {
		shift--
	}
	return regTable{slots: make([]regSlot, 1<<(32-shift)), shift: shift}
}

// at returns the value of register r, adding r at zero when absent.
func (t regTable) at(r ir.Reg) *int32 {
	mask := uint32(len(t.slots) - 1)
	for i := uint32(r) * 0x9e3779b1 >> t.shift & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if !s.set {
			s.reg, s.set = r, true
			return &s.val
		}
		if s.reg == r {
			return &s.val
		}
	}
}

// reset sets every value back to zero.
func (t regTable) reset() {
	for i := range t.slots {
		t.slots[i].val = 0
	}
}

// link fills every node's edge lists from the data and order edges,
// given as (from, to) pairs in the order they join the lists: it counts
// each list's length, carves the lists from one slab and appends in
// order.
func (g *Graph) link(data, order []int32) {
	type degree struct{ preds, succs, orderPreds, orderSuccs int32 }
	deg := make([]degree, len(g.Nodes))
	for e := 0; e < len(data); e += 2 {
		deg[data[e]].succs++
		deg[data[e+1]].preds++
	}
	for e := 0; e < len(order); e += 2 {
		deg[order[e]].orderSuccs++
		deg[order[e+1]].orderPreds++
	}
	slab := make([]int, len(data)+len(order))
	for i := range g.Nodes {
		n, d := &g.Nodes[i], deg[i]
		n.Preds, n.Succs = carve(&slab, int(d.preds)), carve(&slab, int(d.succs))
		n.OrderPreds, n.OrderSuccs = carve(&slab, int(d.orderPreds)), carve(&slab, int(d.orderSuccs))
	}
	for e := 0; e < len(data); e += 2 {
		from, to := &g.Nodes[data[e]], &g.Nodes[data[e+1]]
		from.Succs = append(from.Succs, int(data[e+1]))
		to.Preds = append(to.Preds, int(data[e]))
	}
	for e := 0; e < len(order); e += 2 {
		from, to := &g.Nodes[order[e]], &g.Nodes[order[e+1]]
		from.OrderSuccs = append(from.OrderSuccs, int(order[e+1]))
		to.OrderPreds = append(to.OrderPreds, int(order[e]))
	}
}

// carve cuts an empty edge list of capacity k from the front of *slab
// (nil when k is 0). The full slice expression makes an append past k
// reallocate instead of overwriting the next list.
func carve(slab *[]int, k int) []int {
	if k == 0 {
		return nil
	}
	s := (*slab)[0:0:k]
	*slab = (*slab)[k:]
	return s
}

// BuildAll builds graphs for every block of every function in m. It stops
// at the first block whose graph cannot be ordered (malformed IR).
func BuildAll(m *ir.Module) (map[*ir.Block]*Graph, error) {
	out := map[*ir.Block]*Graph{}
	for _, f := range m.Funcs {
		li := ir.Liveness(f)
		for _, b := range f.Blocks {
			g, err := Build(f, b, li)
			if err != nil {
				return nil, err
			}
			out[b] = g
		}
	}
	return out, nil
}

// rebuildOrder recomputes OpOrder: a topological order of the operation
// nodes with consumers before producers (§6.1). Determinism: among ready
// nodes, the largest instruction index is emitted first, which for a
// freshly built graph reproduces exactly the reverse instruction order.
// A cycle among the operation nodes (possible only for malformed input,
// e.g. a hand-edited textual IR or a non-convex collapse) is reported as
// an error, never a panic.
func (g *Graph) rebuildOrder() error {
	ops := 0
	for i := range g.Nodes {
		if g.Nodes[i].Kind == KindOp {
			ops++
		}
	}
	// One buffer holds pos, OpOrder and the ready list. Until the order
	// is complete, pos counts each op node's unplaced op-node consumers.
	buf := make([]int, len(g.Nodes)+2*ops)
	remaining := buf[:len(g.Nodes):len(g.Nodes)]
	order := buf[len(g.Nodes) : len(g.Nodes) : len(g.Nodes)+ops]
	ready := buf[len(g.Nodes)+ops : len(g.Nodes)+ops]
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Kind != KindOp {
			continue
		}
		c := 0
		for _, s := range n.Succs {
			if g.Nodes[s].Kind == KindOp {
				c++
			}
		}
		c += len(n.OrderSuccs) // order edges connect op nodes only
		remaining[n.ID] = c
		if c == 0 {
			ready = append(ready, n.ID)
		}
	}
	for len(ready) > 0 {
		// Pick the ready node with the largest instruction index.
		best := 0
		for i := 1; i < len(ready); i++ {
			if g.Nodes[ready[i]].InstrIndex > g.Nodes[ready[best]].InstrIndex {
				best = i
			}
		}
		id := ready[best]
		ready[best] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, id)
		release := func(p int) {
			if g.Nodes[p].Kind != KindOp {
				return
			}
			remaining[p]--
			if remaining[p] == 0 {
				ready = append(ready, p)
			}
		}
		for _, p := range g.Nodes[id].Preds {
			release(p)
		}
		for _, p := range g.Nodes[id].OrderPreds {
			release(p)
		}
	}
	if len(order) != ops {
		return fmt.Errorf("dfg: cycle in operation graph of %s/%s (%d of %d nodes orderable)",
			g.Fn.Name, g.Block.Name, len(order), ops)
	}
	g.OpOrder = order
	g.pos = remaining
	for i := range g.pos {
		g.pos[i] = -1
	}
	for rank, id := range order {
		g.pos[id] = rank
	}
	return nil
}

// Dot renders the graph in Graphviz format, optionally highlighting a cut.
func (g *Graph) Dot(cut []int) string {
	inCut := map[int]bool{}
	for _, id := range cut {
		inCut[id] = true
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", g.Block.Name)
	for i := range g.Nodes {
		n := &g.Nodes[i]
		label := n.Name
		shape := "ellipse"
		switch n.Kind {
		case KindOp:
			label = n.Op.String()
			if n.Op == ir.OpConst {
				label = fmt.Sprintf("%d", g.Block.Instrs[n.InstrIndex].Imm)
			}
			if n.Name != "" {
				label = n.Name
			}
			shape = "box"
			if n.Forbidden {
				shape = "box3d"
			}
		case KindIn:
			shape = "invtriangle"
		case KindOut:
			shape = "triangle"
		}
		attrs := fmt.Sprintf("label=%q shape=%s", label, shape)
		if inCut[n.ID] {
			attrs += " style=filled fillcolor=lightblue"
		}
		fmt.Fprintf(&sb, "  n%d [%s];\n", n.ID, attrs)
	}
	for i := range g.Nodes {
		for _, s := range g.Nodes[i].Succs {
			fmt.Fprintf(&sb, "  n%d -> n%d;\n", g.Nodes[i].ID, s)
		}
		for _, s := range g.Nodes[i].OrderSuccs {
			fmt.Fprintf(&sb, "  n%d -> n%d [style=dashed];\n", g.Nodes[i].ID, s)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
