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
	"sort"
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
	// kern holds the precomputed word-parallel constraint tables (see
	// bitset.go); it is immutable and shared with Restrict views.
	kern *kernel
	// forbid marks nodes that may never join a cut (V+ nodes and
	// Forbidden ops); per-graph because Restrict widens it.
	forbid BitSet
	// scr holds the kernel's reusable accumulators; per-graph, so
	// constraint queries on one Graph are not safe for concurrent use.
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
func Build(f *ir.Function, b *ir.Block, li *ir.LiveInfo) (*Graph, error) {
	g := &Graph{Fn: f, Block: b}
	// lastDef tracks, during the forward walk, the node currently
	// defining each register.
	lastDef := map[ir.Reg]int{}
	inputNode := map[ir.Reg]int{}

	addNode := func(n Node) int {
		n.ID = len(g.Nodes)
		g.Nodes = append(g.Nodes, n)
		return n.ID
	}
	addEdge := func(from, to int) {
		g.Nodes[from].Succs = append(g.Nodes[from].Succs, to)
		g.Nodes[to].Preds = append(g.Nodes[to].Preds, from)
	}
	addOrderEdge := func(from, to int) {
		if from == to {
			return
		}
		for _, s := range g.Nodes[from].OrderSuccs {
			if s == to {
				return
			}
		}
		g.Nodes[from].OrderSuccs = append(g.Nodes[from].OrderSuccs, to)
		g.Nodes[to].OrderPreds = append(g.Nodes[to].OrderPreds, from)
	}
	// Memory-ordering state: the last writer node and the readers seen
	// since. Calls both read and write; allocas only produce an address.
	lastWriter := -1
	var readers []int
	inputFor := func(r ir.Reg) int {
		if id, ok := inputNode[r]; ok {
			return id
		}
		id := addNode(Node{Kind: KindIn, InstrIndex: -1, Reg: r, Name: "in:r" + strconv.Itoa(int(r))})
		inputNode[r] = id
		return id
	}

	for i := range b.Instrs {
		in := &b.Instrs[i]
		var primary ir.Reg = ir.NoReg
		if len(in.Dsts) > 0 {
			primary = in.Dsts[0]
		}
		id := addNode(Node{
			Kind:       KindOp,
			Op:         in.Op,
			InstrIndex: i,
			Reg:        primary,
			Forbidden:  !in.Op.Pure(),
		})
	args:
		for _, a := range in.Args {
			var src int
			if d, ok := lastDef[a]; ok {
				src = d
			} else {
				src = inputFor(a)
			}
			// A node reading the same value twice contributes one edge;
			// IN/OUT count nodes, not edges (§5).
			for _, p := range g.Nodes[id].Preds {
				if p == src {
					continue args
				}
			}
			addEdge(src, id)
		}
		for _, d := range in.Dsts {
			lastDef[d] = id
		}
		switch in.Op {
		case ir.OpLoad:
			if lastWriter >= 0 {
				addOrderEdge(lastWriter, id)
			}
			readers = append(readers, id)
		case ir.OpStore, ir.OpCall:
			if lastWriter >= 0 {
				addOrderEdge(lastWriter, id)
			}
			for _, r := range readers {
				addOrderEdge(r, id)
			}
			readers = readers[:0]
			lastWriter = id
		}
	}

	// Output variable nodes: final definers of registers that are live
	// out of the block or consumed by its terminator.
	liveOut := li.Out[b.Index]
	needOut := map[ir.Reg]bool{}
	for r := range lastDef {
		if liveOut.Has(r) {
			needOut[r] = true
		}
	}
	if b.Term.Kind == ir.TermBranch {
		if _, ok := lastDef[b.Term.Cond]; ok {
			needOut[b.Term.Cond] = true
		}
	}
	if b.Term.Kind == ir.TermRet && b.Term.HasVal {
		if _, ok := lastDef[b.Term.Val]; ok {
			needOut[b.Term.Val] = true
		}
	}
	// Deterministic order.
	outRegs := make([]ir.Reg, 0, len(needOut))
	for r := range needOut {
		outRegs = append(outRegs, r)
	}
	sort.Slice(outRegs, func(i, j int) bool { return outRegs[i] < outRegs[j] })
	for _, r := range outRegs {
		def := lastDef[r]
		// Only the defining instruction's value escapes; V+ output nodes
		// for multi-dst instructions are keyed per register.
		id := addNode(Node{Kind: KindOut, InstrIndex: -1, Reg: r, Name: "out:r" + strconv.Itoa(int(r))})
		addEdge(def, id)
	}

	if err := g.rebuildOrder(); err != nil {
		return nil, err
	}
	return g, nil
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
	// Count, for each op node, unplaced op-node consumers.
	remaining := make([]int, len(g.Nodes))
	ops := 0
	var ready []int
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.Kind != KindOp {
			continue
		}
		ops++
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
	order := make([]int, 0, ops)
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
	g.pos = make([]int, len(g.Nodes))
	for i := range g.pos {
		g.pos[i] = -1
	}
	for rank, id := range order {
		g.pos[id] = rank
	}
	g.buildKernel()
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
