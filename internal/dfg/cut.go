package dfg

import (
	"slices"
	"sort"
)

// Cut is a set of operation-node IDs of one graph (a subgraph S ⊆ G).
type Cut []int

// Canon returns the cut sorted by node ID (a canonical form for
// comparison and printing).
func (c Cut) Canon() Cut {
	out := append(Cut(nil), c...)
	sort.Ints(out)
	return out
}

// Equal reports element-wise equality (compare canonical forms when the
// member order may differ).
func (c Cut) Equal(o Cut) bool {
	if len(c) != len(o) {
		return false
	}
	for i, x := range c {
		if x != o[i] {
			return false
		}
	}
	return true
}

// Contains reports membership.
func (c Cut) Contains(id int) bool {
	for _, x := range c {
		if x == id {
			return true
		}
	}
	return false
}

// memberSet builds a membership predicate.
func (g *Graph) memberSet(c Cut) []bool {
	in := make([]bool, len(g.Nodes))
	for _, id := range c {
		in[id] = true
	}
	return in
}

// Inputs returns IN(S): the number of distinct predecessor nodes of edges
// entering the cut from the rest of G+ (§5). Constants included in the
// cut consume no input; constants outside feeding the cut count like any
// other producer (they occupy a register at the cut boundary).
func (g *Graph) Inputs(c Cut) int { return g.InputsSet(g.memberBits(c)) }

// Outputs returns OUT(S): the number of nodes in S whose value is
// consumed outside S — by other operations of the block or by output
// variable nodes (§5).
func (g *Graph) Outputs(c Cut) int { return g.OutputsSet(g.memberBits(c)) }

// Convex reports whether S is convex: no path from a node in S to another
// node in S passes through a node outside S (§5).
func (g *Graph) Convex(c Cut) bool { return g.ConvexSet(g.memberBits(c)) }

// Legal reports whether the cut satisfies all constraints of Problem 1:
// no forbidden nodes, IN ≤ nin, OUT ≤ nout, and convexity.
func (g *Graph) Legal(c Cut, nin, nout int) bool {
	return g.LegalSet(g.memberBits(c), nin, nout)
}

// Components returns the number of weakly connected components of the cut
// (the paper's disconnected cuts, e.g. M2+M3 of Fig. 3, have more than
// one).
func (g *Graph) Components(c Cut) int { return g.ComponentsSet(g.memberBits(c)) }

// The *Spec predicates below are the direct transliterations of §5 the
// package originally shipped. They allocate per call and are kept solely
// as executable specifications: the quick tests differential-check the
// word-parallel kernel above against them on random graphs, and the
// constraint-kernel benchmarks measure the gap.

// InputsSpec is the specification implementation of Inputs.
func (g *Graph) InputsSpec(c Cut) int {
	in := g.memberSet(c)
	seen := map[int]bool{}
	n := 0
	for _, id := range c {
		for _, p := range g.Nodes[id].Preds {
			if !in[p] && !seen[p] {
				seen[p] = true
				n++
			}
		}
	}
	return n
}

// OutputsSpec is the specification implementation of Outputs.
func (g *Graph) OutputsSpec(c Cut) int {
	in := g.memberSet(c)
	n := 0
	for _, id := range c {
		for _, s := range g.Nodes[id].Succs {
			if !in[s] {
				n++
				break // count nodes, not edges
			}
		}
	}
	return n
}

// ConvexSpec is the specification implementation of Convex: forward
// reachability from the cut through outside nodes only. V+ nodes have no
// outgoing (KindOut) or incoming (KindIn) edges respectively, so paths
// through them cannot exist and only operation nodes matter.
func (g *Graph) ConvexSpec(c Cut) bool {
	if len(c) == 0 {
		return true
	}
	in := g.memberSet(c)
	// Forward reachability from the cut through outside nodes only: if an
	// outside node reachable from S has a successor in S, S is not convex.
	// reached[v] = true when v is outside S and reachable from S via a
	// path whose intermediate nodes are all outside S.
	reached := make([]bool, len(g.Nodes))
	var stack []int
	push := func(s int) bool { // returns false on violation
		if in[s] {
			return false
		}
		if !reached[s] {
			reached[s] = true
			stack = append(stack, s)
		}
		return true
	}
	for _, id := range c {
		for _, s := range g.Nodes[id].Succs {
			if !in[s] {
				push(s)
			}
		}
		for _, s := range g.Nodes[id].OrderSuccs {
			if !in[s] {
				push(s)
			}
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Nodes[v].Succs {
			if !push(s) {
				return false
			}
		}
		for _, s := range g.Nodes[v].OrderSuccs {
			if !push(s) {
				return false
			}
		}
	}
	return true
}

// LegalSpec is the specification implementation of Legal.
func (g *Graph) LegalSpec(c Cut, nin, nout int) bool {
	for _, id := range c {
		if g.Nodes[id].Kind != KindOp || g.Nodes[id].Forbidden {
			return false
		}
	}
	return g.InputsSpec(c) <= nin && g.OutputsSpec(c) <= nout && g.ConvexSpec(c)
}

// ComponentsSpec is the specification implementation of Components.
func (g *Graph) ComponentsSpec(c Cut) int {
	if len(c) == 0 {
		return 0
	}
	in := g.memberSet(c)
	visited := map[int]bool{}
	n := 0
	for _, id := range c {
		if visited[id] {
			continue
		}
		n++
		stack := []int{id}
		visited[id] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Nodes[v].Succs {
				if in[w] && !visited[w] {
					visited[w] = true
					stack = append(stack, w)
				}
			}
			for _, w := range g.Nodes[v].Preds {
				if in[w] && !visited[w] {
					visited[w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	return n
}

// Collapse returns a new graph in which the cut has been contracted into
// a single forbidden super-node, as the iterative selection algorithm of
// §6.3 requires ("previously identified cuts are merged into single graph
// nodes, and are excluded from forthcoming identification steps").
// latency records the custom instruction's hardware cycle count on the
// super-node, and name labels it. Collapsing a non-convex cut would fold
// a path through outside nodes into a cycle; that is reported as an
// error, never a panic.
//
// Like Build, Collapse carves every node's edge lists from one slab; a
// node's capacity there is the old degree of the nodes it replaces.
func (g *Graph) Collapse(c Cut, name string, latency int) (*Graph, error) {
	// idMap maps old IDs to new IDs; all cut members map to the
	// super-node. Members are marked first.
	const member = -2
	idMap := make([]int, len(g.Nodes))
	maxInstr := -1
	var members []int
	var superDeg [4]int // the super-node's list capacities
	for _, id := range c {
		n := &g.Nodes[id]
		if n.InstrIndex > maxInstr {
			maxInstr = n.InstrIndex
		}
		if n.Kind == KindOp && n.InstrIndex >= 0 {
			members = append(members, n.InstrIndex)
		}
		members = append(members, n.SuperMembers...)
		if idMap[id] != member {
			idMap[id] = member
			superDeg[0] += len(n.Preds)
			superDeg[1] += len(n.Succs)
			superDeg[2] += len(n.OrderPreds)
			superDeg[3] += len(n.OrderSuccs)
		}
	}
	sort.Ints(members)
	nodes, edges := 0, 0
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if idMap[i] != member {
			nodes++
		}
		edges += len(n.Preds) + len(n.Succs) + len(n.OrderPreds) + len(n.OrderSuccs)
	}
	if len(c) > 0 {
		nodes++ // the super-node
	}
	ng := &Graph{Fn: g.Fn, Block: g.Block, Nodes: make([]Node, 0, nodes)}
	slab := make([]int, edges)
	// lists gives a node the empty lists it fills below, capped at the
	// old degrees.
	lists := func(n *Node, preds, succs, orderPreds, orderSuccs int) {
		n.Preds, n.Succs = carve(&slab, preds), carve(&slab, succs)
		n.OrderPreds, n.OrderSuccs = carve(&slab, orderPreds), carve(&slab, orderSuccs)
	}
	superID := -1
	for i := range g.Nodes {
		old := &g.Nodes[i]
		if idMap[i] == member {
			if superID < 0 {
				superID = len(ng.Nodes)
				ng.Nodes = append(ng.Nodes, Node{
					ID:           superID,
					Kind:         KindOp,
					InstrIndex:   maxInstr,
					Reg:          old.Reg,
					Forbidden:    true,
					Name:         name,
					SuperLatency: latency,
					SuperMembers: members,
				})
				lists(&ng.Nodes[superID], superDeg[0], superDeg[1], superDeg[2], superDeg[3])
			}
			idMap[i] = superID
			continue
		}
		nid := len(ng.Nodes)
		ng.Nodes = append(ng.Nodes, *old)
		nn := &ng.Nodes[nid]
		nn.ID = nid
		lists(nn, len(old.Preds), len(old.Succs), len(old.OrderPreds), len(old.OrderSuccs))
		idMap[i] = nid
	}
	// Re-add edges, de-duplicated, skipping internal cut edges. An edge
	// repeats only where several members merge, and is dropped when its
	// source already lists its target.
	for i := range g.Nodes {
		from := idMap[i]
		nf := &ng.Nodes[from]
		for _, s := range g.Nodes[i].Succs {
			to := idMap[s]
			if from == to || slices.Contains(nf.Succs, to) {
				continue // internal edge of the collapsed cut, or a repeat
			}
			nf.Succs = append(nf.Succs, to)
			ng.Nodes[to].Preds = append(ng.Nodes[to].Preds, from)
		}
		for _, s := range g.Nodes[i].OrderSuccs {
			to := idMap[s]
			if from == to || slices.Contains(nf.OrderSuccs, to) {
				continue
			}
			nf.OrderSuccs = append(nf.OrderSuccs, to)
			ng.Nodes[to].OrderPreds = append(ng.Nodes[to].OrderPreds, from)
		}
	}
	if err := ng.rebuildOrder(); err != nil {
		return nil, err
	}
	return ng, nil
}

// Restrict returns a view of the graph in which every operation node
// whose search rank lies outside [lo, hi) is additionally forbidden.
// Edges, IDs and the search order are shared with the original, so cuts
// found on the view are valid cuts of the original graph with identical
// IN/OUT/convexity — the heuristic windowed search of §9 is built on
// this. The view shares the original's constraint tables (the edge
// structure is identical; Restrict builds them if no query has), but
// has its own forbidden set and scratch, built on its first query.
func (g *Graph) Restrict(lo, hi int) *Graph {
	if g.kern == nil {
		g.kern = newKernel(g)
	}
	ng := &Graph{Fn: g.Fn, Block: g.Block, OpOrder: g.OpOrder, pos: g.pos, kern: g.kern}
	ng.Nodes = make([]Node, len(g.Nodes))
	copy(ng.Nodes, g.Nodes)
	for rank, id := range g.OpOrder {
		if rank < lo || rank >= hi {
			ng.Nodes[id].Forbidden = true
		}
	}
	return ng
}
