package dfg

import "sort"

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
func (g *Graph) Collapse(c Cut, name string, latency int) (*Graph, error) {
	in := g.memberSet(c)
	ng := &Graph{Fn: g.Fn, Block: g.Block}
	// Map old IDs to new IDs; all cut members map to the super-node.
	idMap := make([]int, len(g.Nodes))
	for i := range idMap {
		idMap[i] = -1
	}
	maxInstr := -1
	var members []int
	for _, id := range c {
		if g.Nodes[id].InstrIndex > maxInstr {
			maxInstr = g.Nodes[id].InstrIndex
		}
		if g.Nodes[id].Kind == KindOp && g.Nodes[id].InstrIndex >= 0 {
			members = append(members, g.Nodes[id].InstrIndex)
		}
		members = append(members, g.Nodes[id].SuperMembers...)
	}
	sort.Ints(members)
	superID := -1
	for i := range g.Nodes {
		old := &g.Nodes[i]
		if in[old.ID] {
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
			}
			idMap[old.ID] = superID
			continue
		}
		nid := len(ng.Nodes)
		nn := *old
		nn.ID = nid
		nn.Preds = nil
		nn.Succs = nil
		nn.OrderPreds = nil
		nn.OrderSuccs = nil
		ng.Nodes = append(ng.Nodes, nn)
		idMap[old.ID] = nid
	}
	// Re-add edges, de-duplicated, skipping internal cut edges.
	type edge struct {
		from, to int
		order    bool
	}
	seen := map[edge]bool{}
	for i := range g.Nodes {
		from := idMap[g.Nodes[i].ID]
		for _, s := range g.Nodes[i].Succs {
			to := idMap[s]
			if from == to {
				continue // internal edge of the collapsed cut
			}
			e := edge{from, to, false}
			if seen[e] {
				continue
			}
			seen[e] = true
			ng.Nodes[from].Succs = append(ng.Nodes[from].Succs, to)
			ng.Nodes[to].Preds = append(ng.Nodes[to].Preds, from)
		}
		for _, s := range g.Nodes[i].OrderSuccs {
			to := idMap[s]
			if from == to {
				continue
			}
			e := edge{from, to, true}
			if seen[e] {
				continue
			}
			seen[e] = true
			ng.Nodes[from].OrderSuccs = append(ng.Nodes[from].OrderSuccs, to)
			ng.Nodes[to].OrderPreds = append(ng.Nodes[to].OrderPreds, from)
		}
	}
	if err := ng.rebuildOrder(); err != nil {
		return nil, err
	}
	return ng, nil
}

// Fingerprint hashes the graph's search-relevant structure — function and
// block identity, execution frequency, and every node's kind, operation,
// instruction index, register, forbidden flag, super-node payload and
// exact edge lists — into a 64-bit FNV-1a digest. Node names are cosmetic
// (they label V+ nodes and super-nodes for printing) and are excluded, so
// collapses that differ only in the super-node label hash equally. The
// fingerprint keys the seed book (core.SeedBook), whose entries are
// revalidated on every lookup, so determinism (identical builds hash
// identically) is the property that matters, not isomorphism invariance.
func (g *Graph) Fingerprint() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * i) & 0xff
			h *= prime
		}
	}
	str := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
		word(uint64(len(s)))
	}
	ints := func(xs []int) {
		word(uint64(len(xs)))
		for _, x := range xs {
			word(uint64(int64(x)))
		}
	}
	str(g.Fn.Name)
	str(g.Block.Name)
	word(uint64(g.Block.Freq))
	word(uint64(len(g.Nodes)))
	for i := range g.Nodes {
		n := &g.Nodes[i]
		word(uint64(n.Kind))
		word(uint64(n.Op))
		word(uint64(int64(n.InstrIndex)))
		word(uint64(int64(n.Reg)))
		b := uint64(0)
		if n.Forbidden {
			b = 1
		}
		word(b)
		word(uint64(int64(n.SuperLatency)))
		ints(n.SuperMembers)
		ints(n.Preds)
		ints(n.Succs)
		ints(n.OrderPreds)
		ints(n.OrderSuccs)
	}
	return h
}

// Restrict returns a view of the graph in which every operation node
// whose search rank lies outside [lo, hi) is additionally forbidden.
// Edges, IDs and the search order are shared with the original, so cuts
// found on the view are valid cuts of the original graph with identical
// IN/OUT/convexity — the heuristic windowed search of §9 is built on
// this. The view shares the original's constraint kernel (the edge
// structure is identical) but carries its own forbidden set and scratch.
func (g *Graph) Restrict(lo, hi int) *Graph {
	ng := &Graph{Fn: g.Fn, Block: g.Block, OpOrder: g.OpOrder, pos: g.pos, kern: g.kern}
	ng.Nodes = make([]Node, len(g.Nodes))
	copy(ng.Nodes, g.Nodes)
	for rank, id := range g.OpOrder {
		if rank < lo || rank >= hi {
			ng.Nodes[id].Forbidden = true
		}
	}
	ng.rebuildForbidSet()
	ng.scr = newScratch(len(ng.Nodes))
	return ng
}
