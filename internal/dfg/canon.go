// Canonical graph hashing and isomorphism testing for cross-block
// deduplication (DESIGN.md §14).
//
// CanonHash assigns every graph a 128-bit digest that is invariant under
// node renumbering and renaming: two blocks that compute the same dataflow
// shape — the unrolled MAC in function f and its clone in function g —
// digest identically even though their Fingerprints differ (Fingerprint
// bakes in function/block names, node IDs and construction order).
// The digest is built by Weisfeiler-Lehman (1-WL) color refinement:
// every node starts from a color derived from its local invariants
// (kind, op, forbidden flag, super-latency, per-class degrees) and is
// iteratively re-colored with the sorted multiset of its neighbours'
// colors over the four edge classes (data preds/succs, order preds/succs)
// until the color partition stabilizes. 1-WL is incomplete — regular
// graph pairs such as one 6-cycle versus two triangles refine to the same
// palette — so hash equality is only a candidate filter: CanonMatch (and
// the stricter OrderMatch the dedup layer uses) verify an actual
// isomorphism and produce the node renaming.
package dfg

import (
	"fmt"
	"sort"
)

// CanonDigest is a 128-bit isomorphism-invariant graph digest. Two
// isomorphic graphs always digest equally; the converse is not guaranteed
// (WL-hard pairs collide) and must be confirmed with CanonMatch.
type CanonDigest struct{ Hi, Lo uint64 }

// IsZero reports whether the digest is the zero value (never produced for
// a real graph: the seeds are folded in even for empty graphs).
func (d CanonDigest) IsZero() bool { return d.Hi == 0 && d.Lo == 0 }

func (d CanonDigest) String() string { return fmt.Sprintf("%016x%016x", d.Hi, d.Lo) }

// FNV-1a word folding, same construction as Fingerprint: byte-wise so
// every bit of v lands in the state.
const (
	fnvPrime   = 1099511628211
	fnvOffset  = 14695981039346656037
	fnvOffset2 = 0x9e3779b97f4a7c15 // second seed for the digest's low half
)

func fold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v >> (8 * i) & 0xff
		h *= fnvPrime
	}
	return h
}

// canonGraph is the refinement working set: the nodes of a graph (or the
// members of a cut) indexed densely, with per-class adjacency and an
// initial color per node.
type canonGraph struct {
	n    int
	base []uint64
	// adj[class][dense] lists neighbour dense indexes; classes are
	// data-preds, data-succs, order-preds, order-succs.
	adj [4][][]int
}

// canonFull extracts the whole graph; dense indexes are node IDs and the
// adjacency lists are the nodes' own (canonGraph never mutates them).
// Only Nodes is consulted (no search order, no kernel), so hand-built
// graphs — including cyclic ones — can be hashed and matched.
func (g *Graph) canonFull() *canonGraph {
	cg := &canonGraph{n: len(g.Nodes), base: make([]uint64, len(g.Nodes))}
	for c := range cg.adj {
		cg.adj[c] = make([][]int, cg.n)
	}
	for di := range g.Nodes {
		n := &g.Nodes[di]
		cg.adj[0][di] = n.Preds
		cg.adj[1][di] = n.Succs
		cg.adj[2][di] = n.OrderPreds
		cg.adj[3][di] = n.OrderSuccs
		h := fold(fnvOffset, uint64(n.Kind))
		h = fold(h, uint64(n.Op))
		if n.Forbidden {
			h = fold(h, 1)
		} else {
			h = fold(h, 0)
		}
		h = fold(h, uint64(int64(n.SuperLatency)))
		for c := range cg.adj {
			h = fold(h, uint64(len(cg.adj[c][di])))
		}
		cg.base[di] = h
	}
	return cg
}

// canonCut extracts the cut-induced subgraph: the members, their internal
// edges, and — folded into each member's base color — the number of
// distinct external data producers it reads and whether its value escapes
// the cut. That is exactly the datapath of the custom instruction the cut
// would become, so two selected cuts with equal canonCut digests describe
// one shared AFU datapath (SelectionResult.SharedInstructions).
func (g *Graph) canonCut(c Cut) *canonGraph {
	cg := &canonGraph{n: len(c), base: make([]uint64, len(c))}
	dense := make([]int, len(g.Nodes))
	for i := range dense {
		dense[i] = -1
	}
	for di, id := range c {
		dense[id] = di
	}
	for cl := range cg.adj {
		cg.adj[cl] = make([][]int, cg.n)
	}
	for di, id := range c {
		n := &g.Nodes[id]
		extIn, extOut := 0, uint64(0)
		for _, p := range n.Preds {
			if dense[p] >= 0 {
				cg.adj[0][di] = append(cg.adj[0][di], dense[p])
			} else {
				extIn++
			}
		}
		for _, s := range n.Succs {
			if dense[s] >= 0 {
				cg.adj[1][di] = append(cg.adj[1][di], dense[s])
			} else {
				extOut = 1
			}
		}
		for _, p := range n.OrderPreds {
			if dense[p] >= 0 {
				cg.adj[2][di] = append(cg.adj[2][di], dense[p])
			}
		}
		for _, s := range n.OrderSuccs {
			if dense[s] >= 0 {
				cg.adj[3][di] = append(cg.adj[3][di], dense[s])
			}
		}
		h := fold(fnvOffset, uint64(n.Op))
		h = fold(h, uint64(int64(n.SuperLatency)))
		h = fold(h, uint64(extIn))
		h = fold(h, extOut)
		cg.base[di] = h
	}
	return cg
}

// refine runs WL color refinement to a fixed point: each round re-colors
// every node with (own color, per-class sorted neighbour color multisets)
// and stops as soon as a round fails to split any color class. At most n
// rounds are needed (each round that changes anything strictly increases
// the number of classes).
func (cg *canonGraph) refine() []uint64 {
	colors := append([]uint64(nil), cg.base...)
	if cg.n == 0 {
		return colors
	}
	next := make([]uint64, cg.n)
	var buf []uint64
	prev := distinctCount(colors)
	for round := 0; round < cg.n; round++ {
		for i := range colors {
			h := fold(fnvOffset, colors[i])
			for cl := range cg.adj {
				ns := cg.adj[cl][i]
				buf = buf[:0]
				for _, j := range ns {
					buf = append(buf, colors[j])
				}
				sort.Slice(buf, func(a, b int) bool { return buf[a] < buf[b] })
				h = fold(h, uint64(cl))
				h = fold(h, uint64(len(buf)))
				for _, v := range buf {
					h = fold(h, v)
				}
			}
			next[i] = h
		}
		copy(colors, next)
		d := distinctCount(colors)
		if d == prev {
			break
		}
		prev = d
	}
	return colors
}

func distinctCount(colors []uint64) int {
	s := append([]uint64(nil), colors...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	d := 0
	for i, c := range s {
		if i == 0 || c != s[i-1] {
			d++
		}
	}
	return d
}

// digest folds the node count and the sorted multiset of stable colors
// into two independently seeded 64-bit FNV streams. Sorting is the
// deterministic tie-break: the digest depends only on the color multiset,
// never on node numbering.
func (cg *canonGraph) digest(colors []uint64) CanonDigest {
	s := append([]uint64(nil), colors...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	hi := fold(fnvOffset, uint64(cg.n))
	lo := fold(fnvOffset2, uint64(cg.n))
	for _, c := range s {
		hi = fold(hi, c)
		lo = fold(lo, c)
	}
	return CanonDigest{Hi: hi, Lo: lo}
}

// CanonHash returns the graph's canonical 128-bit digest: invariant under
// node renumbering, node/function/block renaming, instruction-index and
// register assignment, and execution frequency — exactly the properties
// Fingerprint deliberately bakes in.
func (g *Graph) CanonHash() CanonDigest {
	cg := g.canonFull()
	return cg.digest(cg.refine())
}

// CutCanonHash returns the canonical digest of the cut-induced datapath:
// member operations, internal data edges, and each member's external
// input count and output escape flag. Two selected cuts — from the same
// or different blocks — with equal digests describe the same custom
// instruction datapath.
func (g *Graph) CutCanonHash(c Cut) CanonDigest {
	cg := g.canonCut(c)
	return cg.digest(cg.refine())
}

// CanonMatch reports whether b is isomorphic to a (all four edge
// classes, local invariants per canonFull) and returns the node
// renaming: ren[id] is the b-node ID corresponding to a-node id. The
// search is a color-class-constrained backtracking
// over the refined WL palette — candidate images are restricted to the
// matching color class, most-constrained classes first — with a step
// budget: pathological instances return no match rather than hang, which
// is sound for the dedup layer (a missed merge costs a duplicate search,
// never a wrong result).
func CanonMatch(a, b *Graph) ([]int, bool) {
	return canonMatch(a.canonFull(), b.canonFull())
}

// CutCanonMatch reports whether cut cb of gb is datapath-isomorphic to
// cut ca of ga (the verification behind SharedInstructions).
func CutCanonMatch(ga *Graph, ca Cut, gb *Graph, cb Cut) bool {
	_, ok := canonMatch(ga.canonCut(ca), gb.canonCut(cb))
	return ok
}

// canonMatchBudget caps backtracking steps; beyond it canonMatch gives up
// and reports no match. Block graphs are small (tens of nodes) and the
// color classes after refinement are nearly singletons, so real matches
// finish in O(n) steps — the budget only guards adversarial regulars.
const canonMatchBudget = 1 << 18

func canonMatch(ca, cb *canonGraph) ([]int, bool) {
	if ca.n != cb.n {
		return nil, false
	}
	if ca.n == 0 {
		return []int{}, true
	}
	colA, colB := ca.refine(), cb.refine()
	// The color multisets must agree exactly.
	sa := append([]uint64(nil), colA...)
	sb := append([]uint64(nil), colB...)
	sort.Slice(sa, func(i, j int) bool { return sa[i] < sa[j] })
	sort.Slice(sb, func(i, j int) bool { return sb[i] < sb[j] })
	for i := range sa {
		if sa[i] != sb[i] {
			return nil, false
		}
	}
	classB := map[uint64][]int{}
	for j, c := range colB {
		classB[c] = append(classB[c], j)
	}
	// Sorted adjacency copies for O(log n) membership tests.
	sortedAdj := func(cg *canonGraph) [4][][]int {
		var out [4][][]int
		for cl := range cg.adj {
			out[cl] = make([][]int, cg.n)
			for i, ns := range cg.adj[cl] {
				s := append([]int(nil), ns...)
				sort.Ints(s)
				out[cl][i] = s
			}
		}
		return out
	}
	adjA, adjB := sortedAdj(ca), sortedAdj(cb)
	contains := func(s []int, x int) bool {
		k := sort.SearchInts(s, x)
		return k < len(s) && s[k] == x
	}
	// Assign most-constrained color classes first.
	order := make([]int, ca.n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		u, v := order[i], order[j]
		su, sv := len(classB[colA[u]]), len(classB[colA[v]])
		if su != sv {
			return su < sv
		}
		if colA[u] != colA[v] {
			return colA[u] < colA[v]
		}
		return u < v
	})
	phi := make([]int, ca.n)
	inv := make([]int, cb.n)
	for i := range phi {
		phi[i], inv[i] = -1, -1
	}
	steps := 0
	var assign func(k int) bool
	assign = func(k int) bool {
		if k == ca.n {
			return true
		}
		u := order[k]
		for _, v := range classB[colA[u]] {
			if inv[v] >= 0 {
				continue
			}
			steps++
			if steps > canonMatchBudget {
				return false
			}
			ok := true
			for cl := 0; cl < 4 && ok; cl++ {
				for _, w := range ca.adj[cl][u] {
					if mw := phi[w]; mw >= 0 && !contains(adjB[cl][v], mw) {
						ok = false
						break
					}
				}
				if !ok {
					break
				}
				for _, x := range cb.adj[cl][v] {
					if ix := inv[x]; ix >= 0 && !contains(adjA[cl][u], ix) {
						ok = false
						break
					}
				}
			}
			if !ok {
				continue
			}
			phi[u], inv[v] = v, u
			if assign(k + 1) {
				return true
			}
			phi[u], inv[v] = -1, -1
			if steps > canonMatchBudget {
				return false
			}
		}
		return false
	}
	if !assign(0) {
		return nil, false
	}
	return phi, true
}

// OrderMatch reports whether b is search-order isomorphic to a: the node
// at rank r of b.OpOrder corresponds to the node at rank r of a.OpOrder
// (same op, forbidden flag and super-latency), every data and order edge
// maps rank-to-rank, and the V+ input/output nodes pair up by identical
// consumer/producer rank multisets. This is strictly stronger than
// CanonMatch: under an order match the §6 search tree over b is, node for
// node, the tree over a with IDs renamed — same expansion order, same
// IN/OUT counts, same convexity verdicts, same per-execution savings —
// so an exhaustive result for a translates verbatim to b (frequencies
// excepted; every merit comparison scales uniformly with the block
// weight, see DESIGN.md §14). The returned renaming maps a-node IDs to
// b-node IDs. It is the gate the cross-block dedup layer uses; CanonMatch
// remains the general-purpose matcher.
func OrderMatch(a, b *Graph) ([]int, bool) {
	n := a.NumOps()
	if n != b.NumOps() {
		return nil, false
	}
	ren := make([]int, len(a.Nodes))
	for i := range ren {
		ren[i] = -1
	}
	for r := 0; r < n; r++ {
		ua, vb := &a.Nodes[a.OpOrder[r]], &b.Nodes[b.OpOrder[r]]
		if ua.Op != vb.Op || ua.Forbidden != vb.Forbidden || ua.SuperLatency != vb.SuperLatency {
			return nil, false
		}
		ren[ua.ID] = vb.ID
	}
	// Per-rank edge structure: the sorted rank sets of data and order
	// producers must agree. Checking preds for every rank covers every
	// op-op edge once (succ sets then agree automatically).
	opRanks := func(g *Graph, list []int) []int {
		var out []int
		for _, x := range list {
			if g.Nodes[x].Kind == KindOp {
				out = append(out, g.Pos(x))
			}
		}
		sort.Ints(out)
		return out
	}
	intsEq := func(x, y []int) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	for r := 0; r < n; r++ {
		ua, vb := &a.Nodes[a.OpOrder[r]], &b.Nodes[b.OpOrder[r]]
		if !intsEq(opRanks(a, ua.Preds), opRanks(b, vb.Preds)) {
			return nil, false
		}
		if !intsEq(opRanks(a, ua.OrderPreds), opRanks(b, vb.OrderPreds)) {
			return nil, false
		}
	}
	// V+ nodes pair up by signature: an input node is characterized by the
	// sorted ranks of its consumers, an output node by the sorted ranks of
	// its producers. Equal signature multisets mean the bipartite V+
	// structure — and hence every IN/OUT count the search computes — is
	// identical; pairing equal signatures in sorted order is an arbitrary
	// but consistent choice among interchangeable nodes.
	pair := func(kind Kind, ranksOf func(g *Graph, nd *Node) []int) bool {
		type sig struct {
			id    int
			ranks []int
		}
		collect := func(g *Graph) []sig {
			var out []sig
			for i := range g.Nodes {
				if g.Nodes[i].Kind == kind {
					out = append(out, sig{id: i, ranks: ranksOf(g, &g.Nodes[i])})
				}
			}
			sort.Slice(out, func(i, j int) bool {
				x, y := out[i].ranks, out[j].ranks
				for k := 0; k < len(x) && k < len(y); k++ {
					if x[k] != y[k] {
						return x[k] < y[k]
					}
				}
				if len(x) != len(y) {
					return len(x) < len(y)
				}
				return out[i].id < out[j].id
			})
			return out
		}
		as, bs := collect(a), collect(b)
		if len(as) != len(bs) {
			return false
		}
		for i := range as {
			if !intsEq(as[i].ranks, bs[i].ranks) {
				return false
			}
			ren[as[i].id] = bs[i].id
		}
		return true
	}
	if !pair(KindIn, func(g *Graph, nd *Node) []int { return opRanks(g, nd.Succs) }) {
		return nil, false
	}
	if !pair(KindOut, func(g *Graph, nd *Node) []int { return opRanks(g, nd.Preds) }) {
		return nil, false
	}
	return ren, true
}

// TranslateCut maps a cut through a renaming produced by CanonMatch or
// OrderMatch, returning the canonical (sorted) translated cut. It reports
// failure when a member has no image.
func TranslateCut(c Cut, ren []int) (Cut, bool) {
	out := make(Cut, 0, len(c))
	for _, id := range c {
		if id < 0 || id >= len(ren) || ren[id] < 0 {
			return nil, false
		}
		out = append(out, ren[id])
	}
	return out.Canon(), true
}
