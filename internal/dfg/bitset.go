// Word-parallel constraint kernel. The IN/OUT/convexity predicates of §5
// are the hot path of every identification algorithm — the exact search's
// reference checks, the brute-force enumerators, the baselines, and merit
// evaluation all call them per candidate cut. The specification
// implementations in cut.go rebuild a []bool membership slice plus a map
// per call; this file replaces them on the hot path with bitset
// arithmetic over tables precomputed once per graph:
//
//   - preds/succs: per-node data-edge neighbour bitsets
//   - anc/desc:    per-node reflexive transitive closures over data AND
//     order edges (one O(E·V/64) sweep along the topological order)
//
// With those tables a legality check is O(|S|·V/64) word operations and
// zero heap allocations:
//
//	IN(S)      = |(∪_{v∈S} preds[v]) \ S|
//	OUT(S)     = |{v ∈ S : succs[v] \ S ≠ ∅}|
//	convex(S)  ⇔ (∪ desc[v] ∩ ∪ anc[v]) \ S = ∅
//
// The convexity identity holds because a node u ∉ S lies on a path
// between two members iff u is reachable from S and reaches S; splitting
// any witness walk at the last member before u and the first member after
// u yields the outside-only path the specification predicate searches for.
//
// The tables are built on a graph's first constraint query, not with the
// graph: the §6 searchers keep their own incremental state and
// core.Evaluate reads the edge lists, so a selection's graphs never need
// them. Only the baselines, the enumerators, the greedy rescue and the
// legality backstop query them. Once built they are immutable and shared
// by Restrict views, which Restrict builds them for; the small scratch
// accumulators are per-Graph, so queries on one Graph value — including
// the first, which builds — are not safe for concurrent use. The search
// engines honor this: the parallel branch-and-bound workers touch only
// the node lists (their searchers keep private incremental state), and
// every kernel query runs single-threaded on the owning goroutine, or on
// a Restrict view, which shares the tables but owns its scratch.
package dfg

import "math/bits"

// BitSet is a fixed-capacity set of node IDs backed by machine words.
type BitSet []uint64

// NewBitSet returns a set able to hold IDs in [0, n). Capacity is padded
// to at least two words so the kernel's register-resident two-word fast
// path applies to every graph of up to 128 nodes — i.e. essentially all
// real basic blocks.
func NewBitSet(n int) BitSet {
	w := (n + 63) / 64
	if w < 2 {
		w = 2
	}
	return make(BitSet, w)
}

// Has reports membership of id.
func (b BitSet) Has(id int) bool { return b[id>>6]&(1<<(uint(id)&63)) != 0 }

// Set adds id.
func (b BitSet) Set(id int) { b[id>>6] |= 1 << (uint(id) & 63) }

// Unset removes id.
func (b BitSet) Unset(id int) { b[id>>6] &^= 1 << (uint(id) & 63) }

// Reset clears every member.
func (b BitSet) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// Or adds every member of o.
func (b BitSet) Or(o BitSet) {
	for i, w := range o {
		b[i] |= w
	}
}

// CopyFrom overwrites b with o (same capacity).
func (b BitSet) CopyFrom(o BitSet) {
	copy(b, o)
}

// Count returns the number of members.
func (b BitSet) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// kernel holds the word-parallel tables of one graph. It is immutable
// after newKernel and shared between a graph and its Restrict views
// (which differ only in their forbidden set).
type kernel struct {
	words int
	// preds/succs are data-edge neighbours; adj is their union (the
	// undirected adjacency Components walks).
	preds, succs, adj []BitSet
	// anc/desc are reflexive transitive closures over data and order
	// edges combined — order edges carry no values but constrain paths.
	anc, desc []BitSet
	// fused packs each node's preds, succs, desc and anc rows contiguously
	// (4·words uint64 per node, in that order) so the fused legality check
	// touches one cache line per member at typical block sizes.
	fused []uint64
}

// scratch holds the per-Graph accumulators the kernel predicates reuse,
// so a legality check allocates nothing. member is reserved for the
// Cut-based wrappers; acc1/acc2/acc3 for the predicate internals.
type scratch struct {
	member, acc1, acc2, acc3 BitSet
}

func newScratch(n int) *scratch {
	return &scratch{member: NewBitSet(n), acc1: NewBitSet(n), acc2: NewBitSet(n), acc3: NewBitSet(n)}
}

// bitTable allocates n bitsets of the given word width in one backing
// slab (one allocation instead of n).
func bitTable(n, words int) []BitSet {
	bs := make([]BitSet, n)
	backing := make([]uint64, n*words)
	for i := range bs {
		bs[i] = backing[i*words : (i+1)*words : (i+1)*words]
	}
	return bs
}

// tables returns the graph's constraint tables, building them — and the
// graph's forbidden set and scratch — on the first query.
func (g *Graph) tables() *kernel {
	if g.scr == nil {
		if g.kern == nil {
			g.kern = newKernel(g)
		}
		g.rebuildForbidSet()
		g.scr = newScratch(len(g.Nodes))
	}
	return g.kern
}

// newKernel precomputes g's constraint tables. OpOrder must be valid: the
// sweeps below rely on its topological property (consumers before
// producers, order edges included).
func newKernel(g *Graph) *kernel {
	n := len(g.Nodes)
	words := (n + 63) / 64
	if words < 2 {
		words = 2 // match NewBitSet's padding; see LegalSet's fast path
	}
	k := &kernel{words: words}
	k.preds = bitTable(n, words)
	k.succs = bitTable(n, words)
	k.adj = bitTable(n, words)
	k.anc = bitTable(n, words)
	k.desc = bitTable(n, words)
	for i := range g.Nodes {
		nd := &g.Nodes[i]
		for _, p := range nd.Preds {
			k.preds[i].Set(p)
			k.adj[i].Set(p)
		}
		for _, s := range nd.Succs {
			k.succs[i].Set(s)
			k.adj[i].Set(s)
		}
	}
	// Topological sweep order for desc (every successor first): output
	// nodes are sinks, then OpOrder (consumers before producers), then
	// input nodes, which are sources.
	order := make([]int, 0, n)
	for i := range g.Nodes {
		if g.Nodes[i].Kind == KindOut {
			order = append(order, i)
		}
	}
	order = append(order, g.OpOrder...)
	for i := range g.Nodes {
		if g.Nodes[i].Kind == KindIn {
			order = append(order, i)
		}
	}
	for _, id := range order {
		d := k.desc[id]
		d.Set(id)
		for _, s := range g.Nodes[id].Succs {
			d.Or(k.desc[s])
		}
		for _, s := range g.Nodes[id].OrderSuccs {
			d.Or(k.desc[s])
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		a := k.anc[id]
		a.Set(id)
		for _, p := range g.Nodes[id].Preds {
			a.Or(k.anc[p])
		}
		for _, p := range g.Nodes[id].OrderPreds {
			a.Or(k.anc[p])
		}
	}
	k.fused = make([]uint64, n*4*words)
	for i := 0; i < n; i++ {
		row := k.fused[i*4*words : (i+1)*4*words]
		copy(row[0*words:], k.preds[i])
		copy(row[1*words:], k.succs[i])
		copy(row[2*words:], k.desc[i])
		copy(row[3*words:], k.anc[i])
	}
	return k
}

// rebuildForbidSet computes the per-graph set of nodes that may never
// join a cut: V+ nodes and Forbidden operation nodes. A Restrict view's
// set includes the nodes it forbids; the shared kernel is untouched.
func (g *Graph) rebuildForbidSet() {
	g.forbid = NewBitSet(len(g.Nodes))
	for i := range g.Nodes {
		if g.Nodes[i].Kind != KindOp || g.Nodes[i].Forbidden {
			g.forbid.Set(i)
		}
	}
}

// NewSet returns a fresh bitset sized for this graph's nodes, for callers
// that maintain cut membership incrementally through the set-based
// predicates below.
func (g *Graph) NewSet() BitSet { return NewBitSet(len(g.Nodes)) }

// SetOf fills dst (reset first) with the members of c and returns it; a
// nil or undersized dst is replaced by a fresh set.
func (g *Graph) SetOf(c Cut, dst BitSet) BitSet {
	if len(dst) < g.tables().words {
		dst = g.NewSet()
	} else {
		dst.Reset()
	}
	for _, id := range c {
		dst.Set(id)
	}
	return dst
}

// memberBits loads c into the graph's member scratch set. The two-word
// case accumulates in registers: repeated Set calls are read-modify-write
// chains on the same memory words and show up hot in profiles.
func (g *Graph) memberBits(c Cut) BitSet {
	g.tables()
	s := g.scr.member
	if len(s) == 2 {
		var w0, w1 uint64
		for _, id := range c {
			b := uint64(1) << (uint(id) & 63)
			if id < 64 {
				w0 |= b
			} else {
				w1 |= b
			}
		}
		s[0], s[1] = w0, w1
		return s
	}
	s.Reset()
	for _, id := range c {
		s.Set(id)
	}
	return s
}

// InputsSet is Inputs on a membership bitset: |(∪ preds) \ S|.
func (g *Graph) InputsSet(s BitSet) int {
	k := g.tables()
	acc := g.scr.acc1
	acc.Reset()
	for wi, w := range s {
		for w != 0 {
			id := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			acc.Or(k.preds[id])
		}
	}
	n := 0
	for i, w := range acc {
		n += bits.OnesCount64(w &^ s[i])
	}
	return n
}

// OutputsSet is Outputs on a membership bitset: members with a data
// successor outside S (nodes, not edges).
func (g *Graph) OutputsSet(s BitSet) int {
	k := g.tables()
	n := 0
	for wi, w := range s {
		for w != 0 {
			id := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			for i, sw := range k.succs[id] {
				if sw&^s[i] != 0 {
					n++
					break
				}
			}
		}
	}
	return n
}

// ConvexSet is Convex on a membership bitset: S is convex iff no outside
// node is both reachable from S and reaches S.
func (g *Graph) ConvexSet(s BitSet) bool {
	k := g.tables()
	accD, accA := g.scr.acc1, g.scr.acc2
	accD.Reset()
	accA.Reset()
	for wi, w := range s {
		for w != 0 {
			id := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			accD.Or(k.desc[id])
			accA.Or(k.anc[id])
		}
	}
	for i := range accD {
		if accD[i]&accA[i]&^s[i] != 0 {
			return false
		}
	}
	return true
}

// LegalSet is Legal on a membership bitset. The four constraints are
// fused into one sweep over the members — the predecessor, descendant,
// and ancestor unions accumulate side by side, and OUT is counted per
// member — so the hottest call of the whole engine touches each member's
// tables exactly once.
func (g *Graph) LegalSet(s BitSet, nin, nout int) bool {
	k := g.tables()
	words := k.words
	s = s[:words]
	if words == 2 {
		// Register-resident fast path: every accumulator lives in a local,
		// so the member loop is pure ALU work with one cache line of table
		// loads per member (the 8-word fused row).
		s0, s1 := s[0], s[1]
		if s0&g.forbid[0] != 0 || s1&g.forbid[1] != 0 {
			return false
		}
		var p0, p1, d0, d1, a0, a1 uint64
		out := 0
		fused := k.fused
		base, w := 0, s0
		for {
			for w != 0 {
				id := base + bits.TrailingZeros64(w)
				w &= w - 1
				row := fused[id*8 : id*8+8 : id*8+8]
				p0 |= row[0]
				p1 |= row[1]
				if row[2]&^s0|row[3]&^s1 != 0 {
					out++
				}
				d0 |= row[4]
				d1 |= row[5]
				a0 |= row[6]
				a1 |= row[7]
			}
			if base == 64 {
				break
			}
			base, w = 64, s1
		}
		if out > nout {
			return false
		}
		if d0&a0&^s0|d1&a1&^s1 != 0 {
			return false
		}
		return bits.OnesCount64(p0&^s0)+bits.OnesCount64(p1&^s1) <= nin
	}
	accP := g.scr.acc1[:words]
	accD := g.scr.acc2[:words]
	accA := g.scr.acc3[:words]
	forbid := g.forbid[:words]
	for i := range accP {
		accP[i], accD[i], accA[i] = 0, 0, 0
	}
	out := 0
	for wi, w := range s {
		if w&forbid[wi] != 0 {
			return false
		}
		for w != 0 {
			id := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			row := k.fused[id*4*words : (id+1)*4*words]
			outside := false
			for i := 0; i < words; i++ {
				accP[i] |= row[i]
				accD[i] |= row[2*words+i]
				accA[i] |= row[3*words+i]
				if row[words+i]&^s[i] != 0 {
					outside = true
				}
			}
			if outside {
				if out++; out > nout {
					return false
				}
			}
		}
	}
	in := 0
	for i, w := range accP {
		if accD[i]&accA[i]&^s[i] != 0 {
			return false
		}
		in += bits.OnesCount64(w &^ s[i])
	}
	return in <= nin
}

// ComponentsSet is Components on a membership bitset: weakly connected
// components over data edges, grown by bitset closure.
func (g *Graph) ComponentsSet(s BitSet) int {
	k := g.tables()
	remaining, comp := g.scr.acc1, g.scr.acc2
	remaining.CopyFrom(s)
	n := 0
	for {
		seed := -1
		for wi, w := range remaining {
			if w != 0 {
				seed = wi<<6 + bits.TrailingZeros64(w)
				break
			}
		}
		if seed < 0 {
			return n
		}
		n++
		comp.Reset()
		comp.Set(seed)
		remaining.Unset(seed)
		// Fixed point: absorb every remaining member adjacent to the
		// component. Re-scanning the component is O(|S|) passes worst
		// case, each a handful of word ops — cheap at block sizes.
		for grew := true; grew; {
			grew = false
			for wi, w := range comp {
				for w != 0 {
					id := wi<<6 + bits.TrailingZeros64(w)
					w &= w - 1
					for i, aw := range k.adj[id] {
						if nw := aw & remaining[i]; nw != 0 {
							comp[i] |= nw
							remaining[i] &^= nw
							grew = true
						}
					}
				}
			}
		}
	}
}
