// Canonical hashing of cut datapaths (SelectionResult.SharedInstructions).
//
// CutCanonHash assigns the datapath a cut induces a 128-bit digest that
// is invariant under node renumbering and renaming: the same unrolled MAC
// selected in function f and in its clone in function g digests
// identically, although the two blocks differ in function and block
// names, node IDs and construction order. The digest is built by
// Weisfeiler-Lehman (1-WL) color
// refinement: every member starts from a color derived from its local
// invariants (op, super-latency, external inputs, output escape) and is
// iteratively re-colored with the sorted multiset of its neighbours'
// colors over the four edge classes (data preds/succs, order
// preds/succs) until the color partition stabilizes. 1-WL is incomplete
// — regular graph pairs such as one 6-cycle versus two triangles refine
// to the same palette — so equal digests suggest, but do not prove, an
// isomorphism.
package dfg

import (
	"fmt"
	"slices"
)

// CanonDigest is a 128-bit isomorphism-invariant datapath digest. Two
// isomorphic datapaths always digest equally; the converse is not
// guaranteed (WL-hard pairs collide).
type CanonDigest struct{ Hi, Lo uint64 }

func (d CanonDigest) String() string { return fmt.Sprintf("%016x%016x", d.Hi, d.Lo) }

// FNV-1a word folding, byte-wise so every bit of v lands in the state.
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

// canonGraph is the refinement working set: the members of a cut indexed
// densely, with per-class adjacency and an initial color per member.
type canonGraph struct {
	n    int
	base []uint64
	// adj[class][dense] lists neighbour dense indexes; classes are
	// data-preds, data-succs, order-preds, order-succs.
	adj [4][][]int
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
	scratch := make([]uint64, cg.n)
	prev := distinctCount(colors, scratch)
	for round := 0; round < cg.n; round++ {
		for i := range colors {
			h := fold(fnvOffset, colors[i])
			for cl := range cg.adj {
				ns := cg.adj[cl][i]
				buf = buf[:0]
				for _, j := range ns {
					buf = append(buf, colors[j])
				}
				slices.Sort(buf)
				h = fold(h, uint64(cl))
				h = fold(h, uint64(len(buf)))
				for _, v := range buf {
					h = fold(h, v)
				}
			}
			next[i] = h
		}
		copy(colors, next)
		d := distinctCount(colors, scratch)
		if d == prev {
			break
		}
		prev = d
	}
	return colors
}

// distinctCount counts the distinct colors, sorting a copy in scratch
// (len(colors) long).
func distinctCount(colors, scratch []uint64) int {
	s := scratch[:copy(scratch, colors)]
	slices.Sort(s)
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
	slices.Sort(s)
	hi := fold(fnvOffset, uint64(cg.n))
	lo := fold(fnvOffset2, uint64(cg.n))
	for _, c := range s {
		hi = fold(hi, c)
		lo = fold(lo, c)
	}
	return CanonDigest{Hi: hi, Lo: lo}
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
