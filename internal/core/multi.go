package core

import (
	"context"
	"math/bits"

	"isex/internal/dfg"
	"isex/internal/latency"
)

// MultiResult is the outcome of a multiple-cut identification (§6.2).
type MultiResult struct {
	Found bool
	// Cuts holds the non-empty cuts of the best assignment, each canonical.
	Cuts []dfg.Cut
	// Ests are the per-cut estimates, aligned with Cuts.
	Ests []Estimate
	// TotalMerit is the summed merit.
	TotalMerit int64
	Stats      Stats
	// Status reports how the search ended; anything but Exhaustive means
	// the assignment is a best-so-far lower bound, not a proven optimum.
	Status SearchStatus
	// Err carries the first panic recovered inside the parallel engine;
	// see Result.Err.
	Err error
}

// FindBestCuts identifies up to m disjoint cuts in one graph that jointly
// maximize total merit, each cut independently satisfying the port and
// convexity constraints. This is the (M+1)-ary search tree of §6.2
// (Fig. 9): at every level a node either joins one of the m cuts or none.
// Cut labels are symmetric, so the search only opens cut k after cut k−1
// is non-empty.
func FindBestCuts(g *dfg.Graph, m int, cfg Config) MultiResult {
	return FindBestCutsCtx(context.Background(), g, m, cfg)
}

// FindBestCutsCtx is FindBestCuts under a context: the search polls ctx
// every ctxCheckInterval visited nodes and, on expiry or cancellation,
// returns the incumbent assignment with Status set accordingly.
func FindBestCutsCtx(ctx context.Context, g *dfg.Graph, m int, cfg Config) MultiResult {
	if m < 1 {
		return MultiResult{}
	}
	if m > 255 {
		// Prefix decisions are uint8; identification never needs hundreds
		// of simultaneous cuts, so just run serially.
		cfg.Workers = 0
	}
	cuts, stats, st, err := exactSearch(ctx, cfg, func(cfg Config) bbTree { return newMultiSearcher(g, m, cfg) })
	res := MultiResult{Stats: stats, Status: st, Err: err}
	if cuts != nil {
		res.Found = true
		fillMultiResult(&res, g, cuts, cfg.model())
	}
	return res
}

// fillMultiResult canonicalizes an assignment's non-empty cuts into res.
func fillMultiResult(res *MultiResult, g *dfg.Graph, cuts []dfg.Cut, model *latency.Model) {
	for _, c := range cuts {
		if len(c) == 0 {
			continue
		}
		cc := c.Canon()
		res.Cuts = append(res.Cuts, cc)
		est := Evaluate(g, cc, model)
		res.Ests = append(res.Ests, est)
		res.TotalMerit += est.Merit
	}
}

type multiSearcher struct {
	searchCore
	m int
	// words is the length of a cut mask: bit k of word k/64 stands for
	// cut k (bit 0 is unused), so a mask holds any m. Masks are stored
	// word by word, word i of every node's (or rank's) mask before word
	// i+1 of any, so the first word, which is the whole mask below 64
	// cuts, sits at the node's (or rank's) own index. The visit keeps the
	// first word in registers and leaves the others, when there are any,
	// to enterWide and copyWide.
	words int

	assign []int // node id -> cut number 1..m, or 0
	// Per-node cut masks: word i of node id's mask at i*len(g.Nodes)+id.
	// reach has bit k set when the
	// decided node reaches cut k. Each decision overwrites the node's
	// mask, and an undo leaves it stale: it is read only through the
	// node's producers, which sit at later ranks and so are decided after
	// it on every path. Nodes outside the order keep a zero mask.
	// cons has bit k set when a member of cut k consumes the node.
	reach []uint64
	cons  []uint64
	// refCnt[k*len(g.Nodes)+p] counts the members of cut k consuming p
	// (data edges); a non-member with a nonzero count is an input of k.
	refCnt []int
	// lenTo is the longest data path from a member through its cut (a
	// node is in at most one cut).
	lenTo []float64
	cuts  []cutState // indexed by cut number; cuts[0] is unused

	// Per-node constants of the decisions, read from dfg.Node and the
	// model once per searcher: the software latency and hardware delay
	// of the node's operation, and whether the node is a live-in.
	sw     []int64
	hw     []float64
	liveIn []bool

	// The state of every live visit frame, by rank: the consumer scan
	// (see enter), whose masks bad and union keep word i at
	// i*len(order)+rank and whose longest in-cut path below the node for
	// cut k sits at below[rank*(m+1)+k], and the rest of the frame in
	// frames[rank].
	bad    []uint64
	union  []uint64
	below  []float64
	frames []multiFrame

	// Running totals over the cuts, kept in step with cuts so that a visit
	// never scans them: merit sums the non-empty cuts' merit, open counts
	// the non-empty cuts (always cuts 1..open), and overIn and overPerm
	// count the cuts with more than Nin inputs and permanent inputs.
	merit    int64
	open     int
	overIn   int
	overPerm int

	// replayed is the depth of the prefix replay applied (see replay).
	replayed int
}

// multiFrame is the part of a live visit frame that is not a mask: the
// scan's home (see enter), and what applyAssign changed that undoAssign
// does not recompute.
type multiFrame struct {
	home     int
	prevCrit float64
	prevCyc  int
	// The k-branch's change to the running totals.
	dMerit    int64
	dOverIn   int
	dOverPerm int
}

// cutState is the incremental state of one cut.
type cutState struct {
	size   int // members
	inputs int // IN(S)
	// permIn counts the inputs that can never be absorbed on this path:
	// live-ins, and producers decided outside the cut (excluded or put in
	// another cut). Cuts only grow along a path, so inputs ≥ permIn in
	// every descendant. Only the PruneInputs guard reads it, so without
	// PruneInputs the producers go uncounted (see enter).
	permIn int
	out    int // OUT(S)
	crit   float64
	cyc    int // latency.CyclesOf(crit), kept in step with crit
}

func newMultiSearcher(g *dfg.Graph, m int, cfg Config) *multiSearcher {
	nodes, ranks := len(g.Nodes), len(g.OpOrder)
	words := m/64 + 1
	s := &multiSearcher{
		searchCore: newCore(g, cfg),
		m:          m,
		words:      words,
		assign:     make([]int, nodes),
		reach:      make([]uint64, nodes*words),
		cons:       make([]uint64, nodes*words),
		refCnt:     make([]int, (m+1)*nodes),
		lenTo:      make([]float64, nodes),
		cuts:       make([]cutState, m+1),
		sw:         make([]int64, nodes),
		hw:         make([]float64, nodes),
		liveIn:     make([]bool, nodes),
		bad:        make([]uint64, ranks*words),
		union:      make([]uint64, ranks*words),
		below:      make([]float64, ranks*(m+1)),
		frames:     make([]multiFrame, ranks),
	}
	for id := range g.Nodes {
		n := &g.Nodes[id]
		s.sw[id] = int64(s.model.SW(n.Op))
		s.hw[id] = s.model.HW(n.Op)
		s.liveIn[id] = n.Kind == dfg.KindIn
	}
	return s
}

// enter opens the visit frame of node id at rank. It makes the one pass
// over id's decided consumers that every branch of the visit reads, for
// the cuts 1..maxK (maxK ≥ open) at once:
//
//   - bad: bit k set when assigning id to cut k would break k's
//     convexity: a consumer outside cut k reaches k. A consumer's reach
//     mask holds its own cut, which is not outside it, so that bit is
//     dropped from that consumer's contribution only.
//   - union: the union of the consumers' reach masks, data and order
//     edges both, which is id's own reach mask once decided (plus cut k
//     on a k-branch).
//   - home: −1 when id has no data consumer, k > 0 when every data
//     consumer is in cut k, and 0 otherwise. id is an output of every
//     cut but home, and of none when home is −1: a live-out's V+ node,
//     a forbidden node and an excluded node all sit outside every cut.
//   - below[k]: the longest path through cut k's members among the data
//     consumers, which id's lenTo extends on the k-branch.
//
// The consumers sit at earlier ranks, so nothing decided inside the
// frame's subtrees changes them, and the scan stays exact for every
// branch of the frame. Under PruneInputs, enter also counts id as a
// permanent input of every cut consuming it: id stays one on the
// 0-branch and, of every cut but k, on the k-branch, and applyAssign
// takes it back from cut k. leave closes the frame.
func (s *multiSearcher) enter(rank, id, maxK int) {
	below := s.below[rank*(s.m+1) : rank*(s.m+1)+maxK+1]
	for k := 0; k <= maxK; k++ { // a loop, not clear: a call costs more
		below[k] = 0
	}
	var bad, union uint64 // the masks' first words
	home := -1
	node := &s.g.Nodes[id]
	for _, sc := range node.Succs {
		a := s.assign[sc]
		r := s.reach[sc]
		union |= r
		bad |= r &^ (1 << uint(a)) // a ≥ 64 shifts past the word: no bit
		switch {
		case home < 0:
			home = a
		case home != a:
			home = 0
		}
		if l := s.lenTo[sc]; l > below[a] {
			below[a] = l
		}
	}
	for _, sc := range node.OrderSuccs {
		r := s.reach[sc]
		union |= r
		bad |= r &^ (1 << uint(s.assign[sc]))
	}
	s.bad[rank], s.union[rank] = bad, union
	s.frames[rank].home = home
	if s.words > 1 {
		s.enterWide(rank, node)
	}
	if s.cfg.PruneInputs {
		s.bumpPermIn(id, 1)
	}
}

// enterWide is enter's scan for the mask words past the first.
func (s *multiSearcher) enterWide(rank int, node *dfg.Node) {
	n, ranks := len(s.assign), len(s.order)
	for i := 1; i < s.words; i++ {
		var bad, union uint64
		for _, succs := range [][]int{node.Succs, node.OrderSuccs} {
			for _, sc := range succs {
				r := s.reach[i*n+sc]
				union |= r
				if a := s.assign[sc]; a>>6 == i {
					r &^= 1 << (a & 63)
				}
				bad |= r
			}
		}
		s.bad[i*ranks+rank], s.union[i*ranks+rank] = bad, union
	}
}

// leave closes the visit frame of node id opened by enter.
func (s *multiSearcher) leave(id int) {
	if s.cfg.PruneInputs {
		s.bumpPermIn(id, -1)
	}
}

// bumpPermIn adds d (±1) to the permanent inputs of every cut that
// consumes id, keeping overPerm in step. It runs twice per visit and is
// kept within the inlining budget, so that leave inlines into visit.
func (s *multiSearcher) bumpPermIn(id, d int) {
	for i := range s.words {
		for word := s.cons[i*len(s.assign)+id]; word != 0; word &= word - 1 {
			c := &s.cuts[i<<6|bits.TrailingZeros64(word)]
			if c.permIn+min(d, 0) == s.cfg.Nin {
				s.overPerm += d // crossing Nin, up or down
			}
			c.permIn += d
		}
	}
}

func (s *multiSearcher) visit(rank int) {
	if s.stop != Exhaustive || rank == len(s.order) {
		return
	}
	s.curRank = rank
	s.tick++
	if s.tick&(ctxCheckInterval-1) == 0 {
		s.poll()
		if s.stop != Exhaustive {
			return
		}
	}
	if s.cfg.PruneMerit && s.boundCut(s.merit+s.futSW[rank]*s.freq) {
		return
	}
	id := s.order[rank]
	// Cut labels are symmetric: cut k opens only after cut k−1.
	maxK := min(s.open+1, s.m)
	s.enter(rank, id, maxK)
	// The 0-branch's PruneInputs guard, on the frame-entry state, which
	// is exactly the state the 0-branch starts from (every k-subtree is
	// undone by then) and the state a donated 0-branch rebuilds by
	// replaying its path; tryDonate reads it from inner frames.
	zeroOK := s.inputsOK()
	if s.eng != nil {
		s.zeroOK[rank] = zeroOK
	}

	if !s.g.Nodes[id].Forbidden {
		for k := 1; k <= maxK && s.stop == Exhaustive && s.consider(); k++ {
			s.tryInclude(rank, id, k)
		}
	}

	// 0-branch: leave the node out of every cut.
	if s.eng != nil && s.donated[rank] {
		// Handed to another worker by tryDonate while one of this
		// frame's k-subtrees was being searched.
		s.donated[rank] = false
	} else if zeroOK {
		if s.eng != nil {
			s.path[rank] = 0
		}
		s.applyExclude(rank, id)
		s.visit(rank + 1)
	}
	s.leave(id)
}

// inputsOK is the PruneInputs guard: a subtree is searched only while no
// cut has more than Nin permanent inputs. It is sound as in §6.1: cuts
// only grow along a path and inputs ≥ permIn, so maybeRecord could
// never record below a failing node.
func (s *multiSearcher) inputsOK() bool {
	return !s.cfg.PruneInputs || s.overPerm == 0
}

// applyExclude decides node id, entered at rank, out of every cut: its
// reach mask is its consumers'. Nothing else changes, so it needs no
// undo; the mask goes stale as every reach mask does.
func (s *multiSearcher) applyExclude(rank, id int) {
	s.reach[id] = s.union[rank]
	if s.words > 1 {
		s.copyWide(rank, id)
	}
}

// copyWide copies the mask words past the first of the union of frame
// rank into the reach mask of node id.
func (s *multiSearcher) copyWide(rank, id int) {
	for i := 1; i < s.words; i++ {
		s.reach[i*len(s.assign)+id] = s.union[i*len(s.order)+rank]
	}
}

// assignOK is includeOK for cut k: it reports, from the scan of the node
// entered at rank, whether assigning the node to cut k keeps k convex
// with OUT ≤ Nout, so a failing branch leaves the state untouched.
func (s *multiSearcher) assignOK(rank, k int) bool {
	if s.bad[(k>>6)*len(s.order)+rank]&(1<<(k&63)) != 0 {
		return false
	}
	// Every reached state has out ≤ Nout for every cut, so out < Nout
	// before the branch is exactly the test out+1 ≤ Nout after applying
	// it (see searcher.includeOK, also for a negative Nout).
	if s.isOut(rank, k) {
		return s.cuts[k].out < s.cfg.Nout
	}
	return s.cuts[k].out <= s.cfg.Nout
}

// isOut reports whether the node entered at rank is an output of cut k
// once it joins k.
func (s *multiSearcher) isOut(rank, k int) bool {
	h := s.frames[rank].home
	return h >= 0 && h != k
}

// applyAssign puts node id, entered at rank, into cut k, updating the
// incremental per-cut IN/OUT, permanent-input and critical-path state,
// and the running totals by the cut's change. It keeps in frame rank
// what undoAssign needs.
func (s *multiSearcher) applyAssign(rank, id, k int) {
	c := &s.cuts[k]
	f := &s.frames[rank]
	f.prevCrit, f.prevCyc = c.crit, c.cyc
	// The cut's share of the totals before the branch: an empty cut has
	// none.
	var hw0 int
	var in0, perm0 bool
	if c.size == 0 {
		s.open++
	} else {
		hw0 = max(c.cyc, 1)
		in0, perm0 = c.inputs > s.cfg.Nin, c.permIn > s.cfg.Nin
	}
	s.assign[id] = k
	c.size++
	// Cut k's bit: word kw (an offset into the per-node masks), bit kb.
	kw, kb := (k>>6)*len(s.assign), uint64(1)<<(k&63)
	s.reach[id] = s.union[rank]
	if s.words > 1 {
		s.copyWide(rank, id)
	}
	s.reach[kw+id] |= kb
	if s.isOut(rank, k) {
		c.out++
	}
	if s.cons[kw+id]&kb != 0 {
		// Absorbed: id is no longer an input of cut k, nor a permanent
		// one (see enter).
		c.inputs--
		if s.cfg.PruneInputs {
			c.permIn--
		}
	}
	// id's producers sit at later ranks, undecided, so each one not yet
	// consumed by cut k is a new input of it; live-ins can never join it.
	ref := k * len(s.assign)
	for _, p := range s.g.Nodes[id].Preds {
		s.refCnt[ref+p]++
		if s.refCnt[ref+p] == 1 {
			s.cons[kw+p] |= kb
			c.inputs++
			if s.liveIn[p] {
				c.permIn++
			}
		}
	}
	s.lenTo[id] = s.below[rank*(s.m+1)+k] + s.hw[id]
	if s.lenTo[id] > c.crit {
		c.crit = s.lenTo[id]
		c.cyc = latency.CyclesOf(c.crit)
	}
	f.dMerit = (s.sw[id] - int64(max(c.cyc, 1)-hw0)) * s.freq
	f.dOverIn = b2i(c.inputs > s.cfg.Nin) - b2i(in0)
	f.dOverPerm = b2i(c.permIn > s.cfg.Nin) - b2i(perm0)
	s.merit += f.dMerit
	s.overIn += f.dOverIn
	s.overPerm += f.dOverPerm
}

// undoAssign reverts applyAssign(rank, id, k) from the state it left.
func (s *multiSearcher) undoAssign(rank, id, k int) {
	c := &s.cuts[k]
	f := &s.frames[rank]
	s.merit -= f.dMerit
	s.overIn -= f.dOverIn
	s.overPerm -= f.dOverPerm
	c.crit, c.cyc = f.prevCrit, f.prevCyc
	s.lenTo[id] = 0
	kw, kb := (k>>6)*len(s.assign), uint64(1)<<(k&63)
	ref := k * len(s.assign)
	for _, p := range s.g.Nodes[id].Preds {
		if s.refCnt[ref+p] == 1 {
			s.cons[kw+p] &^= kb
			c.inputs--
			if s.liveIn[p] {
				c.permIn--
			}
		}
		s.refCnt[ref+p]--
	}
	if s.cons[kw+id]&kb != 0 {
		c.inputs++
		if s.cfg.PruneInputs {
			c.permIn++
		}
	}
	if s.isOut(rank, k) {
		c.out--
	}
	c.size--
	if c.size == 0 {
		s.open--
	}
	s.assign[id] = 0
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (s *multiSearcher) tryInclude(rank, id, k int) {
	if !s.assignOK(rank, k) {
		s.pruned()
		return
	}
	s.applyAssign(rank, id, k)
	s.stats.Passed++
	if s.eng != nil {
		s.path[rank] = uint8(k)
	}
	s.maybeRecord(rank)
	if s.inputsOK() {
		s.visit(rank + 1)
	}
	s.undoAssign(rank, id, k)
}

// maybeRecord evaluates the current assignment, made by the decision at
// rank, as a candidate solution: every non-empty cut must satisfy the
// input constraint.
func (s *multiSearcher) maybeRecord(rank int) {
	if s.overIn > 0 || !s.beats(s.merit) {
		return
	}
	cuts := make([]dfg.Cut, s.m)
	for id, k := range s.assign {
		if k > 0 {
			cuts[k-1] = append(cuts[k-1], id)
		}
	}
	s.keep(s.merit, cuts, rank)
}

// replay applies a decision prefix (decision r for rank r; 0 = exclude,
// k = assign to cut k) onto a clean multiSearcher, rebuilding the exact
// incremental state the serial search would have at that tree position:
// each decision reads the same consumer scan as the serial visit.
func (s *multiSearcher) replay(prefix []uint8) {
	for r, d := range prefix {
		id := s.order[r]
		if s.path != nil {
			s.path[r] = d // tryDonate rebuilds prefixes from path
		}
		s.enter(r, id, min(s.open+1, s.m))
		if d > 0 {
			s.applyAssign(r, id, int(d))
		} else {
			s.applyExclude(r, id)
		}
	}
	s.replayed = len(prefix)
}

// unreplay unwinds a replay, restoring the clean state; each rank's
// decision is its node's cut.
func (s *multiSearcher) unreplay() {
	for r := s.replayed - 1; r >= 0; r-- {
		id := s.order[r]
		if k := s.assign[id]; k > 0 {
			s.undoAssign(r, id, k)
		}
		s.leave(id)
	}
	s.replayed = 0
}
