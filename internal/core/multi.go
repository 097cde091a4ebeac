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
//
// StrictInterCut (an extension, see Config) additionally rejects
// assignments whose cuts depend on each other cyclically and hence could
// not be scheduled as atomic instructions; the paper does not perform
// this check, so it defaults to off.
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
	cuts, stats, st, err := exactSearch(ctx, cfg, "multi", func(cfg Config) bbTree { return newMultiSearcher(g, m, cfg) })
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
	// words is the length of a per-node cut mask: bit k of word k/64
	// stands for cut k (bit 0 is unused), so a mask holds any m.
	words int

	assign []int // node id -> cut number 1..m, or 0
	// Per-node cut masks, words per node. reach has bit k set when the
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

	// Running totals over the cuts, kept in step with cuts so that a visit
	// never scans them: merit sums the non-empty cuts' merit, open counts
	// the non-empty cuts (always cuts 1..open), and overIn and overPerm
	// count the cuts with more than Nin inputs and permanent inputs.
	merit    int64
	open     int
	overIn   int
	overPerm int

	replayUndo []multiReplayStep
}

// cutState is the incremental state of one cut.
type cutState struct {
	size   int // members
	inputs int // IN(S)
	// permIn counts the inputs that can never be absorbed on this path:
	// live-ins, and producers decided outside the cut (excluded or put in
	// another cut). Cuts only grow along a path, so inputs ≥ permIn in
	// every descendant. Only the PruneInputs guard reads it, so without
	// PruneInputs the producers go uncounted (see bumpPermIn).
	permIn int
	out    int // OUT(S)
	sw     int64
	crit   float64
	cyc    int // latency.CyclesOf(crit), kept in step with crit
}

func newMultiSearcher(g *dfg.Graph, m int, cfg Config) *multiSearcher {
	nodes := len(g.Nodes)
	words := m/64 + 1
	return &multiSearcher{
		searchCore: newCore(g, cfg),
		m:          m,
		words:      words,
		assign:     make([]int, nodes),
		reach:      make([]uint64, nodes*words),
		cons:       make([]uint64, nodes*words),
		refCnt:     make([]int, (m+1)*nodes),
		lenTo:      make([]float64, nodes),
		cuts:       make([]cutState, m+1),
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
	node := &s.g.Nodes[id]
	zeroOK := s.excludeOK(id)
	if s.eng != nil {
		// tryDonate reads it from inner frames. It is evaluated on the
		// frame-entry state, which is exactly the state the serial
		// 0-branch starts from (every k-subtree is undone by then) and
		// the state a donated 0-branch rebuilds by replaying its path.
		s.zeroOK[rank] = zeroOK
	}

	if !node.Forbidden {
		// Cut labels are symmetric: cut k opens only after cut k−1.
		maxK := min(s.open+1, s.m)
		for k := 1; k <= maxK; k++ {
			if s.stop != Exhaustive || !s.consider() {
				return
			}
			s.tryInclude(rank, id, k)
		}
	}

	// 0-branch: leave the node out of every cut.
	if s.eng != nil {
		if s.donated[rank] {
			// Handed to another worker by tryDonate while one of this
			// frame's k-subtrees was being searched.
			s.donated[rank] = false
			return
		}
		s.path[rank] = 0
	}
	if zeroOK {
		s.applyExclude(id)
		s.visit(rank + 1)
		s.undoExclude(id)
	}
}

// inputsOK is the PruneInputs guard: a subtree is searched only while no
// cut has more than Nin permanent inputs. It is sound as in §6.1: cuts
// only grow along a path and inputs ≥ permIn, so maybeRecord could
// never record below a failing node.
func (s *multiSearcher) inputsOK() bool {
	return !s.cfg.PruneInputs || s.overPerm == 0
}

// excludeOK is inputsOK for id's 0-branch, evaluated before the branch
// is taken: excluded, id becomes a permanent input of every cut that
// consumes it.
func (s *multiSearcher) excludeOK(id int) bool {
	if !s.cfg.PruneInputs {
		return true
	}
	if s.overPerm > 0 {
		return false
	}
	w := s.words
	for i, word := range s.cons[id*w : id*w+w] {
		for ; word != 0; word &= word - 1 {
			if s.cuts[i<<6|bits.TrailingZeros64(word)].permIn >= s.cfg.Nin {
				return false
			}
		}
	}
	return true
}

// cutMerit is a non-empty cut's merit; the instruction always costs at
// least one cycle.
func (s *multiSearcher) cutMerit(c *cutState) int64 {
	hw := c.cyc
	if hw < 1 {
		hw = 1
	}
	return (c.sw - int64(hw)) * s.freq
}

// setReach sets the decided node id's reach mask: the union of its data
// and order successors' masks, plus cut k when id joins cut k (k > 0).
func (s *multiSearcher) setReach(id int, node *dfg.Node, k int) {
	w := s.words
	for i := 0; i < w; i++ {
		var r uint64
		if k > 0 && k>>6 == i {
			r = 1 << (k & 63)
		}
		for _, sc := range node.Succs {
			r |= s.reach[sc*w+i]
		}
		for _, sc := range node.OrderSuccs {
			r |= s.reach[sc*w+i]
		}
		s.reach[id*w+i] = r
	}
}

// reaches reports whether the decided node id reaches cut k.
func (s *multiSearcher) reaches(id, k int) bool {
	return s.reach[id*s.words+k>>6]&(1<<(k&63)) != 0
}

// bumpPermIn adds d (±1) to the permanent inputs of every cut that
// consumes id except cut skip, keeping overPerm in step. With
// PruneInputs it runs at every decision and its undo, so it is kept
// within the inlining budget; without it nothing reads permIn, and the
// callers skip it.
func (s *multiSearcher) bumpPermIn(id, skip, d int) {
	w := s.words
	for i, word := range s.cons[id*w : id*w+w] {
		if i == skip>>6 {
			word &^= 1 << (skip & 63)
		}
		for ; word != 0; word &= word - 1 {
			c := &s.cuts[i<<6|bits.TrailingZeros64(word)]
			if c.permIn+min(d, 0) == s.cfg.Nin {
				s.overPerm += d // crossing Nin, up or down
			}
			c.permIn += d
		}
	}
}

// applyExclude decides node id out of every cut: reach propagates from
// its successors, and every cut consuming id gains a permanent input.
func (s *multiSearcher) applyExclude(id int) {
	s.setReach(id, &s.g.Nodes[id], 0)
	if s.cfg.PruneInputs {
		s.bumpPermIn(id, 0, 1)
	}
}

func (s *multiSearcher) undoExclude(id int) {
	if s.cfg.PruneInputs {
		s.bumpPermIn(id, 0, -1)
	}
}

// assignOK is includeOK for cut k: it reports whether assigning node to
// cut k keeps k convex with OUT ≤ Nout, reading only the node's decided
// consumers, so a failing branch leaves the state untouched.
func (s *multiSearcher) assignOK(node *dfg.Node, k int) bool {
	isOut := false
	for _, sc := range node.Succs {
		if s.g.Nodes[sc].Kind != dfg.KindOp {
			isOut = true
		} else if s.assign[sc] != k {
			if s.reaches(sc, k) {
				return false
			}
			isOut = true
		}
	}
	for _, sc := range node.OrderSuccs {
		if s.assign[sc] != k && s.reaches(sc, k) {
			return false
		}
	}
	// Every reached state has out ≤ Nout for every cut, so out < Nout
	// before the branch is exactly the test out+1 ≤ Nout after applying
	// it (see searcher.includeOK, also for a negative Nout).
	if isOut {
		return s.cuts[k].out < s.cfg.Nout
	}
	return s.cuts[k].out <= s.cfg.Nout
}

// tally adds cut c's share of the running totals (d = 1) or takes it
// out (d = −1); a decision takes the share out, changes the cut, and
// adds it back.
func (s *multiSearcher) tally(c *cutState, d int) {
	if c.size == 0 {
		return
	}
	s.merit += int64(d) * s.cutMerit(c)
	if c.inputs > s.cfg.Nin {
		s.overIn += d
	}
	if c.permIn > s.cfg.Nin {
		s.overPerm += d
	}
}

// assignUndo captures what applyAssign changed beyond the per-node
// arrays, so undoAssign can restore the state exactly.
type assignUndo struct {
	isOut     bool
	absorbed  bool
	newPermIn int
	prevCrit  float64
	prevCyc   int
}

// applyAssign puts node id into cut k, updating the incremental per-cut
// IN/OUT, permanent-input, software-latency and critical-path state and
// the running totals.
func (s *multiSearcher) applyAssign(id int, node *dfg.Node, k int) assignUndo {
	c := &s.cuts[k]
	u := assignUndo{prevCrit: c.crit, prevCyc: c.cyc}
	s.tally(c, -1)
	if c.size == 0 {
		s.open++
	}
	s.assign[id] = k
	c.size++
	s.setReach(id, node, k)
	best := 0.0 // longest path through the cut below id
	for _, sc := range node.Succs {
		if s.g.Nodes[sc].Kind == dfg.KindOp && s.assign[sc] == k {
			if s.lenTo[sc] > best {
				best = s.lenTo[sc]
			}
		} else {
			u.isOut = true
		}
	}
	if u.isOut {
		c.out++
	}
	kw, kb := k>>6, uint64(1)<<(k&63)
	u.absorbed = s.cons[id*s.words+kw]&kb != 0
	if u.absorbed {
		c.inputs--
	}
	if s.cfg.PruneInputs {
		s.bumpPermIn(id, k, 1) // id is now decided outside the other cuts
	}
	refCnt := s.refCnt[k*len(s.g.Nodes):]
	for _, p := range node.Preds {
		refCnt[p]++
		if refCnt[p] == 1 {
			s.cons[p*s.words+kw] |= kb
			if s.assign[p] != k {
				c.inputs++
				if s.g.Nodes[p].Kind == dfg.KindIn {
					u.newPermIn++ // live-ins can never join the cut
				}
			}
		}
	}
	c.permIn += u.newPermIn
	c.sw += int64(s.model.SW(node.Op))
	s.lenTo[id] = best + s.model.HW(node.Op)
	if s.lenTo[id] > c.crit {
		c.crit = s.lenTo[id]
		c.cyc = latency.CyclesOf(c.crit)
	}
	s.tally(c, 1)
	return u
}

func (s *multiSearcher) undoAssign(id int, node *dfg.Node, k int, u assignUndo) {
	c := &s.cuts[k]
	s.tally(c, -1)
	c.crit, c.cyc = u.prevCrit, u.prevCyc
	s.lenTo[id] = 0
	c.sw -= int64(s.model.SW(node.Op))
	c.permIn -= u.newPermIn
	kw, kb := k>>6, uint64(1)<<(k&63)
	refCnt := s.refCnt[k*len(s.g.Nodes):]
	for _, p := range node.Preds {
		if refCnt[p] == 1 {
			s.cons[p*s.words+kw] &^= kb
			if s.assign[p] != k {
				c.inputs--
			}
		}
		refCnt[p]--
	}
	if s.cfg.PruneInputs {
		s.bumpPermIn(id, k, -1)
	}
	if u.absorbed {
		c.inputs++
	}
	if u.isOut {
		c.out--
	}
	c.size--
	if c.size == 0 {
		s.open--
	}
	s.assign[id] = 0
	s.tally(c, 1)
}

func (s *multiSearcher) tryInclude(rank, id, k int) {
	node := &s.g.Nodes[id]
	if !s.assignOK(node, k) {
		s.pruned(rank)
		return
	}
	u := s.applyAssign(id, node, k)
	s.stats.Passed++
	s.maybeRecord()
	if s.inputsOK() {
		if s.eng != nil {
			s.path[rank] = uint8(k)
		}
		s.visit(rank + 1)
	}
	s.undoAssign(id, node, k, u)
}

// maybeRecord evaluates the current assignment as a candidate solution:
// every non-empty cut must satisfy the input constraint.
func (s *multiSearcher) maybeRecord() {
	if s.overIn > 0 || !s.beats(s.merit) {
		return
	}
	if s.cfg.StrictInterCut && s.interCutCycle() {
		return
	}
	cuts := make([]dfg.Cut, s.m)
	for id, k := range s.assign {
		if k > 0 {
			cuts[k-1] = append(cuts[k-1], id)
		}
	}
	s.keep(s.merit, cuts)
}

// interCutCycle reports whether two of the current cuts depend on each
// other through any path, which would make a joint schedule of the
// collapsed instructions impossible.
func (s *multiSearcher) interCutCycle() bool {
	// reaches[k][j]: some member of cut k reaches some member of cut j.
	reaches := make([][]bool, s.m+1)
	for k := 1; k <= s.m; k++ {
		if s.cuts[k].size == 0 {
			continue
		}
		seen := make([]bool, len(s.g.Nodes))
		r := make([]bool, s.m+1)
		var stack []int
		for id, a := range s.assign {
			if a == k {
				seen[id] = true
				stack = append(stack, id)
			}
		}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			visit := func(w int) {
				if seen[w] {
					return
				}
				seen[w] = true
				if a := s.assign[w]; a > 0 && a != k {
					r[a] = true
				}
				stack = append(stack, w)
			}
			for _, w := range s.g.Nodes[v].Succs {
				visit(w)
			}
			for _, w := range s.g.Nodes[v].OrderSuccs {
				visit(w)
			}
		}
		reaches[k] = r
	}
	for a := 1; a <= s.m; a++ {
		for b := a + 1; b <= s.m; b++ {
			if reaches[a] != nil && reaches[b] != nil && reaches[a][b] && reaches[b][a] {
				return true
			}
		}
	}
	return false
}

// expand mirrors exactly one visit level at rank len(prefix): the
// (M+1)-ary branching with symmetry breaking, same counters, same
// feasibility guards, same candidate recording. The 0-child's reach
// update is left to the child's own replay.
func (s *multiSearcher) expand(prefix []uint8, out *bbBest) []bbSub {
	d := len(prefix)
	if s.cfg.PruneMerit && s.boundCut(s.merit+s.futSW[d]*s.freq) {
		return nil
	}
	id := s.order[d]
	node := &s.g.Nodes[id]
	var children []bbSub
	if !node.Forbidden {
		maxK := min(s.open+1, s.m)
		for k := 1; k <= maxK; k++ {
			s.stats.CutsConsidered++
			if !s.assignOK(node, k) {
				s.pruned(d)
				continue
			}
			u := s.applyAssign(id, node, k)
			s.stats.Passed++
			key := childKey(prefix, uint8(k))
			s.expandRecord(s.maybeRecord, key, out)
			if s.inputsOK() {
				children = append(children, s.child(key))
			}
			s.undoAssign(id, node, k, u)
		}
	}
	if s.excludeOK(id) {
		children = append(children, s.child(childKey(prefix, 0)))
	}
	return children
}

// multiReplayStep records one prefix decision for exact unwinding.
type multiReplayStep struct {
	id int
	k  int // 0 = exclude
	u  assignUndo
}

// replay applies a decision prefix (decision r for rank r; 0 = exclude,
// k = assign to cut k) onto a clean multiSearcher, rebuilding the exact
// incremental state the serial search would have at that tree position.
func (s *multiSearcher) replay(prefix []uint8) {
	for r, d := range prefix {
		id := s.order[r]
		if s.path != nil {
			s.path[r] = d // tryDonate rebuilds prefixes from path
		}
		step := multiReplayStep{id: id, k: int(d)}
		if step.k > 0 {
			step.u = s.applyAssign(id, &s.g.Nodes[id], step.k)
		} else {
			s.applyExclude(id)
		}
		s.replayUndo = append(s.replayUndo, step)
	}
}

// unreplay unwinds a replay, restoring the clean state.
func (s *multiSearcher) unreplay() {
	for i := len(s.replayUndo) - 1; i >= 0; i-- {
		st := s.replayUndo[i]
		if st.k > 0 {
			s.undoAssign(st.id, &s.g.Nodes[st.id], st.k, st.u)
		} else {
			s.undoExclude(st.id)
		}
	}
	s.replayUndo = s.replayUndo[:0]
}
