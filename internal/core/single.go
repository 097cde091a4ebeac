package core

import (
	"context"

	"isex/internal/dfg"
	"isex/internal/latency"
	"isex/internal/obs"
)

// Config holds the microarchitectural constraints and search options.
type Config struct {
	// Nin and Nout are the register-file read and write ports available
	// to a special instruction (Problem 1, §5).
	Nin, Nout int
	// Model supplies software latencies and hardware delays (§7).
	// If nil, one shared latency.Default() instance is used.
	Model *latency.Model

	// Extensions beyond the paper, off by default (used in ablations):

	// PruneInputs additionally eliminates subtrees whose cut already uses
	// more than Nin *permanent* inputs — values that can never be
	// absorbed into the cut (block live-ins, and producers already
	// excluded on this search path). Sound because such inputs only
	// accumulate along the search order. The §6.2 multiple-cut search
	// applies it per cut: a producer excluded or put in another cut is
	// permanent for every cut consuming it, and a subtree is eliminated
	// as soon as any cut has more than Nin.
	PruneInputs bool
	// PruneMerit additionally eliminates subtrees whose admissible merit
	// upper bound (current software gain plus all remaining includable
	// software latency, minus the current hardware cycle count) cannot
	// beat the incumbent.
	PruneMerit bool

	// MaxCuts aborts the search after considering this many cuts
	// (0 = unlimited). The incumbent found so far is returned with
	// Stats.Aborted set; the paper reports multi-hour runs for loose
	// constraints, which this valve bounds in test environments. With
	// Workers > 0 the budget is shared across workers and enforced at
	// poll granularity, so the engine may overshoot it by up to
	// Workers × ctxCheckInterval cuts, or Workers × M × ctxCheckInterval
	// for FindBestCuts (a visit there considers up to M cuts).
	MaxCuts int64
	// Workers, when positive, runs the exact single- and multiple-cut
	// searches on the parallel branch-and-bound engine (see parallel.go)
	// with that many workers; it is the only way a selection uses more
	// than one CPU. A search splits only when it outlasts a poll
	// interval, so short searches stay on one worker. Completed runs are
	// bit-identical to the serial search for every worker count — same
	// merit, same canonical cut, same Status — though Stats may differ
	// when PruneMerit is set (the shared incumbent bound prunes a
	// different, never unsound, portion of the tree). 0 keeps the serial
	// recursive search.
	Workers int
	// Probe, when non-nil, enables the search telemetry subsystem: a
	// flight recorder of typed search events, a fault injector, or both
	// (see internal/obs). Observation is strictly write-only — results,
	// Stats and Status are bit-identical with the probe on or off — and
	// a nil probe costs one predictable branch per probe point.
	// Sub-searches that must not open recorder lanes of their own (the
	// windowed heuristic's windows) drop the flight recorder and keep
	// the injector.
	Probe *obs.Probe
}

// defaultModel is the model every Config with a nil Model uses. One
// shared instance (models are immutable) costs no construction per
// search.
var defaultModel = latency.Default()

func (c Config) model() *latency.Model {
	if c.Model != nil {
		return c.Model
	}
	return defaultModel
}

// Stats describes one identification run.
type Stats struct {
	// CutsConsidered counts 1-branches taken, i.e. distinct cuts reached
	// by the search — the quantity plotted in Fig. 8 and traced in Fig. 7.
	CutsConsidered int64
	// Passed counts cuts that satisfied the output-port and convexity
	// checks (Fig. 7's "passed" nodes).
	Passed int64
	// Pruned counts 1-branches whose subtree was eliminated after a
	// failed output-port or convexity check (Fig. 7's "failed" nodes).
	Pruned int64
	// Bounded counts subtrees the PruneMerit bound cut off: their
	// admissible merit upper bound could not beat the incumbent.
	Bounded int64
	// Aborted reports that the MaxCuts valve stopped the search early.
	Aborted bool
}

func (s *Stats) add(o Stats) {
	s.CutsConsidered += o.CutsConsidered
	s.Passed += o.Passed
	s.Pruned += o.Pruned
	s.Bounded += o.Bounded
	s.Aborted = s.Aborted || o.Aborted
}

// Result is the outcome of a single-cut identification.
type Result struct {
	Found bool
	Cut   dfg.Cut
	Est   Estimate
	Stats Stats
	// Status reports how the search ended; anything but Exhaustive means
	// the result is a best-so-far lower bound, not a proven optimum.
	Status SearchStatus
	// Err carries the first panic recovered inside the parallel engine
	// (message plus truncated stack), even when a retry then finished the
	// subproblem and Status stayed Exhaustive. Nil on serial searches.
	Err error
}

// FindBestCut solves Problem 1 (§5) exactly on one graph: it returns the
// convex cut S maximizing M(S) subject to IN(S) ≤ Nin and OUT(S) ≤ Nout,
// using the search-tree algorithm of §6.1 with output-port and convexity
// subtree elimination. Found is false when no cut has positive merit.
func FindBestCut(g *dfg.Graph, cfg Config) Result {
	return FindBestCutCtx(context.Background(), g, cfg)
}

// FindBestCutCtx is FindBestCut under a context: the search polls
// ctx every ctxCheckInterval visited nodes and, on expiry or
// cancellation, returns the incumbent with Status set accordingly.
func FindBestCutCtx(ctx context.Context, g *dfg.Graph, cfg Config) Result {
	cuts, stats, st, err := exactSearch(ctx, cfg, func(cfg Config) bbTree { return newSearcher(g, cfg) })
	res := Result{Stats: stats, Status: st, Err: err}
	if cuts != nil {
		res.Found = true
		res.Cut = cuts[0].Canon()
		res.Est = Evaluate(g, res.Cut, cfg.model())
	}
	return res
}

// searcher holds the incremental state of §6.1. All per-node arrays are
// indexed by node ID. The search decides operation nodes in OpOrder
// (consumers before producers), so at any point every consumer of a
// decided node is itself decided; this makes OUT(S) and the convexity
// check exact and monotone (see §6.1 of the paper and DESIGN.md §5).
type searcher struct {
	searchCore

	inCut []bool
	reach []bool // for decided nodes: can this node reach the cut?
	// refCnt[p] counts cut members consuming p (data edges); a non-member
	// with refCnt > 0 is an input.
	refCnt []int
	inputs int
	permIn int // inputs that can never be absorbed on this path
	out    int
	sw     int64
	lenTo  []float64 // longest data path from a member through the cut
	crit   float64
	cyc    int // latency.CyclesOf(crit), kept in step with crit

	// replayUndo records the state deltas of an engine prefix replay so
	// it can be unwound exactly (see replay/unreplay).
	replayUndo []replayStep
}

func newSearcher(g *dfg.Graph, cfg Config) *searcher {
	return &searcher{
		searchCore: newCore(g, cfg),
		inCut:      make([]bool, len(g.Nodes)),
		reach:      make([]bool, len(g.Nodes)),
		refCnt:     make([]int, len(g.Nodes)),
		lenTo:      make([]float64, len(g.Nodes)),
	}
}

// meritOf converts the current (non-empty) cut state into merit. The
// instruction always costs at least one cycle.
func (s *searcher) meritOf() int64 {
	hw := s.cyc
	if hw < 1 {
		hw = 1
	}
	return (s.sw - int64(hw)) * s.freq
}

// meritUB is the admissible upper bound of the subtree rooted at rank:
// current software gain plus all remaining includable software latency,
// minus the current hardware cycle count (PruneMerit).
func (s *searcher) meritUB(rank int) int64 {
	return (s.sw + s.futSW[rank] - int64(s.cyc)) * s.freq
}

// includeOK reports whether the 1-branch at node passes, reading only
// the node's consumers, which are all decided (DESIGN.md §5): S∪{node}
// must be convex — no consumer outside the cut may reach it (§6.1) —
// and have OUT ≤ Nout, where node is an output when a V+ node or an
// operation outside the cut consumes it. Checking before applyInclude
// lets a failing branch leave the state untouched.
func (s *searcher) includeOK(node *dfg.Node) bool {
	isOut := false
	for _, sc := range node.Succs {
		if s.g.Nodes[sc].Kind != dfg.KindOp {
			isOut = true
		} else if !s.inCut[sc] {
			if s.reach[sc] {
				return false
			}
			isOut = true
		}
	}
	for _, sc := range node.OrderSuccs {
		if !s.inCut[sc] && s.reach[sc] {
			return false
		}
	}
	// Including node makes OUT out+1 if it is an output and out
	// otherwise, so out < Nout before the branch is exactly the test
	// out+1 ≤ Nout after applying it. Every reached state has
	// out ≤ Nout (the root has out = 0, and a failing branch is never
	// applied), so a non-output node passes whenever Nout ≥ 0; its test
	// keeps a negative Nout admitting no cut.
	if isOut {
		return s.out < s.cfg.Nout
	}
	return s.out <= s.cfg.Nout
}

// inclUndo captures what applyInclude changed beyond the per-node
// arrays, so undoInclude can restore the state exactly.
type inclUndo struct {
	isOut     bool
	absorbed  bool
	newPermIn int
	prevCrit  float64
	prevCyc   int
}

// applyInclude adds node id to the cut, updating the incremental IN/OUT,
// software-latency, permanent-input and critical-path state.
func (s *searcher) applyInclude(id int, node *dfg.Node) inclUndo {
	var u inclUndo
	s.inCut[id] = true
	s.reach[id] = true
	for _, sc := range node.Succs {
		if s.g.Nodes[sc].Kind != dfg.KindOp || !s.inCut[sc] {
			u.isOut = true
			break
		}
	}
	if u.isOut {
		s.out++
	}
	u.absorbed = s.refCnt[id] > 0
	if u.absorbed {
		s.inputs--
	}
	for _, p := range node.Preds {
		s.refCnt[p]++
		if s.refCnt[p] == 1 && !s.inCut[p] {
			s.inputs++
			if s.g.Nodes[p].Kind == dfg.KindIn {
				u.newPermIn++ // live-ins can never join the cut
			}
		}
	}
	s.permIn += u.newPermIn
	s.sw += int64(s.model.SW(node.Op))
	best := 0.0
	for _, sc := range node.Succs {
		if s.g.Nodes[sc].Kind == dfg.KindOp && s.inCut[sc] && s.lenTo[sc] > best {
			best = s.lenTo[sc]
		}
	}
	s.lenTo[id] = best + s.model.HW(node.Op)
	u.prevCrit, u.prevCyc = s.crit, s.cyc
	if s.lenTo[id] > s.crit {
		s.crit = s.lenTo[id]
		s.cyc = latency.CyclesOf(s.crit)
	}
	return u
}

func (s *searcher) undoInclude(id int, node *dfg.Node, u inclUndo) {
	s.crit, s.cyc = u.prevCrit, u.prevCyc
	s.lenTo[id] = 0
	s.sw -= int64(s.model.SW(node.Op))
	s.permIn -= u.newPermIn
	for _, p := range node.Preds {
		if s.refCnt[p] == 1 && !s.inCut[p] {
			s.inputs--
		}
		s.refCnt[p]--
	}
	if u.absorbed {
		s.inputs++
	}
	if u.isOut {
		s.out--
	}
	s.reach[id] = false
	s.inCut[id] = false
}

// applyExclude decides node id out of the cut: reach propagates from its
// successors, and a producer already consumed by the cut becomes a
// permanent input. Returns the permanent-input delta for undoExclude.
func (s *searcher) applyExclude(id int, node *dfg.Node) int {
	r := false
	for _, sc := range node.Succs {
		if s.reach[sc] {
			r = true
			break
		}
	}
	if !r {
		for _, sc := range node.OrderSuccs {
			if s.reach[sc] {
				r = true
				break
			}
		}
	}
	s.reach[id] = r
	exclPermIn := 0
	if s.refCnt[id] > 0 {
		exclPermIn = 1 // this producer is now permanently an input
	}
	s.permIn += exclPermIn
	return exclPermIn
}

func (s *searcher) undoExclude(id int, exclPermIn int) {
	s.permIn -= exclPermIn
	s.reach[id] = false
}

// record considers the current cut, completed at rank, as an incumbent.
func (s *searcher) record(rank int) {
	if m := s.meritOf(); s.beats(m) {
		s.keep(m, []dfg.Cut{s.currentCut()}, rank)
	}
}

func (s *searcher) visit(rank int) {
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
	if s.cfg.PruneMerit && s.boundCut(s.meritUB(rank)) {
		return
	}
	id := s.order[rank]
	node := &s.g.Nodes[id]
	if s.eng != nil {
		// What the serial search will decide about this frame's 0-branch
		// guard, precomputed so tryDonate can tell from an inner frame
		// (refCnt[id] cannot change inside the subtree: consumers of id
		// are all at earlier ranks).
		excl := 0
		if s.refCnt[id] > 0 {
			excl = 1
		}
		s.zeroOK[rank] = !s.cfg.PruneInputs || s.permIn+excl <= s.cfg.Nin
		if len(s.given) > 0 {
			s.skipGiven(rank)
		}
	}

	// 1-branch: include the node (Fig. 5 explores it first).
	if !node.Forbidden {
		if !s.consider() {
			return
		}
		if s.includeOK(node) {
			u := s.applyInclude(id, node)
			s.stats.Passed++
			if s.eng != nil {
				s.path[rank] = 1
			}
			if s.inputs <= s.cfg.Nin {
				s.record(rank)
			}
			if !s.cfg.PruneInputs || s.permIn <= s.cfg.Nin {
				s.visit(rank + 1)
			}
			s.undoInclude(id, node, u)
		} else {
			s.pruned()
		}
	}

	// 0-branch: exclude the node.
	if s.eng != nil {
		if s.donated[rank] {
			// Handed to another worker by tryDonate while this frame's
			// 1-subtree was being searched.
			s.donated[rank] = false
			return
		}
		s.path[rank] = 0
	}
	exclPermIn := s.applyExclude(id, node)
	if !s.cfg.PruneInputs || s.permIn <= s.cfg.Nin {
		s.visit(rank + 1)
	}
	s.undoExclude(id, exclPermIn)
}

func (s *searcher) currentCut() dfg.Cut {
	var c dfg.Cut
	for id, in := range s.inCut {
		if in {
			c = append(c, id)
		}
	}
	return c
}

// replayStep records one prefix decision for exact unwinding.
type replayStep struct {
	id         int
	include    bool
	incl       inclUndo
	exclPermIn int
}

// replay applies a decision prefix (decision r for rank r; nonzero =
// include) onto a clean searcher, rebuilding the exact incremental state
// the serial search would have at that tree position. Prefixes come from
// donation, which only hands out branches the serial search would
// descend through, so no feasibility re-checks are needed here.
func (s *searcher) replay(prefix []uint8) {
	for r, d := range prefix {
		id := s.order[r]
		node := &s.g.Nodes[id]
		if s.path != nil {
			s.path[r] = d // tryDonate rebuilds prefixes from path
		}
		step := replayStep{id: id, include: d != 0}
		if step.include {
			step.incl = s.applyInclude(id, node)
		} else {
			step.exclPermIn = s.applyExclude(id, node)
		}
		s.replayUndo = append(s.replayUndo, step)
	}
}

// unreplay unwinds a replay, restoring the clean state.
func (s *searcher) unreplay() {
	for i := len(s.replayUndo) - 1; i >= 0; i-- {
		st := s.replayUndo[i]
		if st.include {
			s.undoInclude(st.id, &s.g.Nodes[st.id], st.incl)
		} else {
			s.undoExclude(st.id, st.exclPermIn)
		}
	}
	s.replayUndo = s.replayUndo[:0]
}
