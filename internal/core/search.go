package core

import (
	"context"
	"math"
	"slices"

	"isex/internal/dfg"
	"isex/internal/latency"
	"isex/internal/obs"
)

// searchCore is the state the §6.1 searcher and the §6.2 multiSearcher
// share, embedded by value in both so that the hot visit loops reach it
// without an extra indirection. It holds everything that does not
// depend on the shape of the tree: the graph and its search order, the
// stop sources, the recording threshold, the telemetry attachment, the
// engine attachment and the donation bookkeeping.
type searchCore struct {
	g     *dfg.Graph
	cfg   Config
	model *latency.Model
	order []int
	freq  int64
	// futSW[rank] is the total software latency of includable nodes at
	// ranks ≥ rank. Each future node joins at most one cut and raises
	// that cut's merit by at most sw(op)·freq (hardware cycles never
	// shrink, and a cut opened later still pays ≥ 1 cycle), so the
	// current merit plus futSW[rank]·freq is an admissible PruneMerit
	// bound on either tree.
	futSW []int64

	// bestFound/bestMerit form the recording threshold: a record must
	// strictly beat bestMerit. bestCuts holds the cuts recorded at it
	// (one cut for §6.1); it is nil when the engine seeded the threshold
	// from the donor's running best rather than a record made here.
	// bestKey is the tree position of that record (engine runs only): the
	// decisions path[:rank+1], the engine's merge key.
	bestFound bool
	bestMerit int64
	bestCuts  []dfg.Cut
	bestKey   []uint8
	stats     Stats
	// budget is cfg.MaxCuts, or MaxInt64 when unlimited: one comparison
	// in consider, which keeps it within the inlining budget.
	budget int64
	// ctx is polled every ctxCheckInterval visited nodes (ticks); stop
	// records why the search ended early (Exhaustive while running).
	ctx  context.Context
	stop SearchStatus
	tick int64

	// obs is the searcher's telemetry attachment (nil when observability
	// is off — the only cost is then the nil checks at the probe
	// points).
	obs *obs.SearchObs

	// Engine attachment (nil for the serial search): eng supplies the
	// shared incumbent bound and the global budget, sharedCache is the
	// last observed shared bound (MinInt64 when detached — the pruning
	// comparison then never fires), and flushMark is how much of
	// stats.CutsConsidered has been flushed to the engine's counter.
	eng         *bbEngine
	sharedCache int64
	flushMark   int64

	// Donation bookkeeping (engine runs only; see tryDonate): base is the
	// replayed prefix depth, curRank the rank of the innermost live visit
	// frame, path the decision at each live ancestor rank (the cut label
	// in a 1- or k-branch, set before its record; 0 in the 0-branch),
	// zeroOK whether that frame's 0-branch passes the PruneInputs guard,
	// and donated whether it was handed to the engine (the frame then
	// skips it). given lists the prefixes donated by the running
	// subproblem's attempts, so that a retry after a recovered panic
	// skips them too (skipGiven).
	base    int
	curRank int
	path    []uint8
	zeroOK  []bool
	donated []bool
	given   [][]uint8
}

func newCore(g *dfg.Graph, cfg Config) searchCore {
	c := searchCore{
		budget:      math.MaxInt64,
		g:           g,
		cfg:         cfg,
		model:       cfg.model(),
		order:       g.OpOrder,
		freq:        weight(g.Block.Freq),
		futSW:       make([]int64, len(g.OpOrder)+1),
		sharedCache: math.MinInt64,
	}
	if cfg.MaxCuts > 0 {
		c.budget = cfg.MaxCuts
	}
	for r := len(c.order) - 1; r >= 0; r-- {
		n := &g.Nodes[c.order[r]]
		c.futSW[r] = c.futSW[r+1]
		if !n.Forbidden {
			c.futSW[r] += int64(c.model.SW(n.Op))
		}
	}
	return c
}

// bbTree is what exactSearch and the engine need of one exact searcher.
// Everything but visit and replay lives in the shared core; visit
// recurses on the concrete type, so the interface costs one call per
// search or subproblem, never one per node.
type bbTree interface {
	core() *searchCore
	// visit searches the subtree at rank.
	visit(rank int)
	// replay applies a decision prefix onto a clean searcher, rebuilding
	// the exact state the serial search has at that tree position;
	// unreplay unwinds it.
	replay(prefix []uint8)
	unreplay()
}

func (c *searchCore) core() *searchCore { return c }

// exactSearch runs one exact search: on the parallel engine when
// cfg.Workers > 0, serially on newTree(cfg) otherwise. It returns the
// best cuts found (nil when none), the work done and how the search
// ended.
func exactSearch(ctx context.Context, cfg Config, newTree func(Config) bbTree) (cuts []dfg.Cut, stats Stats, st SearchStatus, err error) {
	if cfg.Workers > 0 {
		best, stats, st, err := runEngine(ctx, cfg, newTree)
		return best.cuts, stats, st, err
	}
	t := newTree(cfg)
	c := t.core()
	c.ctx = ctx
	c.obs = cfg.Probe.Attach()
	c.poll()
	t.visit(0)
	c.stats.Aborted = c.stop != Exhaustive
	c.endObs()
	return c.bestCuts, c.stats, c.stop, nil
}

// endObs closes the searcher's recorder lane with its exact prune and
// bound-cutoff totals.
func (c *searchCore) endObs() {
	if c.obs != nil {
		c.obs.Poll()
		c.obs.End(c.stats.Pruned, c.stats.Bounded)
	}
}

// stopAt ends the search with status st and reports it to the telemetry
// subsystem. It returns false, for callers that test whether to go on.
func (c *searchCore) stopAt(st SearchStatus) bool {
	c.stop = st
	if c.obs != nil {
		c.obs.Poll()
		c.obs.Stop(int64(st))
	}
	return false
}

// poll checks the stop sources: the engine (shared budget, context, and
// shared-bound refresh) when attached, the plain context otherwise. It
// runs at search entry and every ctxCheckInterval visited nodes — on
// every branch, so a long run of 0-branches or forbidden nodes cannot
// outlive a cancellation.
func (c *searchCore) poll() {
	if e := c.eng; e != nil {
		if st := e.pollSearch(&c.stats, &c.flushMark); st != Exhaustive {
			c.stopAt(st)
			return
		}
		if e.sharedOn {
			if v := e.shared.Load(); v > c.sharedCache {
				c.sharedCache = v
			}
		}
		if e.needWork.Load() {
			c.tryDonate()
		}
	} else if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			c.stopAt(statusOfCtx(err))
			return
		}
	}
	if c.obs != nil {
		c.obs.Poll()
	}
}

// consider charges one cut (a 1- or k-branch) against MaxCuts and
// reports whether the search goes on.
func (c *searchCore) consider() bool {
	if c.stats.CutsConsidered >= c.budget {
		return c.stopAt(BudgetStopped)
	}
	c.stats.CutsConsidered++
	return true
}

// pruned counts a branch that failed the output-port or convexity check.
func (c *searchCore) pruned() { c.stats.Pruned++ }

// boundCut reports, and counts in Stats.Bounded, whether PruneMerit
// eliminates the subtree whose admissible merit upper bound is ub: it
// cannot beat the local incumbent, or falls strictly below the engine's
// shared bound (strict, so a path to a cut tying the optimum is never
// pruned). It inlines into the visit loops.
func (c *searchCore) boundCut(ub int64) bool {
	if (c.bestFound && ub <= c.bestMerit) || ub < c.sharedCache {
		c.stats.Bounded++
		return true
	}
	return false
}

// beats reports whether merit m clears the recording threshold. The
// strict comparison keeps the first record (in search order) of each
// merit level, which is what makes the engine's merge reproducible.
func (c *searchCore) beats(m int64) bool {
	return m > 0 && (!c.bestFound || m > c.bestMerit)
}

// keep records cuts of merit m, made by the decision at rank, as the
// incumbent and publishes it to the telemetry and, with its tree
// position, to the engine.
func (c *searchCore) keep(m int64, cuts []dfg.Cut, rank int) {
	c.bestFound, c.bestMerit, c.bestCuts = true, m, cuts
	if c.obs != nil {
		c.obs.Incumbent(m, c.stats.CutsConsidered, rank)
	}
	if c.eng != nil {
		c.bestKey = append([]uint8(nil), c.path[:rank+1]...)
		if c.eng.sharedOn {
			if v := c.eng.publish(m); v > c.sharedCache {
				c.sharedCache = v
			}
		}
	}
}

// tryDonate splits the running subtree: the shallowest live ancestor
// frame still inside a 1- or k-subtree (path[r] != 0) whose 0-branch
// would pass the serial search's PruneInputs guard (zeroOK) is handed to
// the engine as a fresh subproblem, and the frame skips that branch on
// unwind (donated). Only the 0-branch is donated — the remaining
// k-siblings of a §6.2 frame stay with the owner — which is enough: the
// 0-subtree is the bulk of every frame. The donated seed is the worker's
// current local best — the merit of a DFS-earlier record — which can
// never suppress the DFS-first record of the maximum merit, so
// determinism is preserved; the shared bound is deliberately not used as
// a seed, because it may hold a merit from a DFS-*later* position.
func (c *searchCore) tryDonate() {
	for r := c.base; r < c.curRank; r++ {
		if c.path[r] != 0 && !c.donated[r] && c.zeroOK[r] && !c.givenWithin(r) {
			pfx := make([]uint8, r+1) // pfx[r] = 0: the 0-branch
			copy(pfx, c.path[:r])
			if c.eng.donate(bbSub{prefix: pfx, seed: c.bestMerit, seeded: c.bestFound}) {
				c.donated[r] = true
				c.given = append(c.given, pfx)
				if c.obs != nil {
					c.obs.Donate(r)
				}
			}
			return
		}
	}
}

// skipGiven marks the 0-branch of the frame at rank as donated when an
// earlier attempt of the running subproblem gave it away: the frame then
// skips it, as that attempt's frame would have. The visits call it on
// frame entry while given is non-empty, that is, only in a retry.
func (c *searchCore) skipGiven(rank int) {
	for _, p := range c.given {
		if len(p) == rank+1 && slices.Equal(p[:rank], c.path[:rank]) {
			c.donated[rank] = true
			return
		}
	}
}

// givenWithin reports whether the 0-subtree of the frame at rank holds a
// branch an earlier attempt gave away. A retry must not donate that
// subtree: the branch would then be searched twice.
func (c *searchCore) givenWithin(rank int) bool {
	for _, p := range c.given {
		if len(p) > rank+1 && p[rank] == 0 && slices.Equal(p[:rank], c.path[:rank]) {
			return true
		}
	}
	return false
}
