package core

// Parallel branch-and-bound over the §6.1 binary and the §6.2 (M+1)-ary
// search trees, split only on demand. One driver (runEngine, runWorker,
// runSub) serves both trees; each tree supplies only its visit and
// replay (bbTree, search.go).
//
// A subproblem (bbSub) is a decision vector for ranks [0, len(prefix))
// of the search order (for the single-cut tree 1 = include / 0 =
// exclude; for the multi-cut tree k = assign to cut k / 0 = none). A
// worker replays the prefix into its private searcher clone — rebuilding
// the exact incremental state the serial search would have at that tree
// position — and searches the whole subtree sequentially. The run starts
// with one subproblem, the root. While fewer subproblems wait than there
// are idle workers, a busy worker hands the shallowest pending 0-branch
// of its recursion stack to the engine at its next poll (tryDonate,
// search.go), and an idle worker takes the oldest waiting subproblem,
// which carries the shallowest prefix. A search shorter than one poll
// interval therefore never leaves its first worker, and a single worker
// never splits.
//
// Determinism: the subproblems partition the serial tree, each inherits
// its donor's running-best merit as a recording threshold (seed), and
// results merge by (higher merit, then DFS-earlier record position, see
// bbKeyBefore). Workers additionally share one atomic incumbent merit
// used for PruneMerit pruning with a *strict* comparison — it can never
// prune a path to a cut tying the optimum, and recording thresholds
// never come from it — so a completed parallel run returns the
// bit-identical cut, merit and Status of the serial search for every
// worker count and timing. Stats are also identical when PruneMerit is
// off (the executed subproblems partition exactly the serial tree); with
// PruneMerit on the shared bound prunes a different — never unsound —
// portion of the tree, so only the result, not the counters, is
// guaranteed identical.

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"isex/internal/dfg"
	"isex/internal/obs"
)

// bbSubRetries is how many times a worker re-runs a subproblem whose
// execution panicked (after rebuilding its searcher) before giving up
// and noting Recovered. Replay is deterministic, so a retry that
// succeeds yields exactly the answer the first attempt would have — a
// transient fault (e.g. an injected one-shot panic) then costs nothing
// but the retry, and the run can still end Exhaustive.
const bbSubRetries = 2

// bbRetryBackoff is the base sleep between subproblem retries, doubled
// per attempt. Small: it only spaces out re-executions of a fault that
// may be load-dependent.
const bbRetryBackoff = 200 * time.Microsecond

// bbSubHook, when non-nil, runs at the start of every subproblem
// execution; tests use it to inject worker panics.
var bbSubHook func(prefix []uint8)

// bbSub is one prefix-assignment subproblem. seed/seeded carry the
// donor's running-best merit as the recording threshold: the subproblem
// records only strictly better solutions, which is what the serial
// search would do arriving here with that incumbent.
type bbSub struct {
	prefix []uint8
	seed   int64
	seeded bool
}

// bbKeyBefore reports whether tree position a comes before b in the
// serial depth-first order. At each rank the serial searches explore
// inclusion first (cut labels in ascending order for the multi tree) and
// exclusion (0) last; an ancestor precedes every position of its subtree
// (the serial searches record a candidate when a node is included, i.e.
// on entering the subtree).
func bbKeyBefore(a, b []uint8) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			continue
		}
		if a[i] == 0 {
			return false
		}
		if b[i] == 0 {
			return true
		}
		return a[i] < b[i]
	}
	return len(a) < len(b)
}

// bbBest is one candidate result with its merge key: the cuts of a
// record (one for the §6.1 tree) and the tree position it was recorded
// at.
type bbBest struct {
	found bool
	merit int64
	cuts  []dfg.Cut
	key   []uint8
}

// better folds o into b. The ordering (higher merit, then DFS-earlier
// key) is total over every set of candidates the engine can produce: the
// subproblems partition the tree, so two candidates with equal keys are
// the same record, and the merge result is independent of fold order and
// timing. The key is the record's own position rather than its
// subproblem's prefix because a §6.2 donor keeps the k-siblings of the
// frames whose 0-branches it gave away, and those come after the donated
// subtrees in DFS order.
func (b *bbBest) better(o bbBest) {
	if !o.found {
		return
	}
	if !b.found || o.merit > b.merit || (o.merit == b.merit && bbKeyBefore(o.key, b.key)) {
		*b = o
	}
}

// bbEngine coordinates the workers: one list of waiting subproblems
// under one mutex (fine for its coarse grain — a take hands out an
// entire subtree), a shared atomic incumbent for cross-worker
// PruneMerit, and a shared approximate cut counter for the global
// MaxCuts budget.
type bbEngine struct {
	ctx      context.Context
	nworkers int
	maxCuts  int64 // global budget, 0 = none; enforced at poll grain
	sharedOn bool  // publish/observe the shared incumbent (PruneMerit)
	shared   atomic.Int64
	cuts     atomic.Int64
	needWork atomic.Bool // short of work (see short): searchers should donate

	probe *obs.Probe // the run's telemetry handle (nil when off)

	mu       sync.Mutex
	cond     *sync.Cond
	list     []bbSub // waiting subproblems, oldest first
	active   int     // workers currently executing a subproblem
	stopped  bool
	status   SearchStatus
	firstErr error // first recovered worker panic (stack-annotated)
}

// newBBEngine returns an engine whose list holds the root subproblem.
func newBBEngine(ctx context.Context, workers int, maxCuts int64, sharedOn bool) *bbEngine {
	e := &bbEngine{
		ctx:      ctx,
		nworkers: workers,
		maxCuts:  maxCuts,
		sharedOn: sharedOn,
		list:     []bbSub{{prefix: []uint8{}}},
	}
	e.cond = sync.NewCond(&e.mu)
	e.shared.Store(math.MinInt64)
	return e
}

// publish raises the shared incumbent to at least m and returns the
// current maximum.
func (e *bbEngine) publish(m int64) int64 {
	for {
		cur := e.shared.Load()
		if m <= cur {
			return cur
		}
		if e.shared.CompareAndSwap(cur, m) {
			return m
		}
	}
}

// pollSearch is the engine side of searchCore.poll: flush the caller's
// cut-count delta into the global counter, then check the global budget
// and the context. MaxCuts is therefore enforced at poll granularity: a
// worker polls every ctxCheckInterval visited nodes, and a visit
// considers one cut in the §6.1 tree and up to M in the §6.2 one, so
// the engine can overshoot by up to nworkers × ctxCheckInterval cuts
// for FindBestCut and nworkers × M × ctxCheckInterval for FindBestCuts.
func (e *bbEngine) pollSearch(stats *Stats, flushMark *int64) SearchStatus {
	if d := stats.CutsConsidered - *flushMark; d > 0 {
		e.cuts.Add(d)
		*flushMark = stats.CutsConsidered
	}
	if e.maxCuts > 0 && e.cuts.Load() >= e.maxCuts {
		return BudgetStopped
	}
	if err := e.ctx.Err(); err != nil {
		return statusOfCtx(err)
	}
	return Exhaustive
}

// short reports whether fewer subproblems wait than workers are idle:
// only then is a split worth its replay. A lone worker is never short.
// Callers hold e.mu.
func (e *bbEngine) short() bool {
	return !e.stopped && len(e.list) < e.nworkers-e.active
}

func (e *bbEngine) updateNeed() {
	e.needWork.Store(e.short())
}

// donate appends a subproblem split off a busy worker's recursion stack
// to the list. It is refused once every idle worker has a subproblem
// waiting (or the engine has stopped), so donation stops exactly when
// starvation ends.
func (e *bbEngine) donate(sub bbSub) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.short() {
		return false
	}
	e.list = append(e.list, sub)
	e.updateNeed()
	e.cond.Signal()
	return true
}

// take hands a worker the oldest waiting subproblem: it carries the
// shallowest prefix, and so the largest subtree. ok=false means the
// engine stopped or all work is exhausted.
func (e *bbEngine) take() (sub bbSub, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for !e.stopped {
		if len(e.list) > 0 {
			sub = e.list[0]
			e.list[0] = bbSub{}
			e.list = e.list[1:]
			e.active++
			e.updateNeed()
			return sub, true
		}
		if e.active == 0 {
			e.cond.Broadcast()
			break
		}
		e.cond.Wait()
	}
	return bbSub{}, false
}

// release marks a worker's current subproblem finished: the worker is
// idle, so the others may have to donate again.
func (e *bbEngine) release() {
	e.mu.Lock()
	e.active--
	e.updateNeed()
	if e.active == 0 && len(e.list) == 0 {
		e.cond.Broadcast()
	}
	e.mu.Unlock()
}

// halt stops the engine: workers drain (their next take returns false)
// and the waiting subproblems are abandoned.
func (e *bbEngine) halt(st SearchStatus) {
	e.mu.Lock()
	e.status = worse(e.status, st)
	e.stopped = true
	e.needWork.Store(false)
	e.cond.Broadcast()
	e.mu.Unlock()
}

// note records a non-fatal worker outcome (a subproblem lost to a
// recovered panic) without stopping the engine.
func (e *bbEngine) note(st SearchStatus) {
	e.mu.Lock()
	e.status = worse(e.status, st)
	e.mu.Unlock()
}

// noteErr records the first recovered worker panic, surfaced through
// Result.Err even when a retry then kept the status Exhaustive.
func (e *bbEngine) noteErr(err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	if e.firstErr == nil {
		e.firstErr = err
	}
	e.mu.Unlock()
}

func (e *bbEngine) finalErr() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.firstErr
}

// workerAbort handles a panic that escaped the per-subproblem recovery
// (an engine bug, not a search bug): fix the active count so the other
// workers cannot deadlock, record the panic, and stop — the lost
// subproblem makes every further "exhaustive" claim wrong.
func (e *bbEngine) workerAbort(holding bool, r any) {
	err := panicErr("engine-worker", r)
	e.probe.Panic("engine-worker", panicMsg(r), 0)
	e.mu.Lock()
	if holding {
		e.active--
	}
	if e.firstErr == nil {
		e.firstErr = err
	}
	e.status = worse(e.status, Recovered)
	e.stopped = true
	e.needWork.Store(false)
	e.cond.Broadcast()
	e.mu.Unlock()
}

func (e *bbEngine) finalStatus() SearchStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.status
}

// workerConfig strips the options the engine owns from the per-worker
// searcher configs: the budget is global (pollSearch), and Workers
// must not recurse inside a worker. Probe deliberately survives: each
// worker attaches its own recorder lane through it.
func workerConfig(cfg Config) Config {
	cfg.MaxCuts = 0
	cfg.Workers = 0
	return cfg
}

// runEngine is exactSearch on the parallel engine (Config.Workers > 0),
// for either tree: newTree builds each worker's private searcher. A
// completed run returns the bit-identical result of the serial search;
// see the package comment above.
func runEngine(ctx context.Context, cfg Config, newTree func(Config) bbTree) (best bbBest, stats Stats, st SearchStatus, err error) {
	if err := ctx.Err(); err != nil {
		return best, Stats{Aborted: true}, statusOfCtx(err), nil
	}
	nw := cfg.Workers
	wcfg := workerConfig(cfg)
	e := newBBEngine(ctx, nw, cfg.MaxCuts, cfg.PruneMerit)
	e.probe = cfg.Probe

	outs := make([]bbBest, nw)
	statsArr := make([]Stats, nw)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e.runWorker(func() bbTree { return newTree(wcfg) }, &outs[w], &statsArr[w])
		}(w)
	}
	wg.Wait()

	for w := range outs {
		best.better(outs[w])
		stats.add(statsArr[w])
	}
	st = e.finalStatus()
	stats.Aborted = st != Exhaustive
	return best, stats, st, e.finalErr()
}

// attach wires a worker's private searcher to the engine and allocates
// the donation bookkeeping (path / zeroOK / donated, indexed by rank;
// see tryDonate). The searcher keeps an already-attached telemetry lane
// (rebuild after a recovered panic); otherwise it gets its own.
func (e *bbEngine) attach(c *searchCore) {
	c.eng = e
	c.ctx = e.ctx
	if c.obs == nil {
		c.obs = e.probe.Attach()
	}
	c.path = make([]uint8, len(c.order))
	c.zeroOK = make([]bool, len(c.order))
	c.donated = make([]bool, len(c.order))
}

// runWorker is one worker's life: take subproblems until the engine
// stops or the work is exhausted. Its searcher, from newTree, persists
// across subproblems — replay/unreplay keep it clean — and is rebuilt
// if a recovered panic left it unreliable; a panicked subproblem is
// retried up to bbSubRetries times with doubling backoff before its loss
// is accepted as Recovered (replay makes the retry produce exactly what
// the first attempt would have).
func (e *bbEngine) runWorker(newTree func() bbTree, out *bbBest, stats *Stats) {
	holding := false
	defer func() {
		if r := recover(); r != nil {
			e.workerAbort(holding, r)
		}
	}()
	t := newTree()
	e.attach(t.core())
	o := t.core().obs // survives rebuilds
	for {
		o.Idle()
		sub, ok := e.take()
		o.Busy()
		if !ok {
			break
		}
		holding = true
		// A retry counts only the work the serial search does: it starts
		// from the counters the subproblem started with, and skips the
		// 0-branches the failed attempts donated.
		c := t.core()
		start, mark := c.stats, c.flushMark
		c.given = c.given[:0]
		for attempt := 0; ; attempt++ {
			if e.runSub(t, sub, out, attempt) {
				break
			}
			t = e.rebuild(t, newTree(), start, mark)
			if attempt >= bbSubRetries {
				e.note(Recovered)
				break
			}
			time.Sleep(bbRetryBackoff << attempt)
		}
		e.release()
		holding = false
	}
	c := t.core()
	c.endObs()
	*stats = c.stats
}

// rebuild attaches the fresh searcher nt in place of t for a retry of
// the subproblem that failed on t. nt keeps t's telemetry lane, poll
// cadence, shared bound and the prefixes t's attempts donated, and takes
// the counters and flush mark the subproblem started with: the failed
// attempt's work is not counted, and the retry does not search again
// what other workers now own.
func (e *bbEngine) rebuild(t, nt bbTree, stats Stats, flushMark int64) bbTree {
	o, n := t.core(), nt.core()
	n.obs = o.obs
	n.tick, n.sharedCache, n.given = o.tick, o.sharedCache, o.given
	n.stats, n.flushMark = stats, flushMark
	e.attach(n)
	return nt
}

// runSub executes one subproblem on worker searcher t: it replays the
// prefix and searches the whole subtree, donating 0-branches on the way
// while the engine is short of work. A panic is contained to the
// subproblem (ok=false): the panic is recorded, and the caller rebuilds
// the searcher and retries; only when the retries are exhausted does
// the caller note Recovered.
func (e *bbEngine) runSub(t bbTree, sub bbSub, out *bbBest, attempt int) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			e.noteErr(panicErr("engine-sub", r))
			e.probe.Panic("engine-sub", panicMsg(r), attempt)
			ok = false
		}
	}()
	if bbSubHook != nil {
		bbSubHook(sub.prefix)
	}
	c := t.core()
	t.replay(sub.prefix)
	c.base = len(sub.prefix)
	c.curRank = c.base
	c.bestFound, c.bestMerit, c.bestCuts, c.bestKey = sub.seeded, 0, nil, nil
	if sub.seeded {
		c.bestMerit = sub.seed
	}
	c.stop = Exhaustive
	c.poll()
	t.visit(c.base)
	if c.bestCuts != nil {
		out.better(bbBest{found: true, merit: c.bestMerit, cuts: c.bestCuts, key: c.bestKey})
	}
	if c.stop != Exhaustive {
		e.halt(c.stop)
	}
	t.unreplay()
	return true
}
