package core

// Work-stealing parallel branch-and-bound over the §6.1 binary and the
// §6.2 (M+1)-ary search trees. One driver (runEngine, runWorker, runSub)
// serves both trees; each tree supplies only its visit, expand and
// replay (bbTree, search.go).
//
// The tree is partitioned into prefix-assignment subproblems: a bbSub is
// a decision vector for ranks [0, len(prefix)) of the search order (for
// the single-cut tree 1 = include / 0 = exclude; for the multi-cut tree
// k = assign to cut k / 0 = none). A worker replays the prefix into its
// private searcher clone — rebuilding the exact incremental state the
// serial search would have at that tree position — and either *expands*
// the node (mirrors exactly one visit level, pushing the children as new
// subproblems) or *searches* the whole subtree sequentially. Expansion
// happens while the engine is starving for work and the subtree is still
// deep enough to be worth splitting; on top of that, a worker stuck in a
// deep sequential subtree donates pending 0-branches of its recursion
// stack at poll points (dynamic re-splitting, see tryDonate).
//
// Determinism: the subproblem prefixes partition the leaf space, each
// subproblem inherits its lineage's running-best merit as a recording
// threshold (seed), and results merge by (higher merit, then DFS-earlier
// key, see bbKeyBefore). Workers additionally share one atomic incumbent
// merit used for PruneMerit pruning with a *strict* comparison — it can
// never prune a path to a cut tying the optimum, and recording
// thresholds never come from it — so a completed parallel run returns
// the bit-identical cut, merit and Status of the serial search for every
// worker count and timing. Stats are also identical when PruneMerit is
// off (the executed subproblems partition exactly the serial tree); with
// PruneMerit on the shared bound prunes a different — never unsound —
// portion of the tree, so only the result, not the counters, is
// guaranteed identical.

import (
	"context"
	"math"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"isex/internal/dfg"
	"isex/internal/obs"
)

// bbMinSeqRanks is the subtree depth below which splitting stops: a
// subproblem whose remaining ranks are at most this is always searched
// sequentially. Small enough that work can always be balanced, large
// enough that subproblems amortize their replay cost.
const bbMinSeqRanks = 12

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
// lineage's running-best merit as the recording threshold: the
// subproblem records only strictly better solutions, which is what the
// serial search would do arriving here with that incumbent.
type bbSub struct {
	prefix []uint8
	seed   int64
	seeded bool
}

// childKey returns prefix + [d] in fresh storage (prefixes are shared
// between deque entries and merge keys, and must stay immutable).
func childKey(prefix []uint8, d uint8) []uint8 {
	k := make([]uint8, len(prefix)+1)
	copy(k, prefix)
	k[len(prefix)] = d
	return k
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
// record (one for the §6.1 tree).
type bbBest struct {
	found bool
	merit int64
	cuts  []dfg.Cut
	key   []uint8
}

// better folds o into b. The ordering (higher merit, then DFS-earlier
// key) is total over every set of candidates the engine can produce —
// equal keys imply distinct merits, because a subproblem keyed like an
// expansion record is seeded at that record's merit — so the merge
// result is independent of fold order and timing.
func (b *bbBest) better(o bbBest) {
	if !o.found {
		return
	}
	if !b.found || o.merit > b.merit || (o.merit == b.merit && bbKeyBefore(o.key, b.key)) {
		*b = o
	}
}

// bbEngine coordinates the workers: per-worker deques under one mutex
// (fine for the deque's coarse grain — a pop hands out an entire
// subtree), a shared atomic incumbent for cross-worker PruneMerit, and a
// shared approximate cut counter for the global MaxCuts budget.
type bbEngine struct {
	ctx      context.Context
	nworkers int
	nranks   int
	maxCuts  int64 // global budget, 0 = none; enforced at poll grain
	sharedOn bool  // publish/observe the shared incumbent (PruneMerit)
	shared   atomic.Int64
	cuts     atomic.Int64
	needWork atomic.Bool // pending < nworkers: searchers should donate

	// probe is the run's telemetry handle (nil when off); wobs[w] is
	// worker w's searcher attachment, published by attach from worker
	// w's own goroutine so that take — also on worker w's goroutine —
	// can emit steal events on w's private ring.
	probe *obs.Probe
	wobs  []*obs.SearchObs

	mu       sync.Mutex
	cond     *sync.Cond
	deques   [][]bbSub
	pending  int // subproblems across all deques
	active   int // workers currently executing a subproblem
	stopped  bool
	status   SearchStatus
	firstErr error // first recovered worker panic (stack-annotated)
}

func newBBEngine(ctx context.Context, workers, nranks int, maxCuts int64, sharedOn bool) *bbEngine {
	e := &bbEngine{
		ctx:      ctx,
		nworkers: workers,
		nranks:   nranks,
		maxCuts:  maxCuts,
		sharedOn: sharedOn,
		deques:   make([][]bbSub, workers),
		wobs:     make([]*obs.SearchObs, workers),
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

func (e *bbEngine) updateNeed() {
	e.needWork.Store(!e.stopped && e.pending < e.nworkers)
}

// push appends children (given in DFS order) to worker w's deque in
// reverse, so the owner's LIFO pop takes the DFS-first child next.
func (e *bbEngine) push(w int, subs []bbSub) {
	e.mu.Lock()
	if !e.stopped {
		for i := len(subs) - 1; i >= 0; i-- {
			e.deques[w] = append(e.deques[w], subs[i])
		}
		e.pending += len(subs)
		e.updateNeed()
		e.cond.Broadcast()
	}
	e.mu.Unlock()
}

// donate offers one re-split subproblem from a busy worker's recursion
// stack. It is refused once the engine has enough pending work (or has
// stopped), so donation stops exactly when starvation ends.
func (e *bbEngine) donate(w int, prefix []uint8, seed int64, seeded bool) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped || e.pending >= e.nworkers {
		return false
	}
	e.deques[w] = append(e.deques[w], bbSub{prefix: prefix, seed: seed, seeded: seeded})
	e.pending++
	e.updateNeed()
	e.cond.Broadcast()
	return true
}

// take hands worker w its next subproblem: LIFO from its own deque, else
// the oldest half of the richest victim's deque is stolen (the oldest
// entries carry the shallowest prefixes, i.e. the largest subtrees). The
// second result tells the worker to expand rather than search: true
// while the engine is starving and the subtree is deep enough to split.
// ok=false means the engine stopped or all work is exhausted.
func (e *bbEngine) take(w int) (sub bbSub, expand, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if e.stopped {
			return bbSub{}, false, false
		}
		if len(e.deques[w]) == 0 {
			v, vn := -1, 0
			for i := range e.deques {
				if len(e.deques[i]) > vn {
					v, vn = i, len(e.deques[i])
				}
			}
			if v >= 0 {
				k := (vn + 1) / 2
				e.deques[w] = append(e.deques[w], e.deques[v][:k]...)
				rest := copy(e.deques[v], e.deques[v][k:])
				for i := rest; i < vn; i++ {
					e.deques[v][i] = bbSub{}
				}
				e.deques[v] = e.deques[v][:rest]
				if o := e.wobs[w]; o != nil {
					o.Steal(int64(v), int64(k), int64(vn))
				}
				continue
			}
			if e.active == 0 {
				e.cond.Broadcast()
				return bbSub{}, false, false
			}
			e.cond.Wait()
			continue
		}
		n := len(e.deques[w])
		sub = e.deques[w][n-1]
		e.deques[w][n-1] = bbSub{}
		e.deques[w] = e.deques[w][:n-1]
		e.pending--
		e.active++
		e.updateNeed()
		expand = e.pending < e.nworkers && e.nranks-len(sub.prefix) > bbMinSeqRanks
		return sub, expand, true
	}
}

// release marks worker w's current subproblem finished.
func (e *bbEngine) release() {
	e.mu.Lock()
	e.active--
	if e.active == 0 && e.pending == 0 {
		e.cond.Broadcast()
	}
	e.mu.Unlock()
}

// halt stops the engine: workers drain (their next take returns false)
// and the pending deque entries are abandoned.
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

// countRetry bumps the worker-retry metric before a subproblem re-run.
func (e *bbEngine) countRetry() {
	e.probe.Count(func(m *obs.Metrics) *obs.Counter { return m.WorkerRetries })
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
// searcher configs: the budget is global (pollSearch), and Window /
// Workers / Parallel must not recurse inside a worker. Probe
// deliberately survives: each worker attaches its own private
// flight-recorder ring through it.
func workerConfig(cfg Config) Config {
	cfg.MaxCuts = 0
	cfg.Window = 0
	cfg.Workers = 0
	cfg.Parallel = false
	return cfg
}

// runEngine is exactSearch on the work-stealing engine (Config.Workers >
// 0), for either tree: newTree builds each worker's private searcher. A
// completed run returns the bit-identical result of the serial search;
// see the package comment above.
func runEngine(ctx context.Context, cfg Config, engine string, newTree func(Config) bbTree) (best bbBest, stats Stats, st SearchStatus, err error) {
	if err := ctx.Err(); err != nil {
		return best, Stats{Aborted: true}, statusOfCtx(err), nil
	}
	nw := cfg.Workers
	wcfg := workerConfig(cfg)
	trees := make([]bbTree, nw)
	for w := range trees {
		trees[w] = newTree(wcfg)
	}
	e := newBBEngine(ctx, nw, len(trees[0].core().order), cfg.MaxCuts, cfg.PruneMerit)
	e.probe = cfg.Probe
	e.push(0, []bbSub{{prefix: []uint8{}}})

	outs := make([]bbBest, nw)
	statsArr := make([]Stats, nw)
	engineWorkers(cfg.Probe, nw)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runLabeled(ctx, cfg.Probe, engine, w, func() {
				e.runWorker(w, trees[w], func() bbTree { return newTree(wcfg) }, &outs[w], &statsArr[w])
			})
		}(w)
	}
	wg.Wait()
	engineWorkers(cfg.Probe, -nw)

	for w := range outs {
		best.better(outs[w])
		stats.add(statsArr[w])
	}
	st = e.finalStatus()
	stats.Aborted = st != Exhaustive
	return best, stats, st, e.finalErr()
}

// runLabeled runs f under pprof labels identifying the engine worker,
// so CPU profiles attribute samples per worker — but only when a probe
// is attached: the disabled path must not pay the label allocation.
func runLabeled(ctx context.Context, p *obs.Probe, engine string, w int, f func()) {
	if p == nil {
		f()
		return
	}
	pprof.Do(ctx, pprof.Labels("isex_engine", engine, "isex_worker", strconv.Itoa(w)),
		func(context.Context) { f() })
}

// engineWorkers adjusts the engine_workers_active gauge (no-op when
// metrics are off).
func engineWorkers(p *obs.Probe, delta int) {
	if p != nil && p.Met != nil {
		p.Met.WorkersActive.Add(int64(delta))
	}
}

// attach wires a worker's private searcher to the engine and allocates
// the donation bookkeeping (path / zeroOK / donated, indexed by rank;
// see tryDonate). The searcher keeps an already-attached telemetry ring
// (rebuild after a recovered panic); otherwise it gets its own, and
// either way the engine learns it for steal events.
func (e *bbEngine) attach(c *searchCore, wid int) {
	c.eng = e
	c.ctx = e.ctx
	c.wid = wid
	if c.obs == nil {
		c.obs = e.probe.Attach()
	}
	e.wobs[wid] = c.obs
	c.path = make([]uint8, len(c.order))
	c.zeroOK = make([]bool, len(c.order))
	c.donated = make([]bool, len(c.order))
}

// runWorker is one worker's life on its searcher t: pop (or steal)
// subproblems until the engine stops or the work is exhausted. t
// persists across subproblems — replay/unreplay keep it clean — and is
// rebuilt from newTree (carrying its counters) if a recovered panic left
// it unreliable; a panicked subproblem is retried up to bbSubRetries
// times with doubling backoff before its loss is accepted as Recovered
// (replay makes the retry produce exactly what the first attempt would
// have).
func (e *bbEngine) runWorker(wid int, t bbTree, newTree func() bbTree, out *bbBest, stats *Stats) {
	holding := false
	defer func() {
		if r := recover(); r != nil {
			e.workerAbort(holding, r)
		}
	}()
	e.attach(t.core(), wid)
	for {
		sub, expand, ok := e.take(wid)
		if !ok {
			break
		}
		holding = true
		for attempt := 0; ; attempt++ {
			if e.runSub(t, sub, expand, out, attempt) {
				break
			}
			t = e.rebuild(t, newTree(), wid)
			if attempt >= bbSubRetries {
				e.note(Recovered)
				break
			}
			e.countRetry()
			time.Sleep(bbRetryBackoff << attempt)
		}
		e.release()
		holding = false
	}
	c := t.core()
	c.flushObs()
	*stats = c.stats
}

// rebuild attaches the fresh searcher nt in place of t, carrying over
// t's telemetry ring (with its flush marks) and its counters.
func (e *bbEngine) rebuild(t, nt bbTree, wid int) bbTree {
	o, n := t.core(), nt.core()
	n.obs, n.boundCuts = o.obs, o.boundCuts
	n.stats, n.tick, n.flushMark, n.sharedCache = o.stats, o.tick, o.flushMark, o.sharedCache
	e.attach(n, wid)
	return nt
}

// runSub executes one subproblem on worker searcher t: it replays the
// prefix, then either expands the node into children or searches the
// whole subtree. A panic is contained to the subproblem (ok=false): the
// panic is recorded, and the caller rebuilds the searcher and retries;
// only when the retries are exhausted does the caller note Recovered.
func (e *bbEngine) runSub(t bbTree, sub bbSub, expand bool, out *bbBest, attempt int) (ok bool) {
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
	c.bestFound, c.bestMerit, c.bestCuts = sub.seeded, 0, nil
	if sub.seeded {
		c.bestMerit = sub.seed
	}
	c.stop = Exhaustive
	if expand {
		if children := t.expand(sub.prefix, out); len(children) > 0 {
			if c.obs != nil {
				c.obs.Resplit(len(sub.prefix), len(children))
			}
			e.push(c.wid, children)
		}
	} else {
		c.poll()
		t.visit(c.base)
		if c.bestCuts != nil {
			out.better(bbBest{found: true, merit: c.bestMerit, cuts: c.bestCuts, key: sub.prefix})
		}
	}
	if c.stop != Exhaustive {
		e.halt(c.stop)
	}
	t.unreplay()
	return true
}
