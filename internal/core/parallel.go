package core

// Work-stealing parallel branch-and-bound over the §6.1 binary (and §6.2
// (M+1)-ary) search trees.
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

// bbBest is one candidate result with its merge key. base marks the
// warm-start incumbent, which loses merit ties to any search result (the
// serial search would have re-recorded the first tying cut it reached).
type bbBest struct {
	found bool
	merit int64
	cut   dfg.Cut   // single-cut engine
	cuts  []dfg.Cut // multi-cut engine
	key   []uint8
	base  bool
}

// better folds o into b. The ordering (higher merit, search result over
// warm base, DFS-earlier key) is total over every set of candidates the
// engine can produce — equal keys imply distinct merits, because a
// subproblem keyed like an expansion record is seeded at that record's
// merit — so the merge result is independent of fold order and timing.
func (b *bbBest) better(o bbBest) {
	if !o.found {
		return
	}
	if !b.found {
		*b = o
		return
	}
	if o.merit != b.merit {
		if o.merit > b.merit {
			*b = o
		}
		return
	}
	if b.base != o.base {
		if b.base {
			*b = o
		}
		return
	}
	if !b.base && bbKeyBefore(o.key, b.key) {
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
	// worker w's searcher attachment, published by attachSingle/
	// attachMulti from worker w's own goroutine so that take — also on
	// worker w's goroutine — can emit steal events on w's private ring.
	probe *obs.Probe
	wobs  []*obs.SearchObs

	// progress[w] counts worker w's pollSearch calls; holding[w] marks w
	// as executing a subproblem; aborted[w] tells w to re-split and
	// abandon its current subproblem at its next poll. All three are the
	// watchdog's view of the workers (see watch).
	progress []atomic.Int64
	holding  []atomic.Bool
	aborted  []atomic.Bool

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
		progress: make([]atomic.Int64, workers),
		holding:  make([]atomic.Bool, workers),
		aborted:  make([]atomic.Bool, workers),
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

// pollSearch is the engine side of searcher.poll: bump the worker's
// progress counter (the watchdog's liveness signal), flush the caller's
// cut-count delta into the global counter, then check the watchdog
// abort flag, the global budget and the context. MaxCuts is therefore
// enforced at poll granularity: a worker polls every ctxCheckInterval
// visited nodes, and a visit considers one cut in the §6.1 tree and up
// to M in the §6.2 one, so the engine can overshoot by up to
// nworkers × ctxCheckInterval cuts for FindBestCut and
// nworkers × M × ctxCheckInterval for FindBestCuts.
func (e *bbEngine) pollSearch(wid int, stats *Stats, flushMark *int64) SearchStatus {
	if wid >= 0 && wid < len(e.progress) {
		e.progress[wid].Add(1)
	}
	if d := stats.CutsConsidered - *flushMark; d > 0 {
		e.cuts.Add(d)
		*flushMark = stats.CutsConsidered
	}
	if wid >= 0 && wid < len(e.aborted) && e.aborted[wid].Load() {
		return Stalled
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

// forceDonate requeues a subproblem unconditionally (unless the engine
// stopped). Used by the stall path to hand a stalled worker's whole
// subproblem back to the deques, so its unexplored work is picked up by
// the other workers instead of lost.
func (e *bbEngine) forceDonate(w int, prefix []uint8, seed int64, seeded bool) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
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

// note records a non-fatal worker outcome (a recovered subproblem panic
// or a watchdog stall) without stopping the engine.
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

// clearAbort re-arms worker w after it has honored a stall abort.
func (e *bbEngine) clearAbort(w int) {
	if w >= 0 && w < len(e.aborted) {
		e.aborted[w].Store(false)
	}
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

// watch is the engine watchdog: every window it samples each worker's
// poll-progress counter, and a worker that is executing a subproblem yet
// shows no progress for two consecutive windows is declared stalled —
// its abort flag is raised so that, at its next poll, it requeues its
// whole subproblem (forceDonate) for the other workers and moves on,
// and the run's status is noted Stalled (conservative: the requeue
// loses no work — duplicated exploration is absorbed by the idempotent
// merge — but exhaustiveness is no longer claimed). The watchdog can
// only intervene cooperatively: a goroutine that never polls again
// cannot be killed in Go, so the run still waits for it — the watchdog
// bounds the extra search work, not a non-cooperative goroutine.
// Returns a stop function; no-op when window <= 0 (watchdog off).
func (e *bbEngine) watch(window time.Duration) func() {
	if window <= 0 {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(window)
		defer t.Stop()
		last := make([]int64, e.nworkers)
		stuck := make([]int, e.nworkers)
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			for w := 0; w < e.nworkers; w++ {
				cur := e.progress[w].Load()
				if !e.holding[w].Load() || cur != last[w] {
					last[w] = cur
					stuck[w] = 0
					continue
				}
				stuck[w]++
				if stuck[w] >= 2 && !e.aborted[w].Load() {
					e.aborted[w].Store(true)
					e.note(Stalled)
					e.probe.Stall(w, stuck[w])
				}
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// workerConfig strips the options the engine owns from the per-worker
// searcher configs: the budget is global (pollSearch), Window / Workers /
// WarmStart / Parallel must not recurse inside a worker, and incumbent
// seeds are applied once at the engine root (as the warm base), never per
// subproblem — subproblems inherit their lineage's threshold instead.
// Probe deliberately survives: each worker attaches its own private
// flight-recorder ring through it.
func workerConfig(cfg Config) Config {
	cfg.MaxCuts = 0
	cfg.Window = 0
	cfg.Workers = 0
	cfg.WarmStart = false
	cfg.Parallel = false
	cfg.Seeds = nil // book seeding happens once at the engine root
	return cfg.stripSeed()
}
