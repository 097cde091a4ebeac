package core

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"isex/internal/dfg"
	"isex/internal/obs"
)

// findBestCutParallel is FindBestCutCtx on the work-stealing engine
// (Config.Workers > 0). A completed run returns the bit-identical result
// of the serial search; see the package comment in parallel.go.
func findBestCutParallel(ctx context.Context, g *dfg.Graph, cfg Config) Result {
	// Warm start: with PruneMerit the shared bound is only as good as the
	// incumbent, so the engine always warm-starts when pruning is on;
	// WarmStart forces it for the unpruned search too. As on the serial
	// path, the warm pass is charged against neither MaxCuts nor Stats.
	// A seed-book seed (withSeed) forms the initial base exactly as the
	// serial path's seedIncumbent call, and — also mirroring it — a warm
	// result displaces the seed only when strictly better.
	var base bbBest
	if cfg.seedOn && cfg.seedMerit > 0 && len(cfg.seedCut) > 0 {
		base = bbBest{found: true, merit: cfg.seedMerit, cut: append(dfg.Cut(nil), cfg.seedCut...), base: true}
	}
	if (cfg.PruneMerit || cfg.WarmStart) && g.NumOps() > warmWindow {
		w := findWarmIncumbent(ctx, g, cfg)
		if w.Found && (!base.found || w.Est.Merit > base.merit) {
			base = bbBest{found: true, merit: w.Est.Merit, cut: w.Cut, base: true}
			cfg.Probe.WarmSeed(w.Est.Merit)
		}
		if w.Status != Exhaustive {
			res := Result{Status: w.Status}
			res.Stats.Aborted = true
			if base.found {
				res.Found = true
				res.Cut = base.cut.Canon()
				res.Est = Evaluate(g, res.Cut, cfg.model())
			}
			return res
		}
	}
	if err := ctx.Err(); err != nil {
		res := Result{Status: statusOfCtx(err)}
		res.Stats.Aborted = true
		if base.found {
			res.Found = true
			res.Cut = base.cut.Canon()
			res.Est = Evaluate(g, res.Cut, cfg.model())
		}
		return res
	}
	if cfg.race != nil {
		// Satellite exchange with the iterative racer: the warm/seed cut
		// warms its restarts, and anything it has already proven achievable
		// tightens the engine's base exactly like a warm cut (racer merits
		// are Legal/Evaluate revalidated, so the seeding stays
		// result-preserving).
		if base.found {
			cfg.race.donate(base.cut)
		}
		if inc, ok := cfg.race.incumbentResult(); ok && (!base.found || inc.Est.Merit > base.merit) {
			base = bbBest{found: true, merit: inc.Est.Merit, cut: append(dfg.Cut(nil), inc.Cut...), base: true}
		}
	}

	nw := cfg.Workers
	e := newBBEngine(ctx, nw, len(g.OpOrder), cfg.MaxCuts, cfg.PruneMerit)
	e.probe = cfg.Probe
	root := bbSub{prefix: []uint8{}}
	if base.found {
		// Seed the recording threshold one unit below the warm merit, and
		// the (strict-comparison) pruning bound at the warm merit itself:
		// cuts tying the warm incumbent are still reached and recorded, so
		// the DFS-first optimum wins exactly as in the serial search.
		root.seed = base.merit - 1
		root.seeded = true
		if e.sharedOn {
			e.shared.Store(base.merit)
		}
	}
	e.push(0, []bbSub{root})

	wcfg := workerConfig(cfg)
	outs := make([]bbBest, nw)
	statsArr := make([]Stats, nw)
	engineWorkers(cfg.Probe, nw)
	stopWatch := e.watch(cfg.StallWindow)
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runLabeled(ctx, cfg.Probe, "single", w, func() {
				e.runSingleWorker(w, g, wcfg, &outs[w], &statsArr[w])
			})
		}(w)
	}
	wg.Wait()
	stopWatch()
	engineWorkers(cfg.Probe, -nw)

	best := base
	for w := range outs {
		best.better(outs[w])
	}
	res := Result{Status: e.finalStatus(), Err: e.finalErr()}
	for w := range statsArr {
		res.Stats.add(statsArr[w])
	}
	res.Stats.Aborted = res.Status != Exhaustive
	if best.found {
		res.Found = true
		res.Cut = best.cut.Canon()
		res.Est = Evaluate(g, res.Cut, cfg.model())
	}
	return res
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

// attachSingle wires a worker's private searcher to the engine and
// allocates the donation bookkeeping (path / zeroOK / donated, indexed
// by rank; see tryDonate). The searcher keeps an already-attached
// telemetry ring (rebuild after a recovered panic); otherwise it gets
// its own, and either way the engine learns it for steal events.
func (e *bbEngine) attachSingle(s *searcher, wid int) {
	s.eng = e
	s.ctx = e.ctx
	s.wid = wid
	if s.obs == nil {
		s.obs = e.probe.Attach()
	}
	e.wobs[wid] = s.obs
	s.path = make([]uint8, len(s.order))
	s.zeroOK = make([]bool, len(s.order))
	s.donated = make([]bool, len(s.order))
}

// runSingleWorker is one worker's life: pop (or steal) subproblems until
// the engine stops or the work is exhausted. The searcher clone persists
// across subproblems — replay/unreplay keep it clean — and is rebuilt
// (carrying its counters) if a recovered panic left it unreliable; a
// panicked subproblem is retried up to bbSubRetries times with doubling
// backoff before its loss is accepted as Recovered (replay makes the
// retry produce exactly what the first attempt would have).
func (e *bbEngine) runSingleWorker(wid int, g *dfg.Graph, cfg Config, out *bbBest, stats *Stats) {
	holding := false
	defer func() {
		if r := recover(); r != nil {
			e.workerAbort(holding, r)
		}
	}()
	rebuild := func(s *searcher) *searcher {
		ns := newSearcher(g, cfg)
		ns.obs = s.obs // keep the ring and its flush marks
		ns.boundCuts = s.boundCuts
		e.attachSingle(ns, wid)
		ns.stats = s.stats
		ns.tick = s.tick
		ns.flushMark = s.flushMark
		ns.sharedCache = s.sharedCache
		return ns
	}
	s := newSearcher(g, cfg)
	e.attachSingle(s, wid)
	for {
		sub, expand, ok := e.take(wid)
		if !ok {
			break
		}
		holding = true
		e.holding[wid].Store(true)
		for attempt := 0; ; attempt++ {
			if e.runOneSingle(s, sub, expand, out, attempt) {
				break
			}
			s = rebuild(s)
			if attempt >= bbSubRetries {
				e.note(Recovered)
				break
			}
			e.countRetry()
			time.Sleep(bbRetryBackoff << attempt)
		}
		e.holding[wid].Store(false)
		e.release()
		holding = false
	}
	s.flushObs()
	*stats = s.stats
}

// runOneSingle executes one subproblem on worker searcher s. A panic is
// contained to the subproblem (ok=false): the panic is recorded, the
// caller rebuilds the searcher and retries; only when the retries are
// exhausted does the caller note Recovered. A watchdog stall abort
// (stop == Stalled) requeues the whole subproblem for the other workers
// instead of halting the engine.
func (e *bbEngine) runOneSingle(s *searcher, sub bbSub, expand bool, out *bbBest, attempt int) (ok bool) {
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
	s.replay(sub.prefix)
	s.base = len(sub.prefix)
	s.curRank = s.base
	s.bestFound = sub.seeded
	s.bestMerit = 0
	if sub.seeded {
		s.bestMerit = sub.seed
	}
	s.bestCut = nil
	s.stop = Exhaustive
	if expand {
		if children := e.expandSingle(s, sub, out); len(children) > 0 {
			if s.obs != nil {
				s.obs.Resplit(len(sub.prefix), len(children))
			}
			e.push(s.wid, children)
		}
	} else {
		s.poll()
		s.visit(s.base)
		if s.bestCut != nil {
			out.better(bbBest{found: true, merit: s.bestMerit, cut: s.bestCut, key: sub.prefix})
		}
	}
	if s.stop == Stalled {
		// Watchdog abort: requeue the whole subproblem for the other
		// workers instead of halting. The already-searched part is
		// re-explored, which the idempotent result merge makes sound
		// (the local best found so far was merged above and travels as
		// the requeue's recording seed, so no solution is lost and no
		// worse one can displace it); Stalled was already noted by the
		// watchdog, so the final status stays honest.
		e.forceDonate(s.wid, sub.prefix, s.bestMerit, s.bestFound)
		e.clearAbort(s.wid)
	} else if s.stop != Exhaustive {
		e.halt(s.stop)
	}
	s.unreplay()
	return true
}

// expandSingle mirrors exactly one visit level at the subproblem's rank:
// same counters, same feasibility guards, same candidate recording (the
// serial search records a cut when its last node is included — before
// descending — so the record belongs to this level, keyed prefix+[1]).
// Children are returned in DFS order with the level's running-best merit
// as their recording seed.
func (e *bbEngine) expandSingle(s *searcher, sub bbSub, out *bbBest) []bbSub {
	d := len(sub.prefix)
	if s.cfg.PruneMerit {
		ub := s.meritUB(d)
		if (s.bestFound && ub <= s.bestMerit) || ub < s.sharedCache {
			if s.obs != nil {
				s.boundCuts++
				s.obs.Bound(d, s.bestMerit)
			}
			return nil
		}
	}
	id := s.order[d]
	node := &s.g.Nodes[id]
	var children []bbSub
	if !node.Forbidden {
		s.stats.CutsConsidered++
		convOK := s.convexOK(node)
		u := s.applyInclude(id, node)
		if convOK && s.out <= s.cfg.Nout {
			s.stats.Passed++
			key := childKey(sub.prefix, 1)
			if s.inputs <= s.cfg.Nin {
				m0, f0 := s.bestMerit, s.bestFound
				s.record()
				if s.bestCut != nil && (!f0 || s.bestMerit > m0) {
					out.better(bbBest{found: true, merit: s.bestMerit, cut: s.bestCut, key: key})
				}
			}
			if !s.cfg.PruneInputs || s.permIn <= s.cfg.Nin {
				children = append(children, bbSub{prefix: key, seed: s.bestMerit, seeded: s.bestFound})
			}
		} else {
			s.stats.Pruned++
			if s.obs != nil {
				s.obs.Pruned(d)
			}
		}
		s.undoInclude(id, node, u)
	}
	exclPermIn := s.applyExclude(id, node)
	if !s.cfg.PruneInputs || s.permIn <= s.cfg.Nin {
		children = append(children, bbSub{prefix: childKey(sub.prefix, 0), seed: s.bestMerit, seeded: s.bestFound})
	}
	s.undoExclude(id, exclPermIn)
	return children
}

// tryDonate re-splits the running subtree: the shallowest live ancestor
// frame whose 0-branch is still pending (path[r] == 1) and would pass
// the serial search's PruneInputs guard (zeroOK) is handed to the engine
// as a fresh subproblem, and the frame skips that branch on unwind
// (donated). The donated seed is the worker's current local best — the
// merit of a DFS-earlier record — which can never suppress the DFS-first
// record of the maximum merit, so determinism is preserved; the shared
// bound is deliberately not used as a seed, because it may hold a merit
// from a DFS-*later* position.
func (s *searcher) tryDonate() {
	for r := s.base; r < s.curRank; r++ {
		if s.path[r] == 1 && !s.donated[r] && s.zeroOK[r] {
			pfx := make([]uint8, r+1)
			copy(pfx, s.path[:r])
			pfx[r] = 0
			if s.eng.donate(s.wid, pfx, s.bestMerit, s.bestFound) {
				s.donated[r] = true
				if s.obs != nil {
					s.obs.Donate(r)
				}
			}
			return
		}
	}
}
