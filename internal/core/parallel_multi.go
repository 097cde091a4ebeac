package core

import (
	"context"
	"sync"
	"time"

	"isex/internal/dfg"
)

// findBestCutsParallel is FindBestCutsCtx on the work-stealing engine
// (Config.Workers > 0). The shared incumbent bound runs exactly when
// PruneMerit is set (like the serial multi search, so that Stats stay
// identical to serial in the default unpruned configuration); splitting
// and deterministic merging work exactly as in the single-cut engine,
// with decision k (join cut k) in place of decision 1.
func findBestCutsParallel(ctx context.Context, g *dfg.Graph, m int, cfg Config) MultiResult {
	if m > 255 {
		// Prefix decisions are uint8; identification never needs hundreds
		// of simultaneous cuts, so just run serially.
		cfg.Workers = 0
		return FindBestCutsCtx(ctx, g, m, cfg)
	}
	if err := ctx.Err(); err != nil {
		return MultiResult{Status: statusOfCtx(err), Stats: Stats{Aborted: true}}
	}

	nw := cfg.Workers
	e := newBBEngine(ctx, nw, len(g.OpOrder), cfg.MaxCuts, cfg.PruneMerit)
	e.probe = cfg.Probe
	e.push(0, []bbSub{{prefix: []uint8{}}})

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
			runLabeled(ctx, cfg.Probe, "multi", w, func() {
				e.runMultiWorker(w, g, m, wcfg, &outs[w], &statsArr[w])
			})
		}(w)
	}
	wg.Wait()
	stopWatch()
	engineWorkers(cfg.Probe, -nw)

	var best bbBest
	for w := range outs {
		best.better(outs[w])
	}
	res := MultiResult{Status: e.finalStatus(), Err: e.finalErr()}
	for w := range statsArr {
		res.Stats.add(statsArr[w])
	}
	res.Stats.Aborted = res.Status != Exhaustive
	if best.found {
		res.Found = true
		fillMultiResult(&res, g, best.cuts, cfg.model())
	}
	return res
}

// attachMulti wires a worker's private multi searcher to the engine
// (telemetry handling as in attachSingle).
func (e *bbEngine) attachMulti(s *multiSearcher, wid int) {
	s.eng = e
	s.ctx = e.ctx
	s.wid = wid
	if s.obs == nil {
		s.obs = e.probe.Attach()
	}
	e.wobs[wid] = s.obs
	s.path = make([]uint8, len(s.order))
	s.donated = make([]bool, len(s.order))
}

// runMultiWorker is runSingleWorker for the multi-cut tree: same retry
// loop with doubling backoff around panicked subproblems, same searcher
// rebuild carrying the telemetry ring and counters across attempts.
func (e *bbEngine) runMultiWorker(wid int, g *dfg.Graph, m int, cfg Config, out *bbBest, stats *Stats) {
	holding := false
	defer func() {
		if r := recover(); r != nil {
			e.workerAbort(holding, r)
		}
	}()
	rebuild := func(s *multiSearcher) *multiSearcher {
		ns := newMultiSearcher(g, m, cfg)
		ns.obs = s.obs // keep the ring and its flush marks
		ns.boundCuts = s.boundCuts
		e.attachMulti(ns, wid)
		ns.stats = s.stats
		ns.tick = s.tick
		ns.flushMark = s.flushMark
		ns.sharedCache = s.sharedCache
		return ns
	}
	s := newMultiSearcher(g, m, cfg)
	e.attachMulti(s, wid)
	for {
		sub, expand, ok := e.take(wid)
		if !ok {
			break
		}
		holding = true
		e.holding[wid].Store(true)
		for attempt := 0; ; attempt++ {
			if e.runOneMulti(s, sub, expand, out, attempt) {
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

// runOneMulti executes one subproblem, mirroring runOneSingle (panic
// containment with retry by the caller; watchdog stall requeue).
func (e *bbEngine) runOneMulti(s *multiSearcher, sub bbSub, expand bool, out *bbBest, attempt int) (ok bool) {
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
	if sub.seeded {
		s.seedThreshold(sub.seed)
	} else {
		s.bestFound = false
		s.bestMerit = 0
		s.bestCuts = nil
	}
	s.stop = Exhaustive
	if expand {
		if children := e.expandMulti(s, sub, out); len(children) > 0 {
			if s.obs != nil {
				s.obs.Resplit(len(sub.prefix), len(children))
			}
			e.push(s.wid, children)
		}
	} else {
		s.poll()
		s.visit(s.base)
		if s.bestCuts != nil {
			out.better(bbBest{found: true, merit: s.bestMerit, cuts: s.bestCuts, key: sub.prefix})
		}
	}
	if s.stop == Stalled {
		// Watchdog abort: requeue the whole subproblem (see runOneSingle;
		// the local best was merged above and seeds the requeue).
		e.forceDonate(s.wid, sub.prefix, s.bestMerit, s.bestFound)
		e.clearAbort(s.wid)
	} else if s.stop != Exhaustive {
		e.halt(s.stop)
	}
	s.unreplay()
	return true
}

// expandMulti mirrors exactly one multi visit level at the subproblem's
// rank: the (M+1)-ary branching with symmetry breaking, same counters,
// same candidate recording. The 0-child needs no feasibility guard (the
// serial 0-branch recurses unconditionally), so its reach update is left
// to the child's own replay.
func (e *bbEngine) expandMulti(s *multiSearcher, sub bbSub, out *bbBest) []bbSub {
	d := len(sub.prefix)
	if s.cfg.PruneMerit {
		ub := s.totalMerit() + s.futSW[d]*s.freq
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
		maxK := s.maxOpenCut()
		for k := 1; k <= maxK; k++ {
			s.stats.CutsConsidered++
			convOK := s.convexOKFor(node, k)
			u := s.applyAssign(d, id, node, k)
			if convOK && s.out[k] <= s.cfg.Nout {
				s.stats.Passed++
				key := childKey(sub.prefix, uint8(k))
				m0, f0 := s.bestMerit, s.bestFound
				s.maybeRecord()
				if s.bestCuts != nil && (!f0 || s.bestMerit > m0) {
					out.better(bbBest{found: true, merit: s.bestMerit, cuts: s.bestCuts, key: key})
				}
				children = append(children, bbSub{prefix: key, seed: s.bestMerit, seeded: s.bestFound})
			} else {
				s.stats.Pruned++
				if s.obs != nil {
					s.obs.Pruned(d)
				}
			}
			s.undoAssign(d, id, node, k, u)
		}
	}
	children = append(children, bbSub{prefix: childKey(sub.prefix, 0), seed: s.bestMerit, seeded: s.bestFound})
	return children
}

// tryDonate is the multi-cut analog of searcher.tryDonate: donate the
// 0-branch of the shallowest live frame currently inside a k-subtree.
// Only the 0-branch is donated — the remaining k-siblings stay with the
// owner — which is enough: the 0-subtree is the bulk of every frame.
func (s *multiSearcher) tryDonate() {
	for r := s.base; r < s.curRank; r++ {
		if s.path[r] != 0 && !s.donated[r] {
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
