package core

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"context"

	"isex/internal/dfg"
	"isex/internal/greedy"
	"isex/internal/latency"
)

// This file is the ISEGEN-style iterative engine (Biswas et al.): a
// Kernighan–Lin toggle search over node membership that races the exact
// §6.1 branch-and-bound inside the anytime layer (Config.ISEGen).
//
// The racer runs as one extra goroutine per block search, on its own
// full Restrict view of the block graph (shared immutable kernel tables,
// private scratch — the same isolation contract the engine workers use).
// Every candidate flip is scored with dfg.Toggle's incremental IN/OUT/
// convexity deltas — O(deg + V/64) word operations, no full Legal
// recomputation — and only port-feasible, convex states are evaluated
// for true merit. Before publication every incumbent is revalidated with
// Legal and Evaluate on the racer's view, so a published merit is always
// achievable and therefore a sound lower bound of the optimum:
//
//   - The exact search folds the racer's CAS-max bound into its
//     PruneMerit shared-bound cache at poll cadence (searcher.poll).
//     Pruning is strictly `ub < bound`, and recording thresholds are
//     never touched, so — exactly as with the PR 3 shared incumbent
//     bound — a terminating exact search returns the bit-identical
//     DFS-first optimum; only Stats can shrink.
//   - The anytime ladder adopts the racer's best answer only when the
//     exact search did NOT terminate (RungIterative, between the
//     windowed rescue and the greedy last resort). Exact completion
//     always overrides with the proven optimum.
//
// Multi-restart: the racer seeds its KL passes from the linear-time
// greedy candidates, from cuts donated by the exact side's §9 windowed
// warm pass (satellite: the two rungs share instead of recomputing), and
// from seeded random perturbations of its own best. Within a pass each
// node may flip once (lock/tabu rule); the pass accepts the best-gain
// flip even when negative — the KL hill-descending step — and the best
// feasible state seen anywhere in the pass is kept.

// racerHandle connects one block search to its racer goroutine. It is
// carried package-internally on Config (Config.race) so the serial
// searcher, the engine workers (workerConfig preserves it) and the
// warm-start path all see the same bound without new plumbing.
type racerHandle struct {
	tag string

	// bound is the racer's published achievable-merit lower bound,
	// CAS-max monotone. math.MinInt64 until the first publication, so an
	// idle racer never influences pruning.
	bound atomic.Int64

	mu     sync.Mutex
	found  bool
	cut    dfg.Cut
	est    Estimate
	seeds  []dfg.Cut // donated warm seeds, consumed LIFO
	failed error     // recovered racer panic, surfaced in BlockStatus.Err

	wake chan struct{} // nudges a parked racer when a seed arrives
	stop chan struct{} // closed by halt()
	done chan struct{} // closed when the racer goroutine exits

	stopOnce sync.Once
}

func newRacerHandle(tag string) *racerHandle {
	rh := &racerHandle{
		tag:  tag,
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	rh.bound.Store(math.MinInt64)
	return rh
}

// boundLoad returns the current published bound (MinInt64 when none).
func (rh *racerHandle) boundLoad() int64 { return rh.bound.Load() }

// publish installs a revalidated incumbent: the bound rises CAS-max and
// the witness is kept when strictly better. Returns whether the witness
// improved.
func (rh *racerHandle) publish(cut dfg.Cut, est Estimate) bool {
	for {
		cur := rh.bound.Load()
		if est.Merit <= cur {
			break
		}
		if rh.bound.CompareAndSwap(cur, est.Merit) {
			break
		}
	}
	rh.mu.Lock()
	defer rh.mu.Unlock()
	if rh.found && est.Merit <= rh.est.Merit {
		return false
	}
	rh.found = true
	rh.cut = append(dfg.Cut(nil), cut...)
	rh.est = est
	return true
}

// best returns a copy of the racer's best published answer.
func (rh *racerHandle) best() (dfg.Cut, Estimate, bool) {
	rh.mu.Lock()
	defer rh.mu.Unlock()
	if !rh.found {
		return nil, Estimate{}, false
	}
	return append(dfg.Cut(nil), rh.cut...), rh.est, true
}

// incumbentResult adapts best() to the Result shape seedIncumbent wants,
// for the exact side's warm start (best of windowed vs. racer).
func (rh *racerHandle) incumbentResult() (Result, bool) {
	cut, est, ok := rh.best()
	if !ok || est.Merit <= 0 {
		return Result{}, false
	}
	return Result{Found: true, Cut: cut, Est: est}, true
}

// donate hands the racer a warm restart seed (e.g. the §9 windowed warm
// cut the exact side just computed). Safe from any goroutine.
func (rh *racerHandle) donate(cut dfg.Cut) {
	if len(cut) == 0 {
		return
	}
	rh.mu.Lock()
	rh.seeds = append(rh.seeds, append(dfg.Cut(nil), cut...))
	rh.mu.Unlock()
	select {
	case rh.wake <- struct{}{}:
	default:
	}
}

// takeSeed pops a donated seed, newest first.
func (rh *racerHandle) takeSeed() (dfg.Cut, bool) {
	rh.mu.Lock()
	defer rh.mu.Unlock()
	if n := len(rh.seeds); n > 0 {
		c := rh.seeds[n-1]
		rh.seeds = rh.seeds[:n-1]
		return c, true
	}
	return nil, false
}

// fail records a recovered racer panic.
func (rh *racerHandle) fail(err error) {
	rh.mu.Lock()
	if rh.failed == nil {
		rh.failed = err
	}
	rh.mu.Unlock()
}

// failure returns the recovered racer panic, if any.
func (rh *racerHandle) failure() error {
	rh.mu.Lock()
	defer rh.mu.Unlock()
	return rh.failed
}

// halt asks the racer to stop and waits for its goroutine to exit (the
// KL loop polls the stop channel every flip, so the wait is short).
// Idempotent.
func (rh *racerHandle) halt() {
	rh.stopOnce.Do(func() { close(rh.stop) })
	<-rh.done
}

// startRacer launches the KL racer for one block search and returns its
// handle. The caller must eventually call halt().
func startRacer(ctx context.Context, g *dfg.Graph, cfg Config, tag string) *racerHandle {
	rh := newRacerHandle(tag)
	go runRacer(ctx, g, cfg, rh)
	return rh
}

// raceISEGen launches the iterative racer for one block search when the
// config and block qualify: ISEGen is on, the search is not already the
// windowed heuristic, and the block is large enough that the exact
// search can realistically explode (the same threshold that arms the §9
// windowed rescue). Returns nil when the block does not qualify.
func raceISEGen(ctx context.Context, g *dfg.Graph, cfg Config, tag string) *racerHandle {
	if !cfg.ISEGen || cfg.Window != 0 || g.NumOps() <= fallbackWindow {
		return nil
	}
	return startRacer(ctx, g, cfg, tag)
}

// settle halts the racer and folds its outcome into the block status: a
// recovered racer panic degrades the status to Recovered unless the
// exact search terminated (the proven optimum stands — the error is
// still surfaced), RacerMerit records the best published merit, and the
// gap against the proven optimum (`proven`, valid when provenOK) is
// measured on terminating blocks. The returned cut is the adoption
// candidate: non-nil only when the exact search did NOT terminate and
// the racer's best revalidates as Legal here and now.
func (rh *racerHandle) settle(g *dfg.Graph, cfg Config, bs *BlockStatus, proven int64, provenOK bool) (dfg.Cut, Estimate, bool) {
	rh.halt()
	if err := rh.failure(); err != nil {
		if bs.Err == nil {
			bs.Err = err
		}
		if bs.Status != Exhaustive {
			bs.Status = worse(bs.Status, Recovered)
		}
	}
	cut, est, ok := rh.best()
	if !ok {
		return nil, Estimate{}, false
	}
	bs.RacerMerit = est.Merit
	if bs.Status == Exhaustive {
		if provenOK && proven > 0 {
			bs.GapKnown = true
			bs.Gap = float64(proven-est.Merit) / float64(proven)
		}
		return nil, Estimate{}, false // the proven optimum stands
	}
	if !legalCut(g, cut, cfg.Nin, cfg.Nout) {
		return nil, Estimate{}, false
	}
	return cut, est, true
}

// racerStaleLimit is how many consecutive improvement-free restarts the
// racer tolerates before parking (it wakes again on a donated seed).
const racerStaleLimit = 24

// runRacer is the racer goroutine body. Panics — including faults
// injected at the new probe sites — are recovered here: the racer is a
// plain goroutine, so an escape would crash the process. The failure is
// surfaced through the handle and folded into BlockStatus.Err by the
// anytime layer; the exact search is unaffected.
func runRacer(ctx context.Context, g *dfg.Graph, cfg Config, rh *racerHandle) {
	defer close(rh.done)
	defer func() {
		if r := recover(); r != nil {
			rh.fail(panicErr(rh.tag+" (racer)", r))
			cfg.Probe.Panic(rh.tag+" (racer)", panicMsg(r), 0)
		}
	}()

	// A private full view: shared immutable kernel tables, private
	// scratch, so Legal/Evaluate here never race the exact search's
	// queries on the original graph.
	view := g.Restrict(0, g.NumOps())
	k := newKLEngine(view, cfg)
	done := ctx.Done()
	alive := func() bool {
		select {
		case <-rh.stop:
			return false
		case <-done:
			return false
		default:
			return true
		}
	}

	// Initial seed queue: the linear-time greedy candidates, best merit
	// first — published immediately once revalidated, so the exact side
	// has a bound long before the first KL pass converges.
	seeds := k.greedySeeds()
	rng := rand.New(rand.NewSource(0x15E6E9)) // deterministic perturbations
	restart, stale := 0, 0
	var flushed int64
	flush := func() {
		cfg.Probe.RacerToggles(k.toggles-flushed, k.toggles)
		flushed = k.toggles
	}
	defer flush()

	for alive() {
		var seed dfg.Cut
		if s, ok := rh.takeSeed(); ok {
			seed = s
		} else if len(seeds) > 0 {
			seed, seeds = seeds[0], seeds[1:]
		} else if cut, _, ok := rh.best(); ok && restart%3 != 2 {
			seed = k.perturb(rng, cut)
		} else {
			// Every third restart diversifies from a random convex region
			// instead of kicking the incumbent — perturbations alone keep
			// circling the basin the greedy seeds share.
			seed = k.randomSeed(rng)
		}

		seedMerit := int64(-1)
		if est, ok := k.revalidate(seed); ok {
			seedMerit = est.Merit
			if rh.publish(seed, est) {
				cfg.Probe.RacerPublish(rh.tag, est.Merit, restart, len(seed))
			}
		}
		cfg.Probe.RacerRestart(rh.tag, restart, seedMerit, len(seed))

		cut, est, improved := k.climb(seed, alive)
		if improved {
			if got, ok := k.revalidate(cut); ok && got.Merit == est.Merit {
				if rh.publish(cut, got) {
					cfg.Probe.RacerPublish(rh.tag, got.Merit, restart, len(cut))
					stale = 0
				} else {
					stale++
				}
			} else {
				stale++ // revalidation refused the cut; never publish it
			}
		} else {
			stale++
		}
		flush()
		restart++

		if stale > racerStaleLimit && len(seeds) == 0 {
			// Converged; park until a seed arrives or the search ends.
			select {
			case <-rh.stop:
				return
			case <-done:
				return
			case <-rh.wake:
				stale = 0
			}
		}
	}
}

// klEngine is the per-racer Kernighan–Lin state over one graph view.
type klEngine struct {
	g      *dfg.Graph
	cfg    Config
	model  *latency.Model
	tog    *dfg.Toggle
	cand   []int   // flippable node IDs, in search (OpOrder) order
	isCand []bool  // candidate membership, indexed by node ID
	sw     []int64 // per-node software latency, indexed by node ID
	freq   int64
	// penalty converts one unit of port violation into score units large
	// enough that reducing a violation always beats any latency gain.
	penalty int64
	locked  []bool // per-pass tabu locks, indexed by node ID
	toggles int64  // applied flips, flushed to the probe by the racer
}

func newKLEngine(view *dfg.Graph, cfg Config) *klEngine {
	m := cfg.model()
	k := &klEngine{
		g:      view,
		cfg:    cfg,
		model:  m,
		tog:    dfg.NewToggle(view),
		sw:     make([]int64, len(view.Nodes)),
		isCand: make([]bool, len(view.Nodes)),
		freq:   weight(view.Block.Freq),
		locked: make([]bool, len(view.Nodes)),
	}
	var total int64
	for _, id := range view.OpOrder {
		n := &view.Nodes[id]
		k.sw[id] = int64(m.SW(n.Op))
		if !n.Forbidden {
			k.cand = append(k.cand, id)
			k.isCand[id] = true
			total += k.sw[id]
		}
	}
	k.penalty = (total + 1) * k.freq
	return k
}

// violDelta is the port-violation change of a flip whose IN/OUT deltas
// are din/dout at the current (in, out) counts.
func (k *klEngine) violDelta(in, out, din, dout int) int64 {
	over := func(v, lim int) int64 {
		if v > lim {
			return int64(v - lim)
		}
		return 0
	}
	return over(in+din, k.cfg.Nin) - over(in, k.cfg.Nin) +
		over(out+dout, k.cfg.Nout) - over(out, k.cfg.Nout)
}

// revalidate is the publication gate: the cut must be Legal under the
// configured ports on the racer's view and have positive Evaluate merit.
func (k *klEngine) revalidate(c dfg.Cut) (Estimate, bool) {
	if len(c) == 0 || !k.g.Legal(c, k.cfg.Nin, k.cfg.Nout) {
		return Estimate{}, false
	}
	est := Evaluate(k.g, c, k.model)
	if est.Merit <= 0 {
		return Estimate{}, false
	}
	return est, true
}

// greedySeeds screens the clubbing and MaxMISO decompositions into a
// deterministic best-merit-first seed list (plus the empty seed).
func (k *klEngine) greedySeeds() []dfg.Cut {
	list := greedy.Clubbing(k.g, k.cfg.Nin, k.cfg.Nout)
	list = append(list, greedy.MaxMISODecompose(k.g)...)
	type scored struct {
		cut   dfg.Cut
		merit int64
	}
	var ok []scored
	var over []dfg.Cut
	for _, c := range list {
		if est, valid := k.revalidate(c); valid {
			ok = append(ok, scored{c, est.Merit})
		} else if len(c) > 0 {
			// Over-budget decompositions (typically MaxMISO cones wider than
			// the ports) are kept as seeds: climb trims them down to their
			// feasible core, which can be an optimum no legal seed reaches.
			over = append(over, c)
		}
	}
	// Stable selection sort by descending merit (ties keep list order) —
	// the list is tiny and determinism matters more than asymptotics.
	out := make([]dfg.Cut, 0, len(ok)+len(over)+1)
	for len(ok) > 0 {
		bi := 0
		for i := 1; i < len(ok); i++ {
			if ok[i].merit > ok[bi].merit {
				bi = i
			}
		}
		out = append(out, ok[bi].cut)
		ok = append(ok[:bi], ok[bi+1:]...)
	}
	// Largest cones first: a bigger decomposition carries a richer
	// feasible core for trim to uncover.
	for i := 0; i < len(over); i++ {
		bi := i
		for j := i + 1; j < len(over); j++ {
			if len(over[j]) > len(over[bi]) {
				bi = j
			}
		}
		over[i], over[bi] = over[bi], over[i]
	}
	// Splice the cones in right after the strongest legal seeds: the long
	// tail of weak clubbing seeds rarely moves the bound, and the cones'
	// trimmed cores are where the racer's headline quality comes from —
	// they should be climbed before the exact search gets far.
	head := 3
	if head > len(out) {
		head = len(out)
	}
	merged := make([]dfg.Cut, 0, len(out)+len(over)+1)
	merged = append(merged, out[:head]...)
	merged = append(merged, over...)
	merged = append(merged, out[head:]...)
	return append(merged, nil)
}

// perturb derives a restart seed from the racer's best cut: a seeded
// random subset of convexity-preserving removals, biased to keep about
// two thirds of the members.
func (k *klEngine) perturb(rng *rand.Rand, cut dfg.Cut) dfg.Cut {
	if len(cut) == 0 {
		return nil
	}
	k.tog.Load(cut)
	drops := 1 + rng.Intn((len(cut)+2)/3)
	for i := 0; i < drops; i++ {
		m := k.tog.Members()
		if len(m) == 0 {
			break
		}
		v := m[rng.Intn(len(m))]
		if _, _, convex := k.tog.RemoveDelta(v); convex {
			k.tog.Remove(v)
		}
	}
	return k.tog.Members()
}

// randomSeed grows a random convex region around a random candidate node
// — the diversification restart ISEGEN pairs with its perturbation kicks.
// Restarting only from kicks of the incumbent keeps the search circling
// one basin; a fresh region can reach optima none of the greedy seeds are
// connected to.
func (k *klEngine) randomSeed(rng *rand.Rand) dfg.Cut {
	if len(k.cand) == 0 {
		return nil
	}
	k.tog.Load(nil)
	k.tog.Add(k.cand[rng.Intn(len(k.cand))])
	want := 2 + rng.Intn(10)
	for tries := 0; k.tog.Size() < want && tries < 4*want; tries++ {
		v := k.cand[rng.Intn(len(k.cand))]
		if k.tog.Has(v) {
			continue
		}
		if _, _, convex := k.tog.AddDelta(v); convex {
			k.tog.Add(v)
		}
	}
	return k.tog.Members()
}

// climb runs KL passes from seed until a pass yields no improvement (or
// alive() reports a stop), returning the best feasible state found and
// whether it improved on the seed. The membership stays convex
// throughout; port constraints are soft (penalized) so the search can
// traverse infeasible saddle states, exactly as in ISEGEN.
func (k *klEngine) climb(seed dfg.Cut, alive func() bool) (dfg.Cut, Estimate, bool) {
	k.tog.Load(seed)
	if k.tog.In() > k.cfg.Nin || k.tog.Out() > k.cfg.Nout {
		k.trim()
	}
	var best dfg.Cut
	var bestEst Estimate
	found := false
	if est, ok := k.feasibleEval(); ok {
		best, bestEst, found = k.tog.Members(), est, true
	}
	improvedOverall := false
	for alive() {
		improved := k.pass(alive, &best, &bestEst, &found)
		if !improved {
			// The pass converged; try the bounded valley-crossing move
			// before giving up — a short chain extension the myopic
			// best-gain flip cannot take in one step. The pass left the
			// toggle wherever its trajectory ended, so restore the best
			// state first: that is what is worth extending.
			if found {
				k.tog.Load(best)
			}
			if found && k.deepen(&best, &bestEst, alive) {
				improvedOverall = true
				k.tog.Load(best)
				continue
			}
			break
		}
		improvedOverall = true
		// Classic KL: the next pass restarts from the best state of the
		// previous one.
		k.tog.Load(best)
	}
	return best, bestEst, improvedOverall
}

// deepen crosses short infeasible valleys the per-step pass is blind to:
// for every absent candidate it speculatively adds the node plus up to
// three violation-reducing followers, keeps the extension when the result
// is feasible and strictly better, and rolls it back otherwise. This is
// what completes a 2–3 node input chain whose intermediate states are all
// over the port budget (the pass would need three consecutive penalized
// flips to get there and never takes them).
func (k *klEngine) deepen(best *dfg.Cut, bestEst *Estimate, alive func() bool) bool {
	improved := false
	for _, v := range k.cand {
		if !alive() {
			break
		}
		if k.tog.Has(v) {
			continue
		}
		if _, _, convex := k.tog.AddDelta(v); !convex {
			continue
		}
		var added []int
		k.tog.Add(v)
		k.toggles++
		added = append(added, v)
		// Follow the chain: absorb producers/consumers of what was just
		// added, taking the least-violating neighbor each step. Neutral
		// steps are allowed — the middle of a chain leaves the port counts
		// unchanged and only the final absorption pays off.
		for steps := 0; steps < 3 && (k.tog.In() > k.cfg.Nin || k.tog.Out() > k.cfg.Nout); steps++ {
			in, out := k.tog.In(), k.tog.Out()
			bu := -1
			var bviol int64
			consider := func(u int) {
				if u >= len(k.isCand) || !k.isCand[u] || k.tog.Has(u) {
					return
				}
				din, dout, convex := k.tog.AddDelta(u)
				if !convex {
					return
				}
				if viol := k.violDelta(in, out, din, dout); bu < 0 || viol < bviol {
					bu, bviol = u, viol
				}
			}
			for _, w := range added {
				for _, u := range k.g.Nodes[w].Preds {
					consider(u)
				}
				for _, u := range k.g.Nodes[w].Succs {
					consider(u)
				}
			}
			if bu < 0 || bviol > 0 {
				break // every neighbor would dig the hole deeper
			}
			k.tog.Add(bu)
			k.toggles++
			added = append(added, bu)
		}
		if est, ok := k.feasibleEval(); ok && est.Merit > bestEst.Merit {
			*best, *bestEst = k.tog.Members(), est
			improved = true
			continue // keep the extension and grow from here
		}
		for i := len(added) - 1; i >= 0; i-- {
			k.tog.Remove(added[i])
		}
	}
	return improved
}

// trim monotonically removes members from an infeasible membership until
// it turns port-feasible or empties: each step applies the convex removal
// with the smallest resulting violation, ties broken toward the cheapest
// latency loss and then toward the membership order (determinism). A
// MaxMISO cone one input chain over budget trims straight down to its
// feasible core this way; the KL pass's myopic best-gain flip instead
// detours through output explosions and misses it. Strictly decreasing
// size bounds the loop.
func (k *klEngine) trim() {
	for k.tog.Size() > 0 && (k.tog.In() > k.cfg.Nin || k.tog.Out() > k.cfg.Nout) {
		in, out := k.tog.In(), k.tog.Out()
		bestV := -1
		var bestViol, bestSW int64
		for _, v := range k.tog.Members() {
			din, dout, convex := k.tog.RemoveDelta(v)
			if !convex {
				continue
			}
			viol := k.violDelta(in, out, din, dout)
			if bestV < 0 || viol < bestViol || (viol == bestViol && k.sw[v] < bestSW) {
				bestV, bestViol, bestSW = v, viol, k.sw[v]
			}
		}
		if bestV < 0 {
			k.tog.Load(nil) // every removal non-convex: give up on the seed
			return
		}
		k.tog.Remove(bestV)
		k.toggles++
	}
}

// feasibleEval evaluates the current membership when it is port-feasible
// and non-empty (convexity is invariant).
func (k *klEngine) feasibleEval() (Estimate, bool) {
	if k.tog.Size() == 0 || k.tog.In() > k.cfg.Nin || k.tog.Out() > k.cfg.Nout {
		return Estimate{}, false
	}
	est := Evaluate(k.g, k.tog.Members(), k.model)
	if est.Merit <= 0 {
		return Estimate{}, false
	}
	return est, true
}

// pass is one KL pass: every candidate may flip at most once (the tabu
// lock); each step applies the best-gain convexity-preserving flip, even
// at negative gain. Returns whether the tracked best improved.
func (k *klEngine) pass(alive func() bool, best *dfg.Cut, bestEst *Estimate, found *bool) bool {
	for i := range k.locked {
		k.locked[i] = false
	}
	improved := false
	for step := 0; step < len(k.cand); step++ {
		if !alive() {
			return improved
		}
		bestV := -1
		bestGain := int64(math.MinInt64)
		in, out := k.tog.In(), k.tog.Out()
		for _, v := range k.cand {
			if k.locked[v] {
				continue
			}
			var din, dout int
			var convex bool
			var gain int64
			if k.tog.Has(v) {
				din, dout, convex = k.tog.RemoveDelta(v)
				gain = -k.sw[v] * k.freq
			} else {
				din, dout, convex = k.tog.AddDelta(v)
				gain = k.sw[v] * k.freq
			}
			if !convex {
				continue
			}
			gain -= k.penalty * k.violDelta(in, out, din, dout)
			if gain > bestGain {
				bestGain, bestV = gain, v
			}
		}
		if bestV < 0 {
			break // every remaining flip is locked or non-convex
		}
		if k.tog.Has(bestV) {
			k.tog.Remove(bestV)
		} else {
			k.tog.Add(bestV)
		}
		k.locked[bestV] = true
		k.toggles++
		if est, ok := k.feasibleEval(); ok {
			if !*found || est.Merit > bestEst.Merit {
				*best, *bestEst, *found = k.tog.Members(), est, true
				improved = true
			}
		}
	}
	return improved
}
