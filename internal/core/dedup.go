package core

import (
	"sync"

	"isex/internal/dfg"
	"isex/internal/latency"
	"isex/internal/obs"
)

// This file is the cross-block deduplication layer behind Config.Dedup
// (DESIGN.md §14). Real applications repeat structure — the same unrolled
// MAC or butterfly recurs across blocks and functions — yet the drivers'
// per-block searches cannot see it: dfg.Fingerprint, which keys the seed
// book, deliberately bakes in function/block identity. The dedup memo
// keys finished identifications by dfg.CanonHash instead and adopts a
// stored result for a new graph only when dfg.OrderMatch proves the new
// graph is search-order isomorphic to the stored one — the node at rank
// r corresponds to the node at rank r, every edge maps rank-to-rank,
// and the V+ structure pairs up exactly. Under that match
// the §6 search tree over the new graph is, node for node, the stored
// search's tree with IDs renamed: same expansion order, same IN/OUT and
// convexity verdicts, same per-execution savings. Block frequency is the
// only difference, and every merit and bound the search compares scales
// uniformly with the block weight, so the argmax (first-max in DFS
// order) is preserved. Translated cuts are never trusted on this
// argument alone: each is revalidated with Legal and re-Evaluated on the
// adopting block's own graph, and any discrepancy turns the hit into a
// miss (the block then searches normally).
//
// Only exhaustive results are stored or adopted: a budget- or
// deadline-stopped search's incumbent depends on wall-clock timing, so a
// twin block repeats the search instead of inheriting a cutoff artifact.
type dedupMemo struct {
	nin, nout int
	model     *latency.Model
	probe     *obs.Probe
	// mu serializes map access: a memo private to one driver call is only
	// ever touched from the driver goroutine, but a memo handed out by a
	// DedupCache is shared between concurrent selection calls.
	mu      sync.Mutex
	singles map[dfg.CanonDigest][]*dedupSingle
	multis  map[dedupKey][]*dedupMulti
}

type dedupKey struct {
	h dfg.CanonDigest
	m int
}

type dedupSingle struct {
	g   *dfg.Graph
	res Result
	bs  BlockStatus
}

type dedupMulti struct {
	g   *dfg.Graph
	res MultiResult
	bs  BlockStatus
}

// DedupCache shares dedup memos across selection calls: where a private
// memo only dedups twin blocks *within* one selection, a cache handed to
// several calls (Config.DedupCache) lets isomorphic blocks across
// neighboring DSE grid cells — or across requests in a long-lived
// service — share one identification. Entries are segregated by
// (Nin, Nout, Model): merits and legality depend on all three, so a
// memo is only ever reused at the exact same constraint point on the
// exact same latency table. Models are compared by pointer identity:
// calls with a nil Model all share the one default instance, and calls
// with an explicit model share only when they pass the same
// *latency.Model.
//
// Sharing keeps every per-cell selection bit-identical to a run with a
// private memo whenever the cell's own searches complete within budget:
// only exhaustive results are stored, and dfg.OrderMatch guarantees the
// adopting block's own search would have produced the translated result.
// Under budget starvation a twin block may adopt an exhaustive result
// that its own (tripped) search would not have found — sound, and
// strictly better, but dependent on arrival order; strict
// byte-reproducibility under starvation requires a private cache per
// deterministic unit (see DESIGN.md §16).
type DedupCache struct {
	mu    sync.Mutex
	memos map[dedupCacheKey]*dedupMemo
}

type dedupCacheKey struct {
	nin, nout int
	model     *latency.Model
}

// NewDedupCache returns an empty cache.
func NewDedupCache() *DedupCache {
	return &DedupCache{memos: make(map[dedupCacheKey]*dedupMemo)}
}

// memoFor returns the shared memo for cfg's constraint point, creating
// it on first use. Shared memos drop the creator's probe: flight-
// recorder events from one selection must not surface in another's
// timeline.
func (c *DedupCache) memoFor(cfg Config) *dedupMemo {
	key := dedupCacheKey{nin: cfg.Nin, nout: cfg.Nout, model: cfg.model()}
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.memos[key]
	if m == nil {
		m = &dedupMemo{
			nin:     key.nin,
			nout:    key.nout,
			model:   key.model,
			singles: make(map[dfg.CanonDigest][]*dedupSingle),
			multis:  make(map[dedupKey][]*dedupMulti),
		}
		c.memos[key] = m
	}
	return m
}

// newDedupMemo returns nil when dedup is off; every method below is
// nil-receiver safe, so the drivers call them unconditionally. With a
// DedupCache configured, the call's memo is the shared one for its
// constraint point instead of a fresh private map.
func newDedupMemo(cfg Config) *dedupMemo {
	if !cfg.Dedup {
		return nil
	}
	if cfg.DedupCache != nil {
		return cfg.DedupCache.memoFor(cfg)
	}
	return &dedupMemo{
		nin:     cfg.Nin,
		nout:    cfg.Nout,
		model:   cfg.model(),
		probe:   cfg.Probe,
		singles: make(map[dfg.CanonDigest][]*dedupSingle),
		multis:  make(map[dedupKey][]*dedupMulti),
	}
}

func (d *dedupMemo) enabled() bool { return d != nil }

// hash returns the graph's canonical digest (zero when dedup is off).
func (d *dedupMemo) hash(g *dfg.Graph) dfg.CanonDigest {
	if d == nil {
		return dfg.CanonDigest{}
	}
	return g.CanonHash()
}

// lookupSingle tries to adopt a stored single-cut identification for g.
// On a hit the returned Result carries the translated, revalidated cut
// and the stored block status re-tagged with g's identity; the caller
// charges it to DedupHits, not IdentCalls.
func (d *dedupMemo) lookupSingle(g *dfg.Graph, h dfg.CanonDigest) (Result, BlockStatus, bool) {
	if d == nil {
		return Result{}, BlockStatus{}, false
	}
	tag := g.Fn.Name + "/" + g.Block.Name
	// Entries are append-only and immutable once stored, so translation
	// and revalidation run on a snapshot, outside the lock.
	d.mu.Lock()
	entries := d.singles[h]
	d.mu.Unlock()
	for _, e := range entries {
		ren, ok := dfg.OrderMatch(e.g, g)
		if !ok {
			continue
		}
		r, ok := d.translateSingle(e, g, ren)
		if !ok {
			continue
		}
		d.probe.Dedup(tag, true, 0)
		bs := e.bs
		bs.Fn, bs.Block = g.Fn.Name, g.Block.Name
		return r, bs, true
	}
	d.probe.Dedup(tag, false, 0)
	return Result{}, BlockStatus{}, false
}

// storeSingle records a finished single-cut identification under g's
// digest. Non-exhaustive results are dropped (see the file comment).
func (d *dedupMemo) storeSingle(g *dfg.Graph, h dfg.CanonDigest, r Result, bs BlockStatus) {
	if d == nil || r.Status != Exhaustive || bs.Status != Exhaustive {
		return
	}
	d.mu.Lock()
	d.singles[h] = append(d.singles[h], &dedupSingle{g: g, res: r, bs: bs})
	d.mu.Unlock()
}

func (d *dedupMemo) translateSingle(e *dedupSingle, g *dfg.Graph, ren []int) (Result, bool) {
	out := Result{Found: e.res.Found, Status: Exhaustive}
	if e.res.Found {
		c, ok := dfg.TranslateCut(e.res.Cut, ren)
		if !ok || !g.Legal(c, d.nin, d.nout) {
			return Result{}, false
		}
		est := Evaluate(g, c, d.model)
		// The revalidation gate: the translated cut must describe the
		// same datapath — identical ports, per-execution savings and
		// hardware schedule — or the structural argument above does not
		// hold and the adoption is refused.
		se := e.res.Est
		if est.In != se.In || est.Out != se.Out || est.Saved != se.Saved ||
			est.HWCycles != se.HWCycles || est.Size != se.Size || est.Merit <= 0 {
			return Result{}, false
		}
		out.Cut = c
		out.Est = est
	}
	return out, true
}

// lookupMulti and storeMulti are the multi-cut (SelectOptimal) analogs,
// keyed by (digest, m).
func (d *dedupMemo) lookupMulti(g *dfg.Graph, h dfg.CanonDigest, m int) (MultiResult, BlockStatus, bool) {
	if d == nil {
		return MultiResult{}, BlockStatus{}, false
	}
	tag := g.Fn.Name + "/" + g.Block.Name
	d.mu.Lock()
	entries := d.multis[dedupKey{h: h, m: m}]
	d.mu.Unlock()
	for _, e := range entries {
		ren, ok := dfg.OrderMatch(e.g, g)
		if !ok {
			continue
		}
		r, ok := d.translateMulti(e, g, ren)
		if !ok {
			continue
		}
		d.probe.Dedup(tag, true, m)
		bs := e.bs
		bs.Fn, bs.Block = g.Fn.Name, g.Block.Name
		return r, bs, true
	}
	d.probe.Dedup(tag, false, m)
	return MultiResult{}, BlockStatus{}, false
}

func (d *dedupMemo) storeMulti(g *dfg.Graph, h dfg.CanonDigest, m int, r MultiResult, bs BlockStatus) {
	if d == nil || r.Status != Exhaustive || bs.Status != Exhaustive {
		return
	}
	key := dedupKey{h: h, m: m}
	d.mu.Lock()
	d.multis[key] = append(d.multis[key], &dedupMulti{g: g, res: r, bs: bs})
	d.mu.Unlock()
}

func (d *dedupMemo) translateMulti(e *dedupMulti, g *dfg.Graph, ren []int) (MultiResult, bool) {
	out := MultiResult{Found: e.res.Found, Status: Exhaustive}
	for i, c := range e.res.Cuts {
		tc, ok := dfg.TranslateCut(c, ren)
		if !ok || !g.Legal(tc, d.nin, d.nout) {
			return MultiResult{}, false
		}
		est := Evaluate(g, tc, d.model)
		se := e.res.Ests[i]
		if est.In != se.In || est.Out != se.Out || est.Saved != se.Saved ||
			est.HWCycles != se.HWCycles || est.Size != se.Size || est.Merit <= 0 {
			return MultiResult{}, false
		}
		out.Cuts = append(out.Cuts, tc)
		out.Ests = append(out.Ests, est)
		out.TotalMerit += est.Merit
	}
	return out, true
}

// dedupPlan assigns every block a leader for the initial identification
// pass: leader[i] == i when block i searches itself, otherwise block i
// adopts the translated result of the earlier block leader[i]. The plan
// is computed from the graphs alone — before any search runs — so the
// serial and Parallel initial passes make identical dedup decisions
// (first matching earlier block wins, in index order).
func dedupPlan(d *dedupMemo, hs []dfg.CanonDigest, graph func(i int) *dfg.Graph, n int) []int {
	leader := make([]int, n)
	for i := range leader {
		leader[i] = i
	}
	if d == nil {
		return leader
	}
	byHash := make(map[dfg.CanonDigest][]int)
	for i := 0; i < n; i++ {
		hs[i] = d.hash(graph(i))
		for _, j := range byHash[hs[i]] {
			if _, ok := dfg.OrderMatch(graph(j), graph(i)); ok {
				leader[i] = j
				break
			}
		}
		if leader[i] == i {
			byHash[hs[i]] = append(byHash[hs[i]], i)
		}
	}
	return leader
}
