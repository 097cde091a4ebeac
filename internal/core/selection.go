package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"isex/internal/dfg"
	"isex/internal/ir"
)

// Selected is one chosen custom instruction.
type Selected struct {
	Fn    *ir.Function
	Block *ir.Block
	// InstrIndexes are the block instruction positions collapsed into the
	// instruction — the stable currency shared with the IR patcher.
	InstrIndexes []int
	Est          Estimate
	// CutHash is the canonical digest of the cut's induced datapath
	// (dfg.CutCanonHash): two selections with equal non-zero hashes
	// compute the same function and could share one hardware
	// implementation. Zero when Config.Dedup is off.
	CutHash dfg.CanonDigest
	// ChosenAt is the greedy iteration (0-based) at which the iterative
	// drivers picked this instruction — the key to Ninstr prefix sharing:
	// because the greedy outer loop is identical at every budget, the
	// instructions with ChosenAt < k of an ninstr = N run are bit-identical
	// to a full ninstr = k run, for every k ≤ N. The optimal drivers
	// revise earlier picks when a block's M-cut assignment changes, so
	// they report -1 (no prefix property).
	ChosenAt int
}

// SharedInstruction is a group of at least two selected instructions
// whose datapaths canonicalize identically — candidates for a single
// shared hardware implementation. Members indexes into
// SelectionResult.Instructions; Blocks lists the owning "fn/block"
// names in the same order.
type SharedInstruction struct {
	Hash    string
	Count   int
	Members []int
	Blocks  []string
}

// SelectionResult is the outcome of a program-wide selection (Problem 2).
type SelectionResult struct {
	Instructions []Selected
	TotalMerit   int64
	Stats        Stats
	// IdentCalls counts invocations of the identification algorithm —
	// the §6.2 currency: the optimal algorithm is proven to need at most
	// Ninstr + Nbb − 1 of them.
	IdentCalls int
	// DedupHits counts identifications served by the cross-block dedup
	// memo (Config.Dedup): an isomorphic block had already been searched
	// and its cuts were translated, revalidated and adopted. Dedup hits
	// are charged here instead of IdentCalls and consume no search work.
	DedupHits int
	// SharedInstructions groups selected instructions whose datapaths
	// canonicalize identically (only populated with Config.Dedup; groups
	// appear in first-selected order).
	SharedInstructions []SharedInstruction
	// Blocks reports, per basic block, how its search ended (sorted by
	// function name, then block name). Blocks searched to completion are
	// listed with Status Exhaustive.
	Blocks []BlockStatus
	// Status is the worst per-block status: Exhaustive means every search
	// ran to completion and the result is exact under the configured
	// algorithm; anything else means the result is a sound lower bound.
	Status SearchStatus
	// FirstPanic is the first recovered panic across the per-block
	// searches (message plus a truncated stack excerpt), in the sorted
	// block order; empty when nothing panicked. The selection survives
	// recovered panics — this surfaces what was survived.
	FirstPanic string
}

// Degraded reports whether any per-block search ended early (budget,
// deadline, cancellation, or a recovered failure); the result is then a
// best-effort lower bound rather than the algorithm's exact answer.
func (r *SelectionResult) Degraded() bool { return r.Status != Exhaustive }

// finalize sorts the per-block statuses deterministically and derives the
// aggregate Status.
func (r *SelectionResult) finalize() {
	sort.SliceStable(r.Blocks, func(i, j int) bool {
		if r.Blocks[i].Fn != r.Blocks[j].Fn {
			return r.Blocks[i].Fn < r.Blocks[j].Fn
		}
		return r.Blocks[i].Block < r.Blocks[j].Block
	})
	r.Status = Exhaustive
	for _, b := range r.Blocks {
		r.Status = worse(r.Status, b.Status)
		if r.FirstPanic == "" && b.Err != nil {
			r.FirstPanic = b.Err.Error()
		}
	}
	r.computeShared()
}

// computeShared groups the selected instructions by non-zero CutHash
// (first-selected order) and records every group of two or more as a
// SharedInstruction. Must run after the instructions are sorted —
// Members are indexes into the final Instructions slice.
func (r *SelectionResult) computeShared() {
	r.SharedInstructions = nil
	groups := make(map[dfg.CanonDigest][]int)
	var order []dfg.CanonDigest
	for i, s := range r.Instructions {
		if s.CutHash.IsZero() {
			continue
		}
		if _, ok := groups[s.CutHash]; !ok {
			order = append(order, s.CutHash)
		}
		groups[s.CutHash] = append(groups[s.CutHash], i)
	}
	for _, h := range order {
		ms := groups[h]
		if len(ms) < 2 {
			continue
		}
		si := SharedInstruction{Hash: h.String(), Count: len(ms), Members: ms}
		for _, m := range ms {
			si.Blocks = append(si.Blocks,
				r.Instructions[m].Fn.Name+"/"+r.Instructions[m].Block.Name)
		}
		r.SharedInstructions = append(r.SharedInstructions, si)
	}
}

// instrIndexesOf maps a cut to block instruction positions, expanding
// collapsed super-nodes.
func instrIndexesOf(g *dfg.Graph, c dfg.Cut) []int {
	var out []int
	for _, id := range c {
		n := &g.Nodes[id]
		if len(n.SuperMembers) > 0 {
			out = append(out, n.SuperMembers...)
			continue
		}
		if n.InstrIndex >= 0 {
			out = append(out, n.InstrIndex)
		}
	}
	sort.Ints(out)
	return out
}

// blockGraphs pairs every block with its graph, in deterministic order.
type blockGraph struct {
	fn *ir.Function
	b  *ir.Block
	g  *dfg.Graph
}

// allBlockGraphs builds every block's graph. A block whose graph cannot
// be constructed (malformed IR) is excluded and reported as a Recovered
// status instead of crashing the selection.
func allBlockGraphs(m *ir.Module) ([]blockGraph, []BlockStatus) {
	var out []blockGraph
	var failed []BlockStatus
	for _, f := range m.Funcs {
		li := ir.Liveness(f)
		for _, b := range f.Blocks {
			g, err := dfg.Build(f, b, li)
			if err != nil {
				failed = append(failed, BlockStatus{
					Fn: f.Name, Block: b.Name, Status: Recovered, Err: err,
				})
				continue
			}
			out = append(out, blockGraph{fn: f, b: b, g: g})
		}
	}
	return out, failed
}

// SelectOptimal solves Problem 2 with the optimal selection algorithm of
// §6.2: single-cut identification on every block first, then, at each
// iteration, multiple-cut identification with an incremented M on the
// block that won the previous iteration, until ninstr cuts are chosen or
// no block offers a positive improvement.
func SelectOptimal(m *ir.Module, ninstr int, cfg Config) SelectionResult {
	return SelectOptimalCtx(context.Background(), m, ninstr, cfg)
}

// SelectOptimalCtx is SelectOptimal under a context: identification runs
// poll ctx and stop at its deadline, tripped blocks are rescued with the
// §9 windowed heuristic, per-block workers are panic-safe, and the best
// selection assembled so far is always returned (see SelectionResult's
// Blocks/Status for how trustworthy each block's answer is).
func SelectOptimalCtx(ctx context.Context, m *ir.Module, ninstr int, cfg Config) (res SelectionResult) {
	defer guardDriver(cfg.Probe, &res)
	// One stage span per driver invocation: every block search below
	// links to it as its parent.
	cfg.Probe = cfg.Probe.BeginStage("select/optimal", ninstr)
	defer func() {
		cfg.Probe.EndStage("select/optimal", len(res.Instructions), res.TotalMerit, res.IdentCalls)
	}()
	bgs, failed := allBlockGraphs(m)
	res = SelectionResult{Blocks: failed}
	if ninstr < 1 || len(bgs) == 0 {
		res.finalize()
		return res
	}
	// Per block: best total merit with M cuts, and the cuts themselves.
	type blockState struct {
		m       int   // cuts currently attributed to this block
		gain    int64 // best[m+1] - best[m]
		totals  []int64
		results []MultiResult
	}
	states := make([]blockState, len(bgs))
	blockStat := make([]BlockStatus, len(bgs))
	memo := newDedupMemo(cfg)
	hs := make([]dfg.CanonDigest, len(bgs))
	// identify serves block bi's M-cut identification, from the dedup
	// memo when an isomorphic block was already searched (charged to
	// DedupHits), from a fresh search otherwise (charged to IdentCalls
	// and stored for later twins).
	identify := func(bi, mm int) MultiResult {
		if r, bb, ok := memo.lookupMulti(bgs[bi].g, hs[bi], mm); ok {
			res.DedupHits++
			mergeBlockStatus(&blockStat[bi], bb)
			return r
		}
		res.IdentCalls++
		r, bs := searchBlockMultiSafe(ctx, bgs[bi].g, mm, cfg)
		res.Stats.add(r.Stats)
		mergeBlockStatus(&blockStat[bi], bs)
		memo.storeMulti(bgs[bi].g, hs[bi], mm, r, bs)
		return r
	}
	// The initial identification of every block is independent; with
	// Parallel set the blocks are searched concurrently, exactly like
	// SelectIterativeCtx's initial pass (deterministic: results land in
	// fixed slots and are merged in index order afterwards). Only dedup
	// leaders are searched — the plan is computed from the graphs up
	// front so the serial and parallel passes make identical decisions.
	if cfg.Parallel && len(bgs) > 1 {
		leader := dedupPlan(memo, hs, func(i int) *dfg.Graph { return bgs[i].g }, len(bgs))
		results := make([]MultiResult, len(bgs))
		stats := make([]BlockStatus, len(bgs))
		var wg sync.WaitGroup
		for i := range bgs {
			if leader[i] != i {
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], stats[i] = searchBlockMultiSafe(ctx, bgs[i].g, 1, cfg)
			}(i)
		}
		wg.Wait()
		for i := range bgs {
			blockStat[i] = BlockStatus{Fn: bgs[i].fn.Name, Block: bgs[i].b.Name}
			var r MultiResult
			if leader[i] == i {
				res.IdentCalls++
				res.Stats.add(results[i].Stats)
				mergeBlockStatus(&blockStat[i], stats[i])
				memo.storeMulti(bgs[i].g, hs[i], 1, results[i], stats[i])
				r = results[i]
			} else {
				// Followers adopt their leader's identification; when the
				// leader's result is not adoptable (non-exhaustive, or the
				// translation was refused) the block searches itself.
				r = identify(i, 1)
			}
			states[i].totals = []int64{0, r.TotalMerit}
			states[i].results = []MultiResult{{}, r}
			states[i].gain = r.TotalMerit
		}
	} else {
		if memo.enabled() {
			for i := range bgs {
				hs[i] = memo.hash(bgs[i].g)
			}
		}
		for i := range bgs {
			blockStat[i] = BlockStatus{Fn: bgs[i].fn.Name, Block: bgs[i].b.Name}
			r := identify(i, 1)
			states[i].totals = []int64{0, r.TotalMerit}
			states[i].results = []MultiResult{{}, r}
			states[i].gain = r.TotalMerit
		}
	}
	chosen := 0
	for chosen < ninstr {
		bestB, bestGain := -1, int64(0)
		for i := range states {
			if states[i].gain > bestGain {
				bestGain = states[i].gain
				bestB = i
			}
		}
		if bestB < 0 {
			break // no positive improvement anywhere
		}
		st := &states[bestB]
		st.m++
		chosen++
		if chosen >= ninstr {
			break
		}
		// Out of time: keep the assignments found so far and stop
		// re-identifying; the chosen block simply offers no further
		// improvement.
		if err := ctx.Err(); err != nil {
			blockStat[bestB].Status = worse(blockStat[bestB].Status, statusOfCtx(err))
			st.gain = 0
			continue
		}
		// Identify with M+1 cuts on the block just chosen and refresh its
		// improvement value.
		r := identify(bestB, st.m+1)
		st.totals = append(st.totals, r.TotalMerit)
		st.results = append(st.results, r)
		st.gain = r.TotalMerit - st.totals[st.m]
		if st.gain < 0 {
			st.gain = 0
		}
	}
	// Materialize: for each block, its best M-cut assignment.
	for i := range states {
		st := &states[i]
		if st.m == 0 {
			continue
		}
		r := st.results[st.m]
		for j, c := range r.Cuts {
			sel := Selected{
				Fn:           bgs[i].fn,
				Block:        bgs[i].b,
				InstrIndexes: instrIndexesOf(bgs[i].g, c),
				Est:          r.Ests[j],
				ChosenAt:     -1,
			}
			if memo.enabled() {
				sel.CutHash = bgs[i].g.CutCanonHash(c)
			}
			res.Instructions = append(res.Instructions, sel)
			res.TotalMerit += r.Ests[j].Merit
		}
	}
	sortSelected(res.Instructions)
	res.Blocks = append(res.Blocks, blockStat...)
	res.finalize()
	return res
}

// SelectIterative solves Problem 2 with the heuristic of §6.3: repeated
// single-cut identification; each identified cut is collapsed into a
// forbidden super-node before the block is searched again. Across blocks
// it greedily takes the largest current improvement, exactly like the
// optimal algorithm's outer loop.
func SelectIterative(m *ir.Module, ninstr int, cfg Config) SelectionResult {
	return SelectIterativeCtx(context.Background(), m, ninstr, cfg)
}

// SelectIterativeCtx is SelectIterative under a context: identification
// runs poll ctx and stop at its deadline, a budget- or deadline-stopped
// exact search is rescued with the §9 windowed heuristic (keeping the
// better sound answer), and every block worker — parallel or serial — is
// panic-safe: a panicking block is reported as Recovered and the other
// blocks' selections survive.
func SelectIterativeCtx(ctx context.Context, m *ir.Module, ninstr int, cfg Config) (res SelectionResult) {
	defer guardDriver(cfg.Probe, &res)
	// One stage span per driver invocation, as in SelectOptimalCtx.
	cfg.Probe = cfg.Probe.BeginStage("select/iterative", ninstr)
	defer func() {
		cfg.Probe.EndStage("select/iterative", len(res.Instructions), res.TotalMerit, res.IdentCalls)
	}()
	bgs, failed := allBlockGraphs(m)
	res = SelectionResult{Blocks: failed}
	if ninstr < 1 || len(bgs) == 0 {
		res.finalize()
		return res
	}
	type blockState struct {
		g    *dfg.Graph
		best Result
	}
	states := make([]blockState, len(bgs))
	blockStat := make([]BlockStatus, len(bgs))
	memo := newDedupMemo(cfg)
	hs := make([]dfg.CanonDigest, len(bgs))
	// identify serves block i's single-cut identification on graph g,
	// from the dedup memo when an isomorphic graph was already searched
	// (DedupHits), from a fresh search otherwise (IdentCalls + store).
	identify := func(i int, g *dfg.Graph, h dfg.CanonDigest) (Result, BlockStatus) {
		if r, bb, ok := memo.lookupSingle(g, h); ok {
			res.DedupHits++
			return r, bb
		}
		r, bs := searchBlockSafe(ctx, g, cfg)
		res.IdentCalls++
		res.Stats.add(r.Stats)
		memo.storeSingle(g, h, r, bs)
		return r, bs
	}
	// The initial identification of every block is independent; with
	// Parallel set the blocks are searched concurrently (deterministic:
	// results land in fixed slots, and the stats are merged afterwards).
	// Only dedup leaders are searched — the plan is computed from the
	// graphs up front so the serial and parallel passes make identical
	// decisions.
	if cfg.Parallel && len(bgs) > 1 {
		for i := range bgs {
			states[i].g = bgs[i].g
		}
		leader := dedupPlan(memo, hs, func(i int) *dfg.Graph { return bgs[i].g }, len(bgs))
		results := make([]Result, len(bgs))
		stats := make([]BlockStatus, len(bgs))
		// Leaders consult the memo before searching — a no-op for a
		// private memo (necessarily empty here) but a real hit when a
		// shared DedupCache already holds a twin from another selection
		// call; this mirrors the serial path, whose identify() is
		// lookup-first.
		adopted := make([]bool, len(bgs))
		var wg sync.WaitGroup
		for i := range bgs {
			if leader[i] != i {
				continue
			}
			if r, bb, ok := memo.lookupSingle(bgs[i].g, hs[i]); ok {
				adopted[i], results[i], stats[i] = true, r, bb
				continue
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], stats[i] = searchBlockSafe(ctx, states[i].g, cfg)
			}(i)
		}
		wg.Wait()
		for i := range bgs {
			if leader[i] == i {
				if adopted[i] {
					res.DedupHits++
					states[i].best = results[i]
					blockStat[i] = stats[i]
					continue
				}
				res.IdentCalls++
				res.Stats.add(results[i].Stats)
				states[i].best = results[i]
				blockStat[i] = stats[i]
				memo.storeSingle(states[i].g, hs[i], results[i], stats[i])
				continue
			}
			// Followers adopt their leader's identification; when the
			// leader's result is not adoptable (non-exhaustive, or the
			// translation was refused) the block searches itself.
			states[i].best, blockStat[i] = identify(i, states[i].g, hs[i])
		}
	} else {
		if memo.enabled() {
			for i := range bgs {
				hs[i] = memo.hash(bgs[i].g)
			}
		}
		for i := range bgs {
			states[i].g = bgs[i].g
			states[i].best, blockStat[i] = identify(i, states[i].g, hs[i])
		}
	}
	for chosen := 0; chosen < ninstr; chosen++ {
		bestB := -1
		var bestMerit int64
		for i := range states {
			if states[i].best.Found && states[i].best.Est.Merit > bestMerit {
				bestMerit = states[i].best.Est.Merit
				bestB = i
			}
		}
		if bestB < 0 {
			break
		}
		st := &states[bestB]
		sel := Selected{
			Fn:           bgs[bestB].fn,
			Block:        bgs[bestB].b,
			InstrIndexes: instrIndexesOf(st.g, st.best.Cut),
			Est:          st.best.Est,
			ChosenAt:     chosen,
		}
		if memo.enabled() {
			sel.CutHash = st.g.CutCanonHash(st.best.Cut)
		}
		res.Instructions = append(res.Instructions, sel)
		res.TotalMerit += st.best.Est.Merit
		// Collapse the chosen cut and re-identify on this block only.
		name := fmt.Sprintf("ise_%s_%d", bgs[bestB].b.Name, chosen)
		ng, err := st.g.Collapse(st.best.Cut, name, st.best.Est.HWCycles)
		if err != nil {
			// The collapsed graph is unusable; the block keeps its chosen
			// cuts but contributes no further ones.
			mergeBlockStatus(&blockStat[bestB], BlockStatus{Status: Recovered, Err: err})
			st.best = Result{}
			continue
		}
		cfg.Probe.Collapse(name, chosen, len(st.best.Cut))
		st.g = ng
		// Out of time: keep harvesting the bests already identified on
		// other blocks, but do not start new searches.
		if cerr := ctx.Err(); cerr != nil {
			blockStat[bestB].Status = worse(blockStat[bestB].Status, statusOfCtx(cerr))
			st.best = Result{}
			continue
		}
		r, bs := identify(bestB, st.g, memo.hash(st.g))
		st.best = r
		mergeBlockStatus(&blockStat[bestB], bs)
	}
	sortSelected(res.Instructions)
	res.Blocks = append(res.Blocks, blockStat...)
	res.finalize()
	return res
}

// sortSelected orders instructions deterministically: by function name,
// block index, then first collapsed instruction.
func sortSelected(sel []Selected) {
	sort.SliceStable(sel, func(i, j int) bool {
		a, b := sel[i], sel[j]
		if a.Fn.Name != b.Fn.Name {
			return a.Fn.Name < b.Fn.Name
		}
		if a.Block.Index != b.Block.Index {
			return a.Block.Index < b.Block.Index
		}
		ai, bi := -1, -1
		if len(a.InstrIndexes) > 0 {
			ai = a.InstrIndexes[0]
		}
		if len(b.InstrIndexes) > 0 {
			bi = b.InstrIndexes[0]
		}
		return ai < bi
	})
}
