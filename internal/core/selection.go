package core

import (
	"context"
	"fmt"
	"sort"

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
	// (dfg.CutCanonHash): two selections with equal hashes are
	// candidates for one shared hardware implementation. Equal hashes
	// do not prove equal datapaths (WL-hard pairs collide; see
	// dfg.CanonDigest).
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
	// SharedInstructions groups selected instructions whose datapaths
	// canonicalize identically (groups appear in first-selected order).
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

// computeShared groups the selected instructions by CutHash
// (first-selected order) and records every group of two or more as a
// SharedInstruction. Must run after the instructions are sorted —
// Members are indexes into the final Instructions slice.
func (r *SelectionResult) computeShared() {
	r.SharedInstructions = nil
	groups := make(map[dfg.CanonDigest][]int)
	var order []dfg.CanonDigest
	for i, s := range r.Instructions {
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
// §9 windowed heuristic, every block search is panic-safe, and the best
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
	for i := range bgs {
		var r MultiResult
		r, blockStat[i] = searchBlockMultiSafe(ctx, bgs[i].g, 1, cfg)
		res.Stats.add(r.Stats)
		states[i].totals = []int64{0, r.TotalMerit}
		states[i].results = []MultiResult{{}, r}
		states[i].gain = r.TotalMerit
	}
	res.IdentCalls = len(bgs)
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
		r, bs := searchBlockMultiSafe(ctx, bgs[bestB].g, st.m+1, cfg)
		res.IdentCalls++
		res.Stats.add(r.Stats)
		mergeBlockStatus(&blockStat[bestB], bs)
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
			res.Instructions = append(res.Instructions, Selected{
				Fn:           bgs[i].fn,
				Block:        bgs[i].b,
				InstrIndexes: instrIndexesOf(bgs[i].g, c),
				Est:          r.Ests[j],
				CutHash:      bgs[i].g.CutCanonHash(c),
				ChosenAt:     -1,
			})
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
// better sound answer), and every block search is panic-safe: a
// panicking block is reported as Recovered and the other
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
	for i := range bgs {
		states[i].g = bgs[i].g
		states[i].best, blockStat[i] = searchBlockSafe(ctx, bgs[i].g, cfg)
		res.Stats.add(states[i].best.Stats)
	}
	res.IdentCalls = len(states)
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
		res.Instructions = append(res.Instructions, Selected{
			Fn:           bgs[bestB].fn,
			Block:        bgs[bestB].b,
			InstrIndexes: instrIndexesOf(st.g, st.best.Cut),
			Est:          st.best.Est,
			CutHash:      st.g.CutCanonHash(st.best.Cut),
			ChosenAt:     chosen,
		})
		res.TotalMerit += st.best.Est.Merit
		if chosen == ninstr-1 {
			break // nothing would read a further identification
		}
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
		r, bs := searchBlockSafe(ctx, st.g, cfg)
		res.IdentCalls++
		res.Stats.add(r.Stats)
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
