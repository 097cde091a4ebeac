package core

import (
	"fmt"
	"sort"

	"isex/internal/ir"
	"isex/internal/latency"
)

// ApplySelection rewrites the module so every selected cut executes as a
// single OpCustom instruction backed by a new AFU definition. Cuts of the
// same block are patched together. It returns the indices of the created
// AFUs. Any selection can lose a cut: the patcher schedules with register
// anti-dependences that the DFG does not model, so a cut the search found
// convex can still be impossible to schedule atomically (as can cuts of a
// multi-cut selection that depend on each other). Such cuts are skipped
// and returned in skipped.
func ApplySelection(m *ir.Module, sel []Selected, model *latency.Model) (afus []int, skipped []Selected, err error) {
	if model == nil {
		model = latency.Default()
	}
	// Group selections by block, preserving order.
	type key struct {
		f *ir.Function
		b *ir.Block
	}
	groups := map[key][]Selected{}
	var order []key
	for _, s := range sel {
		k := key{s.Fn, s.Block}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], s)
	}
	for _, k := range order {
		var cuts [][]int
		for _, s := range groups[k] {
			cuts = append(cuts, s.InstrIndexes)
		}
		ids, skip, perr := PatchBlock(m, k.f, k.b, cuts, model)
		if perr != nil {
			return afus, skipped, perr
		}
		afus = append(afus, ids...)
		for _, si := range skip {
			skipped = append(skipped, groups[k][si])
		}
	}
	for _, f := range m.Funcs {
		f.RecomputeCFG()
	}
	if err := ir.VerifyModule(m); err != nil {
		return afus, skipped, fmt.Errorf("core: patched module fails verification: %w", err)
	}
	return afus, skipped, nil
}

// value identifies one dataflow value of a block: the content of reg
// produced by the instruction at def, or the block-incoming content when
// def is -1. Registers defined exactly once may still carry two values
// (the live-in one before the definition).
type value struct {
	reg ir.Reg
	def int
}

// blockCtx carries the per-block analysis shared by the patching steps.
type blockCtx struct {
	f      *ir.Function
	b      *ir.Block
	defIdx map[ir.Reg]int
	// liveOut and termUses identify escaping final values.
	liveOut  ir.RegSet
	termUses map[ir.Reg]bool
}

func analyzeBlock(f *ir.Function, b *ir.Block) *blockCtx {
	ctx := &blockCtx{f: f, b: b, defIdx: map[ir.Reg]int{}, termUses: map[ir.Reg]bool{}}
	for i := range b.Instrs {
		for _, d := range b.Instrs[i].Dsts {
			ctx.defIdx[d] = i
		}
	}
	li := ir.Liveness(f)
	ctx.liveOut = li.Out[b.Index]
	if b.Term.Kind == ir.TermBranch {
		ctx.termUses[b.Term.Cond] = true
	}
	if b.Term.Kind == ir.TermRet && b.Term.HasVal {
		ctx.termUses[b.Term.Val] = true
	}
	return ctx
}

// valueRead resolves which value instruction i reads through register a.
func (ctx *blockCtx) valueRead(a ir.Reg, i int) value {
	if d, ok := ctx.defIdx[a]; ok && d < i {
		return value{a, d}
	}
	return value{a, -1}
}

// PatchBlock collapses each cut (a set of instruction indices of b, all
// pure operations) into one custom instruction. It returns the AFU
// indices created and the positions (into cuts) of any cut skipped
// because contraction would create a dependence cycle.
//
// The block is first brought into a local single-definition form (every
// register defined at most once), so each register names at most two
// values: its live-in content before the definition and the defined value
// after. The instructions are then topologically rescheduled with each
// cut contracted to a point; the convexity constraint guarantees such a
// schedule exists for a single cut. Anti-dependences (a read of the
// live-in value followed by the definition) are honored as scheduling
// edges, so no compensation copies are needed in the common case.
func PatchBlock(m *ir.Module, f *ir.Function, b *ir.Block, cuts [][]int, model *latency.Model) (afus []int, skipped []int, err error) {
	if model == nil {
		model = latency.Default()
	}
	for ci, cut := range cuts {
		if len(cut) == 0 {
			return nil, nil, fmt.Errorf("core: empty cut %d", ci)
		}
		seen := map[int]bool{}
		for _, idx := range cut {
			if idx < 0 || idx >= len(b.Instrs) {
				return nil, nil, fmt.Errorf("core: cut %d: instruction index %d out of range", ci, idx)
			}
			if seen[idx] {
				return nil, nil, fmt.Errorf("core: cut %d: duplicate index %d", ci, idx)
			}
			seen[idx] = true
			if !b.Instrs[idx].Op.Pure() {
				return nil, nil, fmt.Errorf("core: cut %d: %s is not a pure operation", ci, b.Instrs[idx].Op)
			}
		}
		sort.Ints(cuts[ci])
	}
	singleDef(f, b)
	ctx := analyzeBlock(f, b)
	if err := resolveInputAliases(m, ctx, cuts); err != nil {
		return nil, nil, err
	}

	// Scheduling dependence graph over instructions: true data deps,
	// anti-deps on live-in reads, and memory-order deps.
	n := len(b.Instrs)
	succs := make([][]int, n)
	addDep := func(from, to int) {
		if from != to {
			succs[from] = append(succs[from], to)
		}
	}
	for i := range b.Instrs {
		for _, a := range b.Instrs[i].Args {
			d, ok := ctx.defIdx[a]
			if !ok {
				continue
			}
			if d < i {
				addDep(d, i) // true dependence
			} else if d > i {
				addDep(i, d) // anti dependence: live-in read before redefinition
			}
		}
	}
	lastWriter := -1
	var readers []int
	for i := range b.Instrs {
		switch b.Instrs[i].Op {
		case ir.OpLoad:
			if lastWriter >= 0 {
				addDep(lastWriter, i)
			}
			readers = append(readers, i)
		case ir.OpStore, ir.OpCall:
			if lastWriter >= 0 {
				addDep(lastWriter, i)
			}
			for _, r := range readers {
				addDep(r, i)
			}
			readers = readers[:0]
			lastWriter = i
		}
	}

	// Contract cuts one at a time, skipping any whose contraction creates
	// a cycle. comp[i] identifies the scheduling vertex of instruction i.
	comp := make([]int, n)
	for i := range comp {
		comp[i] = i
	}
	accepted := make([]bool, len(cuts))
	for ci, cut := range cuts {
		saved := append([]int(nil), comp...)
		root := cut[0]
		for _, idx := range cut {
			comp[idx] = root
		}
		if _, ok := compTopoOrder(n, succs, comp); !ok {
			copy(comp, saved)
			skipped = append(skipped, ci)
			continue
		}
		accepted[ci] = true
	}
	order, ok := compTopoOrder(n, succs, comp)
	if !ok {
		return nil, nil, fmt.Errorf("core: internal error: accepted contraction is cyclic")
	}

	// Build AFUs and the replacement instruction per accepted cut.
	replacement := map[int]ir.Instr{}
	for ci, cut := range cuts {
		if !accepted[ci] {
			continue
		}
		afu, custom, err := buildAFU(m, ctx, cut, model)
		if err != nil {
			return nil, nil, err
		}
		afus = append(afus, afu)
		replacement[cut[0]] = custom
	}

	// Emit the rescheduled block: component roots in topological order;
	// accepted cut roots become their custom instruction.
	var out []ir.Instr
	for _, i := range order {
		if rep, ok := replacement[i]; ok {
			out = append(out, rep)
			continue
		}
		out = append(out, b.Instrs[i])
	}
	b.Instrs = out
	return afus, skipped, nil
}

// singleDef renames all but the final definition of every register in the
// block (rewriting intervening uses), so each register is defined at most
// once. No compensation code is needed: final definitions keep their
// architectural names, and earlier values move to fresh registers that
// are dead at block exit by construction.
func singleDef(f *ir.Function, b *ir.Block) {
	lastDef := map[ir.Reg]int{}
	for i := range b.Instrs {
		for _, d := range b.Instrs[i].Dsts {
			lastDef[d] = i
		}
	}
	cur := map[ir.Reg]ir.Reg{}
	for i := range b.Instrs {
		in := &b.Instrs[i]
		for ai, a := range in.Args {
			if r, ok := cur[a]; ok {
				in.Args[ai] = r
			}
		}
		for di, d := range in.Dsts {
			if lastDef[d] == i {
				delete(cur, d) // final definition keeps the name
				continue
			}
			fresh := f.NewReg()
			in.Dsts[di] = fresh
			cur[d] = fresh
		}
	}
	// The terminator reads final values, whose names are unchanged.
}

// resolveInputAliases handles the rare case in which a cut needs both
// values a register carries (the live-in content *and* the in-block
// definition) as distinct inputs: the defining instruction (necessarily a
// non-member) is renamed to a fresh register, with uses rewritten and a
// trailing copy restoring the architectural name when it is live out.
func resolveInputAliases(m *ir.Module, ctx *blockCtx, cuts [][]int) error {
	b := ctx.b
	for _, cut := range cuts {
		member := map[int]bool{}
		for _, idx := range cut {
			member[idx] = true
		}
		// Collect this cut's input values grouped by register.
		byReg := map[ir.Reg]map[int]bool{}
		for _, idx := range cut {
			for _, a := range b.Instrs[idx].Args {
				v := ctx.valueRead(a, idx)
				if v.def >= 0 && member[v.def] {
					continue // internally produced
				}
				if byReg[v.reg] == nil {
					byReg[v.reg] = map[int]bool{}
				}
				byReg[v.reg][v.def] = true
			}
		}
		for r, defs := range byReg {
			if len(defs) < 2 {
				continue
			}
			// Both the live-in value and the defined value feed the cut:
			// move the defined value to a fresh register.
			d := ctx.defIdx[r]
			fresh := ctx.f.NewReg()
			for di, dst := range b.Instrs[d].Dsts {
				if dst == r {
					b.Instrs[d].Dsts[di] = fresh
				}
			}
			for i := d + 1; i < len(b.Instrs); i++ {
				for ai, a := range b.Instrs[i].Args {
					if a == r {
						b.Instrs[i].Args[ai] = fresh
					}
				}
			}
			needCopy := ctx.liveOut.Has(r)
			if ctx.termUses[r] {
				if b.Term.Kind == ir.TermBranch && b.Term.Cond == r {
					b.Term.Cond = fresh
				}
				if b.Term.Kind == ir.TermRet && b.Term.HasVal && b.Term.Val == r {
					b.Term.Val = fresh
				}
			}
			if needCopy {
				b.Instrs = append(b.Instrs, ir.Instr{Op: ir.OpCopy, Dsts: []ir.Reg{r}, Args: []ir.Reg{fresh}})
			}
			// Re-analyze: definition indices changed.
			*ctx = *analyzeBlock(ctx.f, b)
		}
	}
	return nil
}

// compTopoOrder topologically sorts the contracted scheduling graph,
// returning component roots in schedule order (stable: smaller original
// indices first).
func compTopoOrder(n int, succs [][]int, comp []int) ([]int, bool) {
	indeg := make(map[int]int)
	compSuccs := map[int]map[int]bool{}
	roots := map[int]bool{}
	for i := 0; i < n; i++ {
		roots[comp[i]] = true
	}
	for r := range roots {
		compSuccs[r] = map[int]bool{}
	}
	for i := 0; i < n; i++ {
		for _, s := range succs[i] {
			a, b := comp[i], comp[s]
			if a != b && !compSuccs[a][b] {
				compSuccs[a][b] = true
				indeg[b]++
			}
		}
	}
	var ready []int
	for r := range roots {
		if indeg[r] == 0 {
			ready = append(ready, r)
		}
	}
	sort.Ints(ready)
	var order []int
	for len(ready) > 0 {
		r := ready[0]
		ready = ready[1:]
		order = append(order, r)
		var opened []int
		for s := range compSuccs[r] {
			indeg[s]--
			if indeg[s] == 0 {
				opened = append(opened, s)
			}
		}
		sort.Ints(opened)
		ready = mergeSorted(ready, opened)
	}
	if len(order) != len(roots) {
		return nil, false
	}
	return order, true
}

func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// buildAFU creates the AFU definition for one cut and the custom
// instruction that replaces it. Input slots are the distinct external
// values feeding the cut; since resolveInputAliases ran, each input value
// is uniquely identified by its register at the custom instruction's
// issue point (anti-dependence edges keep readers of live-in values ahead
// of any redefinition).
func buildAFU(m *ir.Module, ctx *blockCtx, cut []int, model *latency.Model) (int, ir.Instr, error) {
	b := ctx.b
	member := map[int]bool{}
	for _, idx := range cut {
		member[idx] = true
	}
	type input struct {
		reg ir.Reg
		def int
	}
	var inputs []input
	inputSlot := map[ir.Reg]int{}
	for _, idx := range cut {
		for _, a := range b.Instrs[idx].Args {
			v := ctx.valueRead(a, idx)
			if v.def >= 0 && member[v.def] {
				continue
			}
			if _, seen := inputSlot[a]; !seen {
				inputSlot[a] = 0
				inputs = append(inputs, input{reg: a, def: v.def})
			}
		}
	}
	sort.Slice(inputs, func(i, j int) bool {
		if inputs[i].def != inputs[j].def {
			return inputs[i].def < inputs[j].def
		}
		return inputs[i].reg < inputs[j].reg
	})
	for i, in := range inputs {
		inputSlot[in.reg] = i
	}

	// Escaping member values: read by a later non-member, by the
	// terminator, or live out of the block.
	escapes := map[ir.Reg]bool{}
	for i := range b.Instrs {
		if member[i] {
			continue
		}
		for _, a := range b.Instrs[i].Args {
			v := ctx.valueRead(a, i)
			if v.def >= 0 && member[v.def] {
				escapes[a] = true
			}
		}
	}
	var outRegs []ir.Reg
	for _, idx := range cut {
		d := b.Instrs[idx].Dst()
		if d == ir.NoReg {
			return 0, ir.Instr{}, fmt.Errorf("core: member %d has no destination", idx)
		}
		if escapes[d] || ctx.termUses[d] || ctx.liveOut.Has(d) {
			outRegs = append(outRegs, d)
		}
	}

	// Micro-program: members in original order, one slot per member value.
	nSlots := len(inputs)
	slotOf := map[ir.Reg]int{}
	for r, s := range inputSlot {
		slotOf[r] = s
	}
	def := ir.AFUDef{NumIn: len(inputs)}
	slotDepth := map[int]float64{}
	var crit float64
	for _, idx := range cut {
		in := &b.Instrs[idx]
		op := ir.AFUOp{Op: in.Op, Imm: in.Imm, Dst: nSlots}
		depth := 0.0
		argSlots := make([]int, len(in.Args))
		for ai, a := range in.Args {
			s, ok := slotOf[a]
			if !ok {
				return 0, ir.Instr{}, fmt.Errorf("core: member %d: argument r%d has no slot", idx, a)
			}
			argSlots[ai] = s
			if slotDepth[s] > depth {
				depth = slotDepth[s]
			}
		}
		switch len(argSlots) {
		case 3:
			op.C = argSlots[2]
			fallthrough
		case 2:
			op.B = argSlots[1]
			fallthrough
		case 1:
			op.A = argSlots[0]
		}
		def.Body = append(def.Body, op)
		depth += model.HW(in.Op)
		slotDepth[nSlots] = depth
		if depth > crit {
			crit = depth
		}
		slotOf[in.Dst()] = nSlots
		def.Area += model.Area(in.Op)
		def.SourceOps = append(def.SourceOps, in.Op)
		nSlots++
	}
	def.NumSlots = nSlots
	for _, r := range outRegs {
		def.OutSlots = append(def.OutSlots, slotOf[r])
	}
	def.Latency = latency.CyclesOf(crit)
	if def.Latency < 1 {
		def.Latency = 1
	}
	def.Name = fmt.Sprintf("afu%d_%s_%s", len(m.AFUs), ctx.f.Name, b.Name)

	idx := m.AddAFU(def)
	custom := ir.Instr{Op: ir.OpCustom, AFU: idx}
	for _, in := range inputs {
		custom.Args = append(custom.Args, in.reg)
	}
	custom.Dsts = append(custom.Dsts, outRegs...)
	return idx, custom, nil
}
