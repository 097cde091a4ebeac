package passes

import "isex/internal/ir"

// IfConvert repeatedly converts triangle and diamond conditionals whose
// arms contain only speculatable (pure) instructions into straight-line
// code with SEL operations, then re-merges blocks. This is the "classic
// if-conversion pass" of §8 that produces the large dataflow blocks of
// Fig. 3 (the SEL nodes there are exactly these selects).
//
// The IR is not SSA, so each converted arm is cloned with fresh
// destination registers; for every register assigned by either arm a
// select merges the arm value with the incoming value:
//
//	r = sel(cond, value-in-then-arm, value-in-else-arm)
//
// Arms of any size are converted, as the paper does for its kernels.
// It returns true if anything changed.
func IfConvert(f *ir.Function) bool {
	changed := false
	for {
		MergeBlocks(f)
		converted := false
		for _, b := range f.Blocks {
			if convertAt(f, b) {
				converted = true
				break // CFG changed; restart scan
			}
		}
		if !converted {
			return changed
		}
		changed = true
	}
}

// speculatable reports whether every instruction of the block may be
// executed unconditionally.
func speculatable(b *ir.Block) bool {
	for i := range b.Instrs {
		op := b.Instrs[i].Op
		if !op.Pure() {
			return false
		}
		// Division traps on zero, so it may not be speculated.
		if op == ir.OpDiv || op == ir.OpRem {
			return false
		}
	}
	return true
}

// convertAt tries to if-convert the conditional rooted at block a.
func convertAt(f *ir.Function, a *ir.Block) bool {
	if a.Term.Kind != ir.TermBranch {
		return false
	}
	thenB, elseB := a.Term.Targets[0], a.Term.Targets[1]
	cond := a.Term.Cond

	isArm := func(arm, join *ir.Block) bool {
		return arm != a && arm != f.Entry() && len(arm.Preds) == 1 &&
			arm.Term.Kind == ir.TermJump && arm.Term.Targets[0] == join &&
			speculatable(arm)
	}

	var armT, armE *ir.Block
	var join *ir.Block
	switch {
	// Diamond: a -> T -> J, a -> E -> J.
	case thenB.Term.Kind == ir.TermJump && elseB.Term.Kind == ir.TermJump &&
		thenB.Term.Targets[0] == elseB.Term.Targets[0] &&
		isArm(thenB, thenB.Term.Targets[0]) && isArm(elseB, thenB.Term.Targets[0]):
		armT, armE, join = thenB, elseB, thenB.Term.Targets[0]
	// Triangle: a -> T -> E (else edge is the join).
	case isArm(thenB, elseB):
		armT, join = thenB, elseB
	// Inverted triangle: a -> E -> T (then edge is the join).
	case isArm(elseB, thenB):
		armE, join = elseB, thenB
	default:
		return false
	}
	if join == a {
		return false
	}

	// Only registers whose value is observable after the conditional need
	// a merging select; arm-internal temporaries must not be merged (a
	// `r = sel(c, x, r)` for a dead temp keeps itself alive around any
	// enclosing loop and pollutes the dataflow graph with false outputs).
	liveAtJoin := ir.Liveness(f).In[join.Index]

	// Clone an arm into a with fresh destinations; return the rename map.
	cloneArm := func(arm *ir.Block) map[ir.Reg]ir.Reg {
		rename := map[ir.Reg]ir.Reg{}
		if arm == nil {
			return rename
		}
		for i := range arm.Instrs {
			src := &arm.Instrs[i]
			in := ir.Instr{Op: src.Op, Imm: src.Imm, Sym: src.Sym, AFU: src.AFU}
			in.Args = make([]ir.Reg, len(src.Args))
			for j, r := range src.Args {
				if nr, ok := rename[r]; ok {
					in.Args[j] = nr
				} else {
					in.Args[j] = r
				}
			}
			in.Dsts = make([]ir.Reg, len(src.Dsts))
			for j, r := range src.Dsts {
				fresh := f.NewReg()
				in.Dsts[j] = fresh
				rename[r] = fresh
			}
			a.Instrs = append(a.Instrs, in)
		}
		return rename
	}
	renT := cloneArm(armT)
	renE := cloneArm(armE)

	// Deterministic iteration over assigned registers: collect in arm
	// order (then-arm first), de-duplicated.
	var assigned []ir.Reg
	seen := map[ir.Reg]bool{}
	collect := func(arm *ir.Block) {
		if arm == nil {
			return
		}
		for i := range arm.Instrs {
			for _, d := range arm.Instrs[i].Dsts {
				if !seen[d] && liveAtJoin.Has(d) {
					seen[d] = true
					assigned = append(assigned, d)
				}
			}
		}
	}
	collect(armT)
	collect(armE)

	for _, r := range assigned {
		vT, vE := r, r
		if nr, ok := renT[r]; ok {
			vT = nr
		}
		if nr, ok := renE[r]; ok {
			vE = nr
		}
		a.Instrs = append(a.Instrs, ir.Instr{
			Op:   ir.OpSelect,
			Dsts: []ir.Reg{r},
			Args: []ir.Reg{cond, vT, vE},
		})
	}
	a.Term = ir.Term{Kind: ir.TermJump, Targets: []*ir.Block{join}}
	f.RecomputeCFG()
	RemoveUnreachable(f)
	return true
}
