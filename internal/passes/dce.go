package passes

import "isex/internal/ir"

// Coalesce removes the copies the front end emits for assignments to
// named variables: when an instruction defines a temporary whose single
// local use is an immediately reachable `var = copy temp` in the same
// block (with no intervening redefinition of var or use of temp after),
// the defining instruction is rewritten to target var directly.
//
// The simple, clearly-correct special case implemented here is the
// adjacent pair
//
//	t = op ...
//	v = copy t
//
// where t is not used later in the block and is not live out of it. This
// pattern is exactly what lowering produces, so it removes nearly all
// front-end copies; anything left is handled by DCE.
func Coalesce(f *ir.Function) bool {
	li := ir.Liveness(f)
	changed := false
	for _, b := range f.Blocks {
		liveOut := li.Out[b.Index]
		for i := 0; i+1 < len(b.Instrs); i++ {
			def := &b.Instrs[i]
			cp := &b.Instrs[i+1]
			if cp.Op != ir.OpCopy || len(def.Dsts) != 1 {
				continue
			}
			t := def.Dsts[0]
			if cp.Args[0] != t || cp.Dsts[0] == t {
				continue
			}
			if usedAfter(b, i+2, t) || liveOut.Has(t) {
				continue
			}
			// The copy itself must not feed the terminator via t; checked
			// by usedAfter/liveOut above (terminator uses are in liveOut
			// only if t survives the block — check explicitly).
			if termUsesReg(&b.Term, t) {
				continue
			}
			def.Dsts[0] = cp.Dsts[0]
			// Replace the copy with a no-op by deleting it.
			b.Instrs = append(b.Instrs[:i+1], b.Instrs[i+2:]...)
			changed = true
			i-- // re-examine the rewritten instruction with its new neighbor
		}
	}
	return changed
}

func usedAfter(b *ir.Block, from int, r ir.Reg) bool {
	for i := from; i < len(b.Instrs); i++ {
		for _, a := range b.Instrs[i].Args {
			if a == r {
				return true
			}
		}
		for _, d := range b.Instrs[i].Dsts {
			if d == r {
				return false // redefined before any further use
			}
		}
	}
	return false
}

func termUsesReg(t *ir.Term, r ir.Reg) bool {
	if t.Kind == ir.TermBranch && t.Cond == r {
		return true
	}
	if t.Kind == ir.TermRet && t.HasVal && t.Val == r {
		return true
	}
	return false
}

// DeadCodeElim removes instructions whose results are never used: pure
// operations (and loads — this IR has no volatile memory) defining only
// registers that are dead immediately after the instruction. Stores,
// calls, custom instructions and allocas are never removed.
// It iterates to a fixpoint and reports whether anything changed.
func DeadCodeElim(f *ir.Function) bool {
	changed := false
	// One live set and one keep mask serve every block of every round;
	// each block is compacted in place.
	live := ir.NewRegSet(f.NumRegs)
	var keep []bool
	for {
		li := ir.Liveness(f)
		round := false
		for _, b := range f.Blocks {
			copy(live, li.Out[b.Index])
			// Mark terminator uses.
			if b.Term.Kind == ir.TermBranch {
				live.Add(b.Term.Cond)
			}
			if b.Term.Kind == ir.TermRet && b.Term.HasVal {
				live.Add(b.Term.Val)
			}
			// Backward sweep.
			keep = append(keep[:0], make([]bool, len(b.Instrs))...)
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				in := &b.Instrs[i]
				removable := in.Op.Pure() || in.Op == ir.OpLoad || in.Op == ir.OpGlobal
				anyLive := false
				for _, d := range in.Dsts {
					if live.Has(d) {
						anyLive = true
					}
				}
				if removable && !anyLive {
					round = true
					continue
				}
				for _, d := range in.Dsts {
					live.Remove(d)
				}
				for _, a := range in.Args {
					live.Add(a)
				}
				keep[i] = true
			}
			kept := b.Instrs[:0]
			for i := range b.Instrs {
				if keep[i] {
					kept = append(kept, b.Instrs[i])
				}
			}
			clear(b.Instrs[len(kept):])
			b.Instrs = kept
		}
		if !round {
			return changed
		}
		changed = true
	}
}
