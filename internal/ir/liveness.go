package ir

import "math/bits"

// LiveInfo holds the result of liveness analysis for one function:
// for every block, the registers live on entry and on exit.
type LiveInfo struct {
	In  []RegSet // indexed by Block.Index
	Out []RegSet
}

// Liveness computes classic backward may-liveness over the CFG.
// Block indices must be current (call RecomputeCFG after edits).
//
// Only a register that some block reads before writing it can be live
// on a block boundary: these are the global names of semi-pruned SSA
// (Briggs, Cooper, Harvey and Simpson, 1998). A function of thousands
// of registers typically has a few dozen, so the fixpoint runs on sets
// over the global names only, numbered densely in register order, and
// the result is widened to register numbering once at the end. Every
// set lives in one of two slabs: the result's and the solver's.
func Liveness(f *Function) *LiveInfo {
	n := len(f.Blocks)
	w := (f.NumRegs + 63) / 64
	sets := make([]RegSet, 2*n)
	li := &LiveInfo{In: sets[:n:n], Out: sets[n:]}
	// The result's sets, followed by two scratch sets: the global names,
	// and the registers defined so far in the block being scanned.
	slab := make([]uint64, (2*n+2)*w)
	for i := range sets {
		sets[i] = RegSet(slab[i*w : (i+1)*w : (i+1)*w])
	}
	global, defd := RegSet(slab[2*n*w:(2*n+1)*w]), RegSet(slab[(2*n+1)*w:])

	for _, b := range f.Blocks {
		for j := range b.Instrs {
			in := &b.Instrs[j]
			for _, r := range in.Args {
				if !defd.Has(r) {
					global.Add(r)
				}
			}
			for _, r := range in.Dsts {
				defd.Add(r)
			}
		}
		if r, ok := termUse(&b.Term); ok && !defd.Has(r) {
			global.Add(r)
		}
		clear(defd)
	}

	// Dense numbering: names[k] is the k-th global name, and before[wi]
	// counts the global names in the words below wi. It reuses defd's
	// storage, which the scan left clear.
	names := make([]Reg, 0, global.Count())
	before := []uint64(defd)
	for wi, word := range global {
		before[wi] = uint64(len(names))
		for ; word != 0; word &= word - 1 {
			names = append(names, Reg(wi*64+bits.TrailingZeros64(word)))
		}
	}
	if len(names) == 0 {
		return li
	}
	dense := func(r Reg) (Reg, bool) {
		if !global.Has(r) {
			return 0, false
		}
		below := global[r>>6] & (1<<(uint(r)&63) - 1)
		return Reg(before[r>>6]) + Reg(bits.OnesCount64(below)), true
	}

	// Per block over the global names: in (seeded with the upward-exposed
	// uses), out, and the names defined in the block.
	gw := (len(names) + 63) / 64
	solver := make([]uint64, 3*n*gw)
	set := func(kind, i int) RegSet {
		at := (kind*n + i) * gw
		return RegSet(solver[at : at+gw : at+gw])
	}
	const inSet, outSet, defSet = 0, 1, 2
	for i, b := range f.Blocks {
		use, def := set(inSet, i), set(defSet, i)
		for j := range b.Instrs {
			in := &b.Instrs[j]
			for _, r := range in.Args {
				if k, ok := dense(r); ok && !def.Has(k) {
					use.Add(k)
				}
			}
			for _, r := range in.Dsts {
				if k, ok := dense(r); ok {
					def.Add(k)
				}
			}
		}
		if r, ok := termUse(&b.Term); ok {
			if k, ok := dense(r); ok && !def.Has(k) {
				use.Add(k)
			}
		}
	}
	// Iterate to fixpoint; reverse order converges fast on reducible CFGs.
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			out := set(outSet, i)
			for _, s := range f.Blocks[i].Succs() {
				if out.UnionWith(set(inSet, s.Index)) {
					changed = true
				}
			}
			// in = use ∪ (out − def); in already holds use.
			in, def := set(inSet, i), set(defSet, i)
			for wi := range out {
				if nv := in[wi] | out[wi]&^def[wi]; nv != in[wi] {
					in[wi] = nv
					changed = true
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		widen(li.In[i], set(inSet, i), names)
		widen(li.Out[i], set(outSet, i), names)
	}
	return li
}

// termUse returns the register the terminator reads, if any: a branch
// reads its condition, a return its value.
func termUse(t *Term) (Reg, bool) {
	switch {
	case t.Kind == TermBranch:
		return t.Cond, true
	case t.Kind == TermRet && t.HasVal:
		return t.Val, true
	}
	return NoReg, false
}

// widen adds to dst the register of every dense index in s.
func widen(dst, s RegSet, names []Reg) {
	for wi, word := range s {
		for ; word != 0; word &= word - 1 {
			dst.Add(names[wi*64+bits.TrailingZeros64(word)])
		}
	}
}
