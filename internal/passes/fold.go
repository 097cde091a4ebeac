package passes

import "isex/internal/ir"

// LocalOptimize performs, per basic block, an integrated local value
// numbering pass with constant folding, algebraic simplification and copy
// propagation. It returns true if anything changed.
//
// The IR is not SSA; value numbers are attached to registers and
// invalidated on redefinition, in the classic LVN manner. Loads are value
// numbered within a "memory epoch" that every store, call, custom
// instruction or alloca advances.
func LocalOptimize(f *ir.Function) bool {
	changed := false
	s := newVNState(f.NumRegs)
	for _, b := range f.Blocks {
		if s.optimizeBlock(b) {
			changed = true
		}
		s.reset()
	}
	return changed
}

// exprKind separates the expression families that share exprVN.
type exprKind uint8

const (
	exprConst  exprKind = iota // a: the constant
	exprLoad                   // a: address value number, b: memory epoch
	exprGlobal                 // a: the global's symbol number
	exprPure                   // op, arity and up to three value numbers
)

// exprKey identifies an expression for value numbering. A pure
// operation's arity is 1 to 3, or 0 for any other arity (which then
// keys on the opcode alone). Global symbols are numbered, so the key
// holds no string and hashes as 16 plain bytes.
type exprKey struct {
	kind    exprKind
	op      ir.Op
	arity   uint8
	a, b, c int32
}

// vnInfo is what is known about one value number.
type vnInfo struct {
	rep     ir.Reg // a register that held it (NoReg if none yet)
	isConst bool
	c       int32
}

// vnState is the value-numbering state of the block being optimized.
// It is reused across a function's blocks: value numbers restart at 1
// in every block, and reset undoes only the registers it touched.
type vnState struct {
	regVN    []int32 // current value number of each register; 0 = none
	touched  []ir.Reg
	vns      []vnInfo // indexed by value number; vns[0] is unused
	exprVN   map[exprKey]int32
	syms     map[string]int32 // global symbol -> its number in exprKey
	memEpoch int32
	argVNs   []int32 // processPure's scratch
	consts   []int32
}

func newVNState(numRegs int) *vnState {
	return &vnState{
		regVN:  make([]int32, numRegs),
		vns:    make([]vnInfo, 1),
		exprVN: map[exprKey]int32{},
	}
}

// reset forgets everything learned in the block just optimized.
func (s *vnState) reset() {
	for _, r := range s.touched {
		s.regVN[r] = 0
	}
	s.touched = s.touched[:0]
	s.vns = s.vns[:1]
	clear(s.exprVN)
	s.memEpoch = 0
}

// newVN allocates a fresh value number.
func (s *vnState) newVN() int32 {
	s.vns = append(s.vns, vnInfo{rep: ir.NoReg})
	return int32(len(s.vns) - 1)
}

// symbol returns the number of a global symbol, stable for the whole
// function.
func (s *vnState) symbol(sym string) int32 {
	id, ok := s.syms[sym]
	if !ok {
		if s.syms == nil {
			s.syms = map[string]int32{}
		}
		id = int32(len(s.syms))
		s.syms[sym] = id
	}
	return id
}

// constOf returns the constant value number vn stands for, if known.
func (s *vnState) constOf(vn int32) (int32, bool) {
	return s.vns[vn].c, s.vns[vn].isConst
}

// vnOf returns the value number of r, creating a fresh one if unknown.
func (s *vnState) vnOf(r ir.Reg) int32 {
	if vn := s.regVN[r]; vn != 0 {
		return vn
	}
	vn := s.newVN()
	s.setReg(r, vn)
	return vn
}

// setReg records that r now holds value number vn.
func (s *vnState) setReg(r ir.Reg, vn int32) {
	if s.regVN[r] == 0 {
		s.touched = append(s.touched, r) // for reset
	}
	s.regVN[r] = vn
	if rep := s.vns[vn].rep; rep == ir.NoReg || rep == r {
		s.vns[vn].rep = r
	}
}

// repOf returns a register currently holding vn, if any.
func (s *vnState) repOf(vn int32) (ir.Reg, bool) {
	rep := s.vns[vn].rep
	if rep == ir.NoReg || s.regVN[rep] != vn {
		return 0, false // none yet, or the representative was overwritten
	}
	return rep, true
}

func (s *vnState) optimizeBlock(b *ir.Block) bool {
	changed := false
	out := b.Instrs[:0]
	for i := range b.Instrs {
		in := b.Instrs[i]
		// Propagate: replace every argument by the representative of its
		// value number when that is a different register (copy/CSE prop).
		// Constant-valued arguments are deliberately NOT unified: each use
		// keeps its own materialized constant, as an ISA's inline
		// immediates would. Sharing one constant register across the block
		// would entangle unrelated dataflow (a cut containing the shared
		// node would export it as an output), which neither real code nor
		// the paper's graphs (Fig. 3 draws constants per use) exhibit.
		for j, a := range in.Args {
			vn := s.vnOf(a)
			if _, isConst := s.constOf(vn); isConst {
				continue
			}
			if rep, ok := s.repOf(vn); ok && rep != a {
				in.Args[j] = rep
				changed = true
			}
		}
		if rewritten, didChange := s.process(&in); didChange {
			changed = true
			in = rewritten
		}
		out = append(out, in)
	}
	b.Instrs = out
	return changed
}

// process value-numbers one instruction, possibly rewriting it to a
// simpler form. It returns (newInstr, true) when the instruction was
// rewritten and false when it is kept as is.
func (s *vnState) process(in *ir.Instr) (ir.Instr, bool) {
	switch {
	case in.Op == ir.OpStore, in.Op == ir.OpCall, in.Op == ir.OpCustom, in.Op == ir.OpAlloca:
		s.memEpoch++
		for _, d := range in.Dsts {
			s.killReg(d)
			s.setReg(d, s.newVN())
		}
		return ir.Instr{}, false
	case in.Op == ir.OpCopy:
		vn := s.vnOf(in.Args[0])
		s.killReg(in.Dsts[0])
		s.setReg(in.Dsts[0], vn)
		return ir.Instr{}, false
	case in.Op == ir.OpConst:
		// Equal constants share a value number (so expressions over them
		// CSE), but every constant instruction is kept: see the
		// propagation comment above.
		v := int32(in.Imm)
		key := exprKey{kind: exprConst, a: v}
		vn, known := s.exprVN[key]
		if !known {
			vn = s.newVN()
			s.exprVN[key] = vn
			s.vns[vn].isConst, s.vns[vn].c = true, v
		}
		s.killReg(in.Dsts[0])
		s.setReg(in.Dsts[0], vn)
		return ir.Instr{}, false
	case in.Op == ir.OpLoad:
		return s.finishExpr(in, exprKey{kind: exprLoad, a: s.vnOf(in.Args[0]), b: s.memEpoch})
	case in.Op == ir.OpGlobal:
		return s.finishExpr(in, exprKey{kind: exprGlobal, a: s.symbol(in.Sym)})
	case in.Op.Pure():
		return s.processPure(in)
	}
	// Unknown/defensive: kill destinations.
	for _, d := range in.Dsts {
		s.killReg(d)
		s.setReg(d, s.newVN())
	}
	return ir.Instr{}, false
}

// finishExpr assigns dst the value number of key, reusing an existing
// representative when possible (rewriting to a copy). The boolean
// reports whether the instruction was rewritten.
func (s *vnState) finishExpr(in *ir.Instr, key exprKey) (ir.Instr, bool) {
	dst := in.Dsts[0]
	if vn, ok := s.exprVN[key]; ok {
		if rep, live := s.repOf(vn); live && rep != dst {
			ni := ir.Instr{Op: ir.OpCopy, Dsts: in.Dsts, Args: []ir.Reg{rep}}
			s.killReg(dst)
			s.setReg(dst, vn)
			return ni, true
		}
		s.killReg(dst)
		s.setReg(dst, vn)
		return ir.Instr{}, false
	}
	vn := s.newVN()
	s.exprVN[key] = vn
	s.killReg(dst)
	s.setReg(dst, vn)
	return ir.Instr{}, false
}

// toConst rewrites in to define constant c, value-numbering the result.
func (s *vnState) toConst(in *ir.Instr, c int32) (ir.Instr, bool) {
	ni := ir.Instr{Op: ir.OpConst, Dsts: in.Dsts, Imm: int64(c)}
	s.process(&ni)
	return ni, true
}

// processPure folds, simplifies and value-numbers a pure operation.
func (s *vnState) processPure(in *ir.Instr) (ir.Instr, bool) {
	dst := in.Dsts[0]
	s.argVNs, s.consts = s.argVNs[:0], s.consts[:0]
	allConst := true
	for _, a := range in.Args {
		vn := s.vnOf(a)
		c, ok := s.constOf(vn)
		allConst = allConst && ok
		s.argVNs, s.consts = append(s.argVNs, vn), append(s.consts, c)
	}
	argVNs := s.argVNs
	// Full constant folding.
	if allConst {
		var c [3]int32
		copy(c[:], s.consts)
		if v, err := ir.Eval(in.Op, in.Imm, c[0], c[1], c[2]); err == nil {
			return s.toConst(in, v)
		}
	}
	// Algebraic simplification to a copy of an argument, where valid.
	if src, ok := simplify(in.Op, in.Args, argVNs, s); ok {
		vn := s.vnOf(src)
		s.killReg(dst)
		s.setReg(dst, vn)
		return ir.Instr{Op: ir.OpCopy, Dsts: in.Dsts, Args: []ir.Reg{src}}, true
	}
	// Simplification to a constant (e.g. x-x, x^x, x*0).
	if c, ok := simplifyToConst(in.Op, argVNs, s); ok {
		return s.toConst(in, c)
	}
	key := exprKey{kind: exprPure, op: in.Op}
	switch len(argVNs) {
	case 1:
		key.arity, key.a = 1, argVNs[0]
	case 2:
		// Canonicalize commutative operand order by value number for
		// better CSE hits.
		key.arity, key.a, key.b = 2, argVNs[0], argVNs[1]
		if in.Op.Info().Commutative && key.a > key.b {
			key.a, key.b = key.b, key.a
		}
	case 3:
		key.arity, key.a, key.b, key.c = 3, argVNs[0], argVNs[1], argVNs[2]
	}
	return s.finishExpr(in, key)
}

func (s *vnState) killReg(r ir.Reg) {
	s.regVN[r] = 0
}

// simplify returns an argument register the instruction is equivalent to.
func simplify(op ir.Op, args []ir.Reg, vns []int32, s *vnState) (ir.Reg, bool) {
	c := func(i int) (int32, bool) { return s.constOf(vns[i]) }
	switch op {
	case ir.OpAdd, ir.OpOr, ir.OpXor:
		if v, ok := c(1); ok && v == 0 {
			return args[0], true
		}
		if v, ok := c(0); ok && v == 0 {
			return args[1], true
		}
	case ir.OpSub, ir.OpShl, ir.OpAShr, ir.OpLShr:
		if v, ok := c(1); ok && v == 0 {
			return args[0], true
		}
	case ir.OpMul:
		if v, ok := c(1); ok && v == 1 {
			return args[0], true
		}
		if v, ok := c(0); ok && v == 1 {
			return args[1], true
		}
	case ir.OpDiv:
		if v, ok := c(1); ok && v == 1 {
			return args[0], true
		}
	case ir.OpAnd:
		if v, ok := c(1); ok && v == -1 {
			return args[0], true
		}
		if v, ok := c(0); ok && v == -1 {
			return args[1], true
		}
		if vns[0] == vns[1] {
			return args[0], true
		}
	case ir.OpSelect:
		if v, ok := c(0); ok {
			if v != 0 {
				return args[1], true
			}
			return args[2], true
		}
		if vns[1] == vns[2] {
			return args[1], true
		}
	case ir.OpMin, ir.OpMax:
		if vns[0] == vns[1] {
			return args[0], true
		}
	}
	if op == ir.OpOr && vns[0] == vns[1] {
		return args[0], true
	}
	return 0, false
}

// simplifyToConst recognizes identities that yield a constant.
func simplifyToConst(op ir.Op, vns []int32, s *vnState) (int32, bool) {
	switch op {
	case ir.OpSub, ir.OpXor:
		if len(vns) == 2 && vns[0] == vns[1] {
			return 0, true
		}
	case ir.OpMul, ir.OpAnd:
		for i := range vns {
			if v, ok := s.constOf(vns[i]); ok && v == 0 {
				return 0, true
			}
		}
	case ir.OpEq, ir.OpLe, ir.OpGe, ir.OpULe, ir.OpUGe:
		if vns[0] == vns[1] {
			return 1, true
		}
	case ir.OpNe, ir.OpLt, ir.OpGt, ir.OpULt, ir.OpUGt:
		if vns[0] == vns[1] {
			return 0, true
		}
	}
	return 0, false
}
