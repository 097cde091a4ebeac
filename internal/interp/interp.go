// Package interp executes IR modules. It plays three roles in the
// reproduction:
//
//  1. Correctness oracle for the front end and for cut collapsing: a
//     program must compute the same outputs before and after custom
//     instructions are patched in.
//  2. Profiler: it records dynamic basic-block execution counts, which
//     weight the merit function M(S) of the paper (§7).
//  3. Substrate for the cycle-accounting simulator (package sim), which
//     charges each block's static cost once per recorded block entry.
//
// A function runs from a decoded form: on its first call its blocks and
// branch targets are resolved, and on a block's first entry its
// instructions are decoded into a flat array with register operands as
// frame indexes and symbols and callees resolved, so the inner loop does
// no lookup (DESIGN §23).
package interp

import (
	"fmt"

	"isex/internal/ir"
)

// DefaultStepLimit bounds the number of executed instructions, so tests
// cannot hang on accidental infinite loops.
const DefaultStepLimit = 200_000_000

// Env is an execution environment: a module, its memory image and
// profiling state. Each function is decoded on its first call and the
// decoded form is kept, so the module's functions and AFUs must not
// change while the environment is in use.
type Env struct {
	Mod *ir.Module
	// Mem is a flat word-addressed memory. Globals live at the bottom;
	// OpAlloca bump-allocates above them.
	Mem []int32
	// Profile, when true, increments Block.Freq for every block executed.
	Profile bool
	// StepLimit bounds executed instructions and terminators
	// (DefaultStepLimit if 0). It is checked once per block entry for the
	// whole block, so a run that would cross the limit inside a block
	// stops before entering that block, with the same error.
	StepLimit int64
	// MaxCallDepth bounds recursion (DefaultMaxCallDepth if 0), so a
	// runaway recursive program errors out instead of exhausting the host
	// stack.
	MaxCallDepth int

	globalBase []int32 // memory address of Mod.Globals[i]
	funcs      []*code // Mod.Funcs[i] decoded; nil until its first call
	// slots and out are the custom instructions' slot and output
	// buffers, sized at decode for every AFU a decoded function runs.
	slots, out []int32
	// stack[sp:] is free for the frames of further calls (see push).
	stack    []int32
	sp       int
	heapBase int32
	heapTop  int32
	steps    int64
	depth    int
}

// DefaultMaxCallDepth bounds recursion depth.
const DefaultMaxCallDepth = 10_000

// NewEnv builds an environment with globals laid out and initialized.
func NewEnv(m *ir.Module) *Env {
	e := &Env{Mod: m, globalBase: make([]int32, len(m.Globals)), funcs: make([]*code, len(m.Funcs))}
	base := int32(0)
	for i := range m.Globals {
		e.globalBase[i] = base
		base += int32(m.Globals[i].Size)
	}
	e.Mem = make([]int32, base)
	for i := range m.Globals {
		copy(e.Mem[e.globalBase[i]:], m.Globals[i].Init)
	}
	e.heapBase = base
	e.heapTop = base
	return e
}

// Steps returns the number of IR instructions and terminators executed
// so far.
func (e *Env) Steps() int64 { return e.steps }

// BlockEntries calls visit once for every block of every function the
// environment has run, with the number of times the block was entered
// since NewEnv; blocks never entered are skipped. On a run that
// completes, each entry executed the block's instructions and its
// terminator once.
func (e *Env) BlockEntries(visit func(b *ir.Block, entries int64)) {
	for _, c := range e.funcs {
		if c == nil {
			continue
		}
		for i := range c.blocks {
			if n := c.blocks[i].entries; n > 0 {
				visit(c.blocks[i].src, n)
			}
		}
	}
}

// GlobalSlice returns the live memory of the named global.
func (e *Env) GlobalSlice(name string) ([]int32, error) {
	gi := e.Mod.GlobalIndex(name)
	if gi < 0 {
		return nil, fmt.Errorf("interp: unknown global %q", name)
	}
	b := e.globalBase[gi]
	return e.Mem[b : b+int32(e.Mod.Globals[gi].Size)], nil
}

// SetGlobal copies vals into the named global's memory.
func (e *Env) SetGlobal(name string, vals []int32) error {
	s, err := e.GlobalSlice(name)
	if err != nil {
		return err
	}
	if len(vals) > len(s) {
		return fmt.Errorf("interp: %d values exceed global %q size %d", len(vals), name, len(s))
	}
	copy(s, vals)
	return nil
}

// Call runs the named function with the given arguments and returns its
// result (hasRet reports whether the function returned a value).
func (e *Env) Call(name string, args ...int32) (ret int32, hasRet bool, err error) {
	fi := e.funcIndex(name)
	if fi < 0 {
		return 0, false, fmt.Errorf("interp: unknown function %q", name)
	}
	f := e.Mod.Funcs[fi]
	if len(args) != len(f.Params) {
		return 0, false, fmt.Errorf("interp: %s expects %d args, got %d", f.Name, len(f.Params), len(args))
	}
	c := e.decoded(fi)
	regs := e.push(c.nregs)
	for i, p := range f.Params {
		regs[reg(p)] = args[i]
	}
	ret, hasRet, err = e.run(c, regs)
	e.sp -= c.nregs
	return ret, hasRet, err
}

// push returns a zeroed frame of n words on top of the frame stack; the
// caller pops it by lowering sp by n once the call returns, so calls
// allocate only while the stack grows. A stack too small for the frame
// is replaced by a larger one, and the frames of the active calls stay
// in the arrays they were given.
func (e *Env) push(n int) []int32 {
	if e.sp+n > len(e.stack) {
		e.stack = make([]int32, max(2*len(e.stack), e.sp+n))
	}
	f := e.stack[e.sp : e.sp+n : e.sp+n]
	clear(f)
	e.sp += n
	return f
}

func (e *Env) funcIndex(name string) int {
	for i, f := range e.Mod.Funcs {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// code is a function decoded for execution. Register r of the function
// is frame slot r+1, and slot 0 is a zero register that absent operands
// (ir.NoReg) read and nothing writes.
type code struct {
	fn     *ir.Function
	nregs  int     // frame size: NumRegs plus the zero register
	blocks []block // fn.Blocks in order, then any other block a terminator targets
	ext    []ext   // calls, custom instructions and traps of the decoded blocks
}

// block is one basic block. Its terminator is decoded with the function
// and its instructions on its first entry, so a block that never runs
// costs no instruction decoding.
type block struct {
	src     *ir.Block
	instrs  []instr // src.Instrs decoded
	entries int64
	next    [2]int32    // target block indexes
	val     int32       // the branch condition or the returned register
	kind    ir.TermKind // TermNone also stands for a jump or branch without its targets
	hasVal  bool
	decoded bool
}

// instr is one decoded instruction: dst = op(a, b, c) through ir.Eval
// for the pure operations, with these exceptions, whose a is not a
// register:
//   - OpConst sets dst to a, the constant that ir.Eval gave at decode; a
//     known OpGlobal decodes to an OpConst of the global's address.
//   - OpAlloca reserves a words.
//   - OpCall and OpCustom find their operands in code.ext[a].
//   - OpInvalid traps with the error code.ext[a].err: an unknown global
//     or callee, a bad AFU index, or an argument or result count that
//     does not match, so such an instruction fails only when it runs.
type instr struct {
	op      ir.Op
	dst     int32
	a, b, c int32 // operands; 0 (the zero register) where absent
}

// ext holds what an OpCall, OpCustom or trap needs beyond an instr.
type ext struct {
	target     int     // callee index in Mod.Funcs, or AFU index in Mod.AFUs
	args, dsts []int32 // frame slots
	err        error   // a trap's error
}

// reg maps a register to its frame slot; ir.NoReg maps to the zero
// register.
func reg(r ir.Reg) int32 { return int32(r) + 1 }

// decoded returns Mod.Funcs[fi] decoded, decoding it on its first call.
func (e *Env) decoded(fi int) *code {
	if c := e.funcs[fi]; c != nil {
		return c
	}
	f := e.Mod.Funcs[fi]
	c := &code{fn: f, nregs: f.NumRegs + 1, blocks: make([]block, len(f.Blocks))}
	for i, b := range f.Blocks {
		c.blocks[i].src = b
	}
	// Terminators may append blocks outside fn.Blocks, which the loop
	// then decodes too.
	for bi := 0; bi < len(c.blocks); bi++ {
		t := &c.blocks[bi].src.Term
		kind, val, next := t.Kind, int32(0), [2]int32{}
		switch {
		case kind == ir.TermJump && len(t.Targets) >= 1 && t.Targets[0] != nil:
			next[0] = c.blockIndex(t.Targets[0])
		case kind == ir.TermBranch && len(t.Targets) >= 2 && t.Targets[0] != nil && t.Targets[1] != nil:
			val = reg(t.Cond)
			next[0], next[1] = c.blockIndex(t.Targets[0]), c.blockIndex(t.Targets[1])
		case kind == ir.TermRet:
			val = reg(t.Val)
		default:
			kind = ir.TermNone
		}
		blk := &c.blocks[bi]
		blk.kind, blk.val, blk.hasVal, blk.next = kind, val, t.HasVal, next
	}
	e.funcs[fi] = c
	return c
}

// blockIndex returns the decoded index of block t. t.Index is only a
// hint, checked before use; a block outside fn.Blocks is appended.
func (c *code) blockIndex(t *ir.Block) int32 {
	if i := t.Index; i >= 0 && i < len(c.blocks) && c.blocks[i].src == t {
		return int32(i)
	}
	for i := range c.blocks {
		if c.blocks[i].src == t {
			return int32(i)
		}
	}
	c.blocks = append(c.blocks, block{src: t})
	return int32(len(c.blocks) - 1)
}

// decodeBlock decodes blk's instructions.
func (e *Env) decodeBlock(c *code, blk *block) {
	blk.instrs = make([]instr, len(blk.src.Instrs))
	for i := range blk.src.Instrs {
		in, d := &blk.src.Instrs[i], &blk.instrs[i]
		d.op = in.Op
		if len(in.Dsts) > 0 {
			d.dst = reg(in.Dsts[0])
		}
		if len(in.Args) <= 3 {
			args := [3]ir.Reg{ir.NoReg, ir.NoReg, ir.NoReg}
			copy(args[:], in.Args)
			d.a, d.b, d.c = reg(args[0]), reg(args[1]), reg(args[2])
		}
		x, err := e.resolve(in, d)
		switch {
		case err != nil:
			d.op, d.a = ir.OpInvalid, int32(len(c.ext))
			c.ext = append(c.ext, ext{err: err})
		case in.Op == ir.OpCall || in.Op == ir.OpCustom:
			ops := make([]int32, len(in.Args)+len(in.Dsts))
			for j, r := range in.Args {
				ops[j] = reg(r)
			}
			for j, r := range in.Dsts {
				ops[len(in.Args)+j] = reg(r)
			}
			d.a = int32(len(c.ext))
			c.ext = append(c.ext, ext{target: x, args: ops[:len(in.Args)], dsts: ops[len(in.Args):]})
		}
	}
	blk.decoded = true
}

// resolve completes d for the instructions whose a is not a register,
// and returns the callee or AFU index of a call or custom instruction,
// or the error a trap must report instead.
func (e *Env) resolve(in *ir.Instr, d *instr) (int, error) {
	switch in.Op {
	case ir.OpInvalid:
		_, err := ir.Eval(in.Op, in.Imm, 0, 0, 0)
		return 0, err
	case ir.OpConst:
		d.a, _ = ir.Eval(in.Op, in.Imm, 0, 0, 0)
	case ir.OpAlloca:
		d.a = int32(in.Imm)
	case ir.OpGlobal:
		gi := e.Mod.GlobalIndex(in.Sym)
		if gi < 0 {
			return 0, fmt.Errorf("unknown global %q", in.Sym)
		}
		d.op, d.a = ir.OpConst, e.globalBase[gi]
	case ir.OpCall:
		fi := e.funcIndex(in.Sym)
		if fi < 0 {
			return 0, fmt.Errorf("unknown function %q", in.Sym)
		}
		if callee := e.Mod.Funcs[fi]; len(in.Args) != len(callee.Params) {
			return 0, fmt.Errorf("interp: %s expects %d args, got %d", callee.Name, len(callee.Params), len(in.Args))
		}
		return fi, nil
	case ir.OpCustom:
		if in.AFU < 0 || in.AFU >= len(e.Mod.AFUs) {
			return 0, fmt.Errorf("bad AFU index %d", in.AFU)
		}
		afu := &e.Mod.AFUs[in.AFU]
		if len(in.Args) != afu.NumIn {
			return 0, fmt.Errorf("ir: afu %s: got %d inputs, want %d", afu.Name, len(in.Args), afu.NumIn)
		}
		if len(afu.OutSlots) != len(in.Dsts) {
			return 0, fmt.Errorf("AFU %s returned %d values for %d dsts", afu.Name, len(afu.OutSlots), len(in.Dsts))
		}
		if n := max(afu.NumSlots, afu.NumIn); n > len(e.slots) {
			e.slots = make([]int32, n)
		}
		if n := len(afu.OutSlots); n > len(e.out) {
			e.out = make([]int32, n)
		}
		return in.AFU, nil
	}
	return 0, nil
}

// fault wraps err with the function, block and instruction pc of blk.
func (c *code) fault(blk *block, pc int, err error) error {
	return fmt.Errorf("%s/%s: %s: %w", c.fn.Name, blk.src.Name, &blk.src.Instrs[pc], err)
}

// run executes the decoded function c in the frame regs.
func (e *Env) run(c *code, regs []int32) (int32, bool, error) {
	maxDepth := e.MaxCallDepth
	if maxDepth == 0 {
		maxDepth = DefaultMaxCallDepth
	}
	e.depth++
	defer func() { e.depth-- }()
	if e.depth > maxDepth {
		return 0, false, fmt.Errorf("interp: call depth exceeds %d in %s", maxDepth, c.fn.Name)
	}
	limit := e.StepLimit
	if limit == 0 {
		limit = DefaultStepLimit
	}
	blk := &c.blocks[0]
	for {
		if !blk.decoded {
			e.decodeBlock(c, blk)
		}
		steps := int64(len(blk.instrs)) + 1
		if e.steps+steps > limit {
			return 0, false, fmt.Errorf("interp: step limit exceeded in %s", c.fn.Name)
		}
		e.steps += steps
		blk.entries++
		if e.Profile {
			blk.src.Freq++
		}
		for pc := range blk.instrs {
			in := &blk.instrs[pc]
			switch in.op {
			case ir.OpConst:
				regs[in.dst] = in.a
			case ir.OpLoad:
				addr := regs[in.a]
				if addr < 0 || int(addr) >= len(e.Mem) {
					return 0, false, c.fault(blk, pc, fmt.Errorf("load address %d out of bounds [0,%d)", addr, len(e.Mem)))
				}
				regs[in.dst] = e.Mem[addr]
			case ir.OpStore:
				addr := regs[in.a]
				if addr < 0 || int(addr) >= len(e.Mem) {
					return 0, false, c.fault(blk, pc, fmt.Errorf("store address %d out of bounds [0,%d)", addr, len(e.Mem)))
				}
				e.Mem[addr] = regs[in.b]
			case ir.OpAlloca:
				base := e.heapTop
				e.heapTop += in.a
				for int(e.heapTop) > len(e.Mem) {
					e.Mem = append(e.Mem, 0)
				}
				regs[in.dst] = base
			case ir.OpCall:
				// A call may decode blocks of c, which appends to c.ext, so
				// the call gets its ext by value.
				if err := e.call(c.ext[in.a], regs); err != nil {
					return 0, false, c.fault(blk, pc, err)
				}
			case ir.OpCustom:
				x := &c.ext[in.a]
				for i, r := range x.args {
					e.slots[i] = regs[r]
				}
				out := e.out[:len(x.dsts)]
				if err := e.Mod.AFUs[x.target].ExecInto(out, e.slots); err != nil {
					return 0, false, c.fault(blk, pc, err)
				}
				for i, r := range x.dsts {
					regs[r] = out[i]
				}
			case ir.OpInvalid:
				return 0, false, c.fault(blk, pc, c.ext[in.a].err)
			default:
				v, err := ir.Eval(in.op, 0, regs[in.a], regs[in.b], regs[in.c])
				if err != nil {
					return 0, false, c.fault(blk, pc, err)
				}
				regs[in.dst] = v
			}
		}
		switch blk.kind {
		case ir.TermJump:
			blk = &c.blocks[blk.next[0]]
		case ir.TermBranch:
			if regs[blk.val] != 0 {
				blk = &c.blocks[blk.next[0]]
			} else {
				blk = &c.blocks[blk.next[1]]
			}
		case ir.TermRet:
			if blk.hasVal {
				return regs[blk.val], true, nil
			}
			return 0, false, nil
		default:
			return 0, false, fmt.Errorf("interp: %s/%s: missing terminator", c.fn.Name, blk.src.Name)
		}
	}
}

// call runs the OpCall x in a fresh frame of its callee.
func (e *Env) call(x ext, regs []int32) error {
	callee := e.decoded(x.target)
	frame := e.push(callee.nregs)
	for i, p := range callee.fn.Params {
		frame[reg(p)] = regs[x.args[i]]
	}
	ret, hasRet, err := e.run(callee, frame)
	e.sp -= callee.nregs
	if err != nil {
		return err
	}
	if len(x.dsts) == 1 {
		if !hasRet {
			return fmt.Errorf("void call to %q used as value", callee.fn.Name)
		}
		regs[x.dsts[0]] = ret
	}
	return nil
}

// ClearProfile zeroes all block frequencies in the module.
func ClearProfile(m *ir.Module) {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			b.Freq = 0
		}
	}
}
