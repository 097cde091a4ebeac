// Package interp executes IR modules. It plays three roles in the
// reproduction:
//
//  1. Correctness oracle for the front end and for cut collapsing: a
//     program must compute the same outputs before and after custom
//     instructions are patched in.
//  2. Profiler: it records dynamic basic-block execution counts, which
//     weight the merit function M(S) of the paper (§7).
//  3. Substrate for the cycle-accounting simulator (package sim), which
//     embeds an Env and charges latencies per executed operation.
package interp

import (
	"fmt"

	"isex/internal/ir"
)

// DefaultStepLimit bounds the number of executed instructions, so tests
// cannot hang on accidental infinite loops.
const DefaultStepLimit = 200_000_000

// Env is an execution environment: a module, its memory image and
// profiling state.
type Env struct {
	Mod *ir.Module
	// Mem is a flat word-addressed memory. Globals live at the bottom;
	// OpAlloca bump-allocates above them.
	Mem []int32
	// Profile, when true, increments Block.Freq for every block executed.
	Profile bool
	// StepLimit bounds executed instructions (DefaultStepLimit if 0).
	StepLimit int64
	// MaxCallDepth bounds recursion (DefaultMaxCallDepth if 0), so a
	// runaway recursive program errors out instead of exhausting the host
	// stack.
	MaxCallDepth int

	// Observer, if non-nil, is invoked for every executed instruction;
	// the simulator uses it to charge cycles.
	Observer func(b *ir.Block, in *ir.Instr)
	// BlockObserver, if non-nil, is invoked once per basic-block entry
	// (the simulator charges control-transfer cycles there).
	BlockObserver func(b *ir.Block)

	globalBase map[string]int32
	heapBase   int32
	heapTop    int32
	steps      int64
	depth      int
}

// DefaultMaxCallDepth bounds recursion depth.
const DefaultMaxCallDepth = 10_000

// NewEnv builds an environment with globals laid out and initialized.
func NewEnv(m *ir.Module) *Env {
	e := &Env{Mod: m, globalBase: make(map[string]int32)}
	base := int32(0)
	for i := range m.Globals {
		g := &m.Globals[i]
		e.globalBase[g.Name] = base
		base += int32(g.Size)
	}
	e.Mem = make([]int32, base)
	for i := range m.Globals {
		g := &m.Globals[i]
		copy(e.Mem[e.globalBase[g.Name]:], g.Init)
	}
	e.heapBase = base
	e.heapTop = base
	return e
}

// ResetHeap discards all alloca storage (keeping globals), so repeated
// calls do not grow memory without bound.
func (e *Env) ResetHeap() {
	e.Mem = e.Mem[:e.heapBase]
	e.heapTop = e.heapBase
}

// ResetGlobals restores every global to its initial image.
func (e *Env) ResetGlobals() {
	for i := range e.Mod.Globals {
		g := &e.Mod.Globals[i]
		b := e.globalBase[g.Name]
		for j := 0; j < g.Size; j++ {
			e.Mem[b+int32(j)] = 0
		}
		copy(e.Mem[b:], g.Init)
	}
}

// Steps returns the number of IR instructions executed so far.
func (e *Env) Steps() int64 { return e.steps }

// GlobalBase returns the memory address of the named global.
func (e *Env) GlobalBase(name string) (int32, error) {
	b, ok := e.globalBase[name]
	if !ok {
		return 0, fmt.Errorf("interp: unknown global %q", name)
	}
	return b, nil
}

// GlobalSlice returns the live memory of the named global.
func (e *Env) GlobalSlice(name string) ([]int32, error) {
	b, ok := e.globalBase[name]
	if !ok {
		return nil, fmt.Errorf("interp: unknown global %q", name)
	}
	gi := e.Mod.GlobalIndex(name)
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
	f := e.Mod.Func(name)
	if f == nil {
		return 0, false, fmt.Errorf("interp: unknown function %q", name)
	}
	return e.call(f, args)
}

func (e *Env) call(f *ir.Function, args []int32) (int32, bool, error) {
	if len(args) != len(f.Params) {
		return 0, false, fmt.Errorf("interp: %s expects %d args, got %d", f.Name, len(f.Params), len(args))
	}
	maxDepth := e.MaxCallDepth
	if maxDepth == 0 {
		maxDepth = DefaultMaxCallDepth
	}
	e.depth++
	defer func() { e.depth-- }()
	if e.depth > maxDepth {
		return 0, false, fmt.Errorf("interp: call depth exceeds %d in %s", maxDepth, f.Name)
	}
	regs := make([]int32, f.NumRegs)
	for i, p := range f.Params {
		regs[p] = args[i]
	}
	limit := e.StepLimit
	if limit == 0 {
		limit = DefaultStepLimit
	}
	b := f.Entry()
	for {
		if e.Profile {
			b.Freq++
		}
		if e.BlockObserver != nil {
			e.BlockObserver(b)
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			e.steps++
			if e.steps > limit {
				return 0, false, fmt.Errorf("interp: step limit exceeded in %s", f.Name)
			}
			if e.Observer != nil {
				e.Observer(b, in)
			}
			if err := e.exec(f, regs, in); err != nil {
				return 0, false, fmt.Errorf("%s/%s: %s: %w", f.Name, b.Name, in, err)
			}
		}
		e.steps++
		if e.steps > limit {
			return 0, false, fmt.Errorf("interp: step limit exceeded in %s", f.Name)
		}
		switch b.Term.Kind {
		case ir.TermJump:
			b = b.Term.Targets[0]
		case ir.TermBranch:
			if regs[b.Term.Cond] != 0 {
				b = b.Term.Targets[0]
			} else {
				b = b.Term.Targets[1]
			}
		case ir.TermRet:
			if b.Term.HasVal {
				return regs[b.Term.Val], true, nil
			}
			return 0, false, nil
		default:
			return 0, false, fmt.Errorf("interp: %s/%s: missing terminator", f.Name, b.Name)
		}
	}
}

func (e *Env) exec(f *ir.Function, regs []int32, in *ir.Instr) error {
	switch in.Op {
	case ir.OpGlobal:
		b, ok := e.globalBase[in.Sym]
		if !ok {
			return fmt.Errorf("unknown global %q", in.Sym)
		}
		regs[in.Dsts[0]] = b
		return nil
	case ir.OpAlloca:
		base := e.heapTop
		e.heapTop += int32(in.Imm)
		for int(e.heapTop) > len(e.Mem) {
			e.Mem = append(e.Mem, 0)
		}
		regs[in.Dsts[0]] = base
		return nil
	case ir.OpLoad:
		addr := regs[in.Args[0]]
		if addr < 0 || int(addr) >= len(e.Mem) {
			return fmt.Errorf("load address %d out of bounds [0,%d)", addr, len(e.Mem))
		}
		regs[in.Dsts[0]] = e.Mem[addr]
		return nil
	case ir.OpStore:
		addr := regs[in.Args[0]]
		if addr < 0 || int(addr) >= len(e.Mem) {
			return fmt.Errorf("store address %d out of bounds [0,%d)", addr, len(e.Mem))
		}
		e.Mem[addr] = regs[in.Args[1]]
		return nil
	case ir.OpCall:
		callee := e.Mod.Func(in.Sym)
		if callee == nil {
			return fmt.Errorf("unknown function %q", in.Sym)
		}
		args := make([]int32, len(in.Args))
		for i, a := range in.Args {
			args[i] = regs[a]
		}
		ret, hasRet, err := e.call(callee, args)
		if err != nil {
			return err
		}
		if len(in.Dsts) == 1 {
			if !hasRet {
				return fmt.Errorf("void call to %q used as value", in.Sym)
			}
			regs[in.Dsts[0]] = ret
		}
		return nil
	case ir.OpCustom:
		if in.AFU < 0 || in.AFU >= len(e.Mod.AFUs) {
			return fmt.Errorf("bad AFU index %d", in.AFU)
		}
		d := &e.Mod.AFUs[in.AFU]
		var buf [3]int32
		out, err := d.Exec(operands(buf[:0], regs, in.Args))
		if err != nil {
			return err
		}
		if len(out) != len(in.Dsts) {
			return fmt.Errorf("AFU %s returned %d values for %d dsts", d.Name, len(out), len(in.Dsts))
		}
		for i, r := range in.Dsts {
			regs[r] = out[i]
		}
		return nil
	default:
		var buf [3]int32
		v, err := ir.Eval(in.Op, in.Imm, operands(buf[:0], regs, in.Args)...)
		if err != nil {
			return err
		}
		regs[in.Dsts[0]] = v
		return nil
	}
}

// operands appends the register values of args to dst. exec passes a
// stack buffer of three, which holds every pure op's operands, so an
// executed instruction allocates only when it has more operands than
// that (a wide custom instruction).
func operands(dst, regs []int32, args []ir.Reg) []int32 {
	if len(args) > cap(dst) {
		dst = make([]int32, 0, len(args))
	}
	for _, a := range args {
		dst = append(dst, regs[a])
	}
	return dst
}

// ClearProfile zeroes all block frequencies in the module.
func ClearProfile(m *ir.Module) {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			b.Freq = 0
		}
	}
}
