package interp

import (
	"errors"
	"math"
	"strings"
	"testing"

	"isex/internal/ir"
)

// buildSum builds: func sum(n) { s=0; for i in [0,n): s+=i; return s }
func buildSum() *ir.Module {
	b := ir.NewBuilder("sum", 1)
	n := b.Fn.Params[0]
	s := b.Fn.NewReg()
	i := b.Fn.NewReg()
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.CopyTo(s, b.Const(0))
	b.CopyTo(i, b.Const(0))
	b.Jump(head)
	b.SetBlock(head)
	b.Branch(b.Op(ir.OpLt, i, n), body, exit)
	b.SetBlock(body)
	b.CopyTo(s, b.Op(ir.OpAdd, s, i))
	b.CopyTo(i, b.Op(ir.OpAdd, i, b.Const(1)))
	b.Jump(head)
	b.SetBlock(exit)
	b.Ret(s)
	return &ir.Module{Funcs: []*ir.Function{b.Finish()}}
}

// buildCustomLoop builds: func macs(n) { s=0; for i in [0,n): (x, y) =
// custom(i, s); s = x - y; return s }, whose custom instruction has two
// outputs: x = (i+s)*2 and y = i+s.
func buildCustomLoop() *ir.Module {
	m := &ir.Module{}
	afu := m.AddAFU(ir.AFUDef{
		Name: "addshift", NumIn: 2, NumSlots: 4,
		Body: []ir.AFUOp{
			{Op: ir.OpAdd, A: 0, B: 1, Dst: 2},
			{Op: ir.OpConst, Imm: 1, Dst: 3},
			{Op: ir.OpShl, A: 2, B: 3, Dst: 3},
		},
		OutSlots: []int{3, 2},
	})
	b := ir.NewBuilder("macs", 1)
	n := b.Fn.Params[0]
	s, i, x, y := b.Fn.NewReg(), b.Fn.NewReg(), b.Fn.NewReg(), b.Fn.NewReg()
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.CopyTo(s, b.Const(0))
	b.CopyTo(i, b.Const(0))
	b.Jump(head)
	b.SetBlock(head)
	b.Branch(b.Op(ir.OpLt, i, n), body, exit)
	b.SetBlock(body)
	b.Emit(ir.Instr{Op: ir.OpCustom, AFU: afu, Dsts: []ir.Reg{x, y}, Args: []ir.Reg{i, s}})
	b.CopyTo(s, b.Op(ir.OpSub, x, y))
	b.CopyTo(i, b.Op(ir.OpAdd, i, b.Const(1)))
	b.Jump(head)
	b.SetBlock(exit)
	b.Ret(s)
	m.Funcs = append(m.Funcs, b.Finish())
	return m
}

// TestExecAllocsIndependentOfSteps guards the interpreter's inner loop:
// executing an instruction, custom instructions included, allocates
// nothing, so running a loop 1000 times allocates exactly what running
// it 10 times does.
func TestExecAllocsIndependentOfSteps(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		fn string
		m  *ir.Module
	}{{"sum", buildSum()}, {"macs", buildCustomLoop()}} {
		allocs := func(n int32) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, _, err := NewEnv(tc.m).Call(tc.fn, n); err != nil {
					t.Fatal(err)
				}
			})
		}
		if short, long := allocs(10), allocs(1000); short != long {
			t.Errorf("%s(10) allocates %v, %s(1000) allocates %v; want equal", tc.fn, short, tc.fn, long)
		}
	}
}

func TestLoopExecution(t *testing.T) {
	env := NewEnv(buildSum())
	got, hasRet, err := env.Call("sum", 10)
	if err != nil || !hasRet || got != 45 {
		t.Fatalf("sum(10) = %d, %v, %v", got, hasRet, err)
	}
	if env.Steps() == 0 {
		t.Error("no steps recorded")
	}
}

func TestProfile(t *testing.T) {
	m := buildSum()
	env := NewEnv(m)
	env.Profile = true
	if _, _, err := env.Call("sum", 10); err != nil {
		t.Fatal(err)
	}
	f := m.Funcs[0]
	// entry 1, head 11, body 10, exit 1.
	want := []int64{1, 11, 10, 1}
	for i, b := range f.Blocks {
		if b.Freq != want[i] {
			t.Errorf("block %s freq = %d, want %d", b.Name, b.Freq, want[i])
		}
	}
	ClearProfile(m)
	for _, b := range f.Blocks {
		if b.Freq != 0 {
			t.Error("ClearProfile left counts")
		}
	}
}

func TestStepLimit(t *testing.T) {
	b := ir.NewBuilder("spin", 0)
	loop := b.NewBlock("loop")
	b.Jump(loop)
	b.SetBlock(loop)
	b.Jump(loop)
	m := &ir.Module{Funcs: []*ir.Function{b.Finish()}}
	env := NewEnv(m)
	env.StepLimit = 1000
	if _, _, err := env.Call("spin"); err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("want step-limit error, got %v", err)
	}
}

func TestGlobalsAPI(t *testing.T) {
	m := &ir.Module{Globals: []ir.Global{
		{Name: "a", Size: 3, Init: []int32{1, 2}},
		{Name: "b", Size: 2, Init: []int32{9}},
	}}
	env := NewEnv(m)
	as, err := env.GlobalSlice("a")
	if err != nil || len(as) != 3 || as[0] != 1 || as[1] != 2 || as[2] != 0 {
		t.Fatalf("a = %v, %v", as, err)
	}
	bs, _ := env.GlobalSlice("b")
	if bs[0] != 9 {
		t.Fatalf("b = %v", bs)
	}
	if err := env.SetGlobal("a", []int32{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	if as[2] != 9 {
		t.Error("SetGlobal did not write through")
	}
	if err := env.SetGlobal("a", []int32{1, 2, 3, 4}); err == nil {
		t.Error("oversized SetGlobal accepted")
	}
	if _, err := env.GlobalSlice("zzz"); err == nil {
		t.Error("unknown global accepted")
	}
}

func TestAllocaAndResetHeap(t *testing.T) {
	b := ir.NewBuilder("f", 1)
	x := b.Fn.Params[0]
	base := b.Alloca(4)
	b.Store(b.Op(ir.OpAdd, base, b.Const(2)), x)
	b.Ret(b.Load(b.Op(ir.OpAdd, base, b.Const(2))))
	m := &ir.Module{
		Globals: []ir.Global{{Name: "g", Size: 1, Init: []int32{5}}},
		Funcs:   []*ir.Function{b.Finish()},
	}
	env := NewEnv(m)
	got, _, err := env.Call("f", 77)
	if err != nil || got != 77 {
		t.Fatalf("f = %d, %v", got, err)
	}
	if len(env.Mem) <= 1 {
		t.Error("alloca did not grow memory")
	}
	gs, _ := env.GlobalSlice("g")
	if gs[0] != 5 {
		t.Error("alloca clobbered globals")
	}
}

func TestMemoryBounds(t *testing.T) {
	mk := func(store bool) *ir.Module {
		b := ir.NewBuilder("f", 1)
		addr := b.Fn.Params[0]
		if store {
			b.Store(addr, b.Const(1))
			b.RetVoid()
		} else {
			b.Ret(b.Load(addr))
		}
		return &ir.Module{Funcs: []*ir.Function{b.Finish()}}
	}
	for _, store := range []bool{false, true} {
		env := NewEnv(mk(store))
		if _, _, err := env.Call("f", -1); err == nil || !strings.Contains(err.Error(), "out of bounds") {
			t.Errorf("store=%v addr=-1: err = %v", store, err)
		}
		env = NewEnv(mk(store))
		if _, _, err := env.Call("f", 100); err == nil {
			t.Errorf("store=%v addr=100: no error", store)
		}
	}
}

func TestCallsAndErrors(t *testing.T) {
	// callee(x) = x*2 ; caller(x) = callee(x) + 1
	cb := ir.NewBuilder("callee", 1)
	cb.Ret(cb.Op(ir.OpMul, cb.Fn.Params[0], cb.Const(2)))
	callee := cb.Finish()

	bb := ir.NewBuilder("caller", 1)
	r := bb.Fn.NewReg()
	bb.Call("callee", []ir.Reg{r}, bb.Fn.Params[0])
	bb.Ret(bb.Op(ir.OpAdd, r, bb.Const(1)))
	caller := bb.Finish()

	m := &ir.Module{Funcs: []*ir.Function{callee, caller}}
	env := NewEnv(m)
	got, _, err := env.Call("caller", 21)
	if err != nil || got != 43 {
		t.Fatalf("caller(21) = %d, %v", got, err)
	}
	if _, _, err := env.Call("nope"); err == nil {
		t.Error("unknown function accepted")
	}
	if _, _, err := env.Call("caller"); err == nil {
		t.Error("wrong arg count accepted")
	}
}

func TestDivideByZeroSurfaces(t *testing.T) {
	b := ir.NewBuilder("f", 2)
	b.Ret(b.Op(ir.OpDiv, b.Fn.Params[0], b.Fn.Params[1]))
	env := NewEnv(&ir.Module{Funcs: []*ir.Function{b.Finish()}})
	if _, _, err := env.Call("f", 1, 0); err == nil {
		t.Error("div by zero not surfaced")
	}
}

func TestCustomInstruction(t *testing.T) {
	m := &ir.Module{}
	afu := m.AddAFU(ir.AFUDef{
		Name: "addshift", NumIn: 2, NumSlots: 4,
		Body: []ir.AFUOp{
			{Op: ir.OpAdd, A: 0, B: 1, Dst: 2},
			{Op: ir.OpConst, Imm: 1, Dst: 3},
			{Op: ir.OpShl, A: 2, B: 3, Dst: 3},
		},
		OutSlots: []int{3, 2},
	})
	b := ir.NewBuilder("f", 2)
	d0, d1 := b.Fn.NewReg(), b.Fn.NewReg()
	b.Emit(ir.Instr{Op: ir.OpCustom, AFU: afu, Dsts: []ir.Reg{d0, d1}, Args: []ir.Reg{b.Fn.Params[0], b.Fn.Params[1]}})
	b.Ret(b.Op(ir.OpSub, d0, d1))
	m.Funcs = append(m.Funcs, b.Finish())
	env := NewEnv(m)
	got, _, err := env.Call("f", 3, 4)
	if err != nil || got != 14-7 {
		t.Fatalf("f = %d, %v", got, err)
	}
}

// A custom instruction with more than three operands must still see
// every operand in order.
func TestWideCustomInstruction(t *testing.T) {
	m := &ir.Module{}
	afu := m.AddAFU(ir.AFUDef{
		Name: "wide", NumIn: 5, NumSlots: 8,
		Body: []ir.AFUOp{
			{Op: ir.OpSub, A: 0, B: 1, Dst: 5},
			{Op: ir.OpMul, A: 5, B: 2, Dst: 6},
			{Op: ir.OpSub, A: 3, B: 4, Dst: 7},
			{Op: ir.OpAdd, A: 6, B: 7, Dst: 7},
		},
		OutSlots: []int{7},
	})
	b := ir.NewBuilder("f", 5)
	d := b.Fn.NewReg()
	b.Emit(ir.Instr{Op: ir.OpCustom, AFU: afu, Dsts: []ir.Reg{d}, Args: b.Fn.Params})
	b.Ret(d)
	m.Funcs = append(m.Funcs, b.Finish())
	got, _, err := NewEnv(m).Call("f", 9, 2, 3, 10, 4)
	if err != nil || got != (9-2)*3+(10-4) {
		t.Fatalf("f = %d, %v; want %d", got, err, (9-2)*3+(10-4))
	}
}

// TestObserver checks the block-entry counts the simulator charges
// cycles from: sum(5) enters entry and exit once, head 6 times and body
// 5 times, so it executes 6 comparisons and 10 additions.
func TestObserver(t *testing.T) {
	m := buildSum()
	env := NewEnv(m)
	if _, _, err := env.Call("sum", 5); err != nil {
		t.Fatal(err)
	}
	entries := map[string]int64{}
	count := map[ir.Op]int64{}
	var steps int64
	env.BlockEntries(func(b *ir.Block, n int64) {
		entries[b.Name] += n
		for i := range b.Instrs {
			count[b.Instrs[i].Op] += n
		}
		steps += n * int64(len(b.Instrs)+1)
	})
	want := map[string]int64{m.Funcs[0].Blocks[0].Name: 1, "head": 6, "body": 5, "exit": 1}
	if len(entries) != len(want) {
		t.Errorf("entries = %v, want %v", entries, want)
	}
	for name, n := range want {
		if entries[name] != n {
			t.Errorf("block %s entered %d times, want %d", name, entries[name], n)
		}
	}
	if count[ir.OpLt] != 6 || count[ir.OpAdd] != 10 {
		t.Errorf("op counts from block entries wrong: %v", count)
	}
	if steps != env.Steps() {
		t.Errorf("block entries account for %d steps, Steps() = %d", steps, env.Steps())
	}
}

// TestFramesStartZeroed: a register read before any write reads 0, also
// in a frame that reuses the stack words of an earlier call.
func TestFramesStartZeroed(t *testing.T) {
	lb := ir.NewBuilder("leak", 1)
	lb.Ret(lb.Fn.Params[0])
	pb := ir.NewBuilder("peek", 0)
	pb.Ret(pb.Fn.NewReg())
	mb := ir.NewBuilder("main", 0)
	r, p := mb.Fn.NewReg(), mb.Fn.NewReg()
	mb.Call("leak", []ir.Reg{r}, mb.Const(42))
	mb.Call("peek", []ir.Reg{p})
	mb.Ret(p)
	env := NewEnv(&ir.Module{Funcs: []*ir.Function{lb.Finish(), pb.Finish(), mb.Finish()}})
	if got, _, err := env.Call("main"); err != nil || got != 0 {
		t.Errorf("main() = %d, %v; want 0", got, err)
	}
	if _, _, err := env.Call("leak", 7); err != nil {
		t.Fatal(err)
	}
	if got, _, err := env.Call("peek"); err != nil || got != 0 {
		t.Errorf("peek() after leak(7) = %d, %v; want 0", got, err)
	}
}

func TestCallDepthLimit(t *testing.T) {
	// f(n) = f(n+1): infinite recursion must error, not crash.
	b := ir.NewBuilder("f", 1)
	r := b.Fn.NewReg()
	b.Call("f", []ir.Reg{r}, b.Op(ir.OpAdd, b.Fn.Params[0], b.Const(1)))
	b.Ret(r)
	m := &ir.Module{Funcs: []*ir.Function{b.Finish()}}
	env := NewEnv(m)
	env.MaxCallDepth = 100
	if _, _, err := env.Call("f", 0); err == nil || !strings.Contains(err.Error(), "call depth") {
		t.Errorf("runaway recursion: err = %v", err)
	}
	// Bounded recursion within the limit still works.
	b2 := ir.NewBuilder("g", 1)
	n := b2.Fn.Params[0]
	stop := b2.NewBlock("stop")
	rec := b2.NewBlock("rec")
	b2.Branch(b2.Op(ir.OpLe, n, b2.Const(0)), stop, rec)
	b2.SetBlock(stop)
	b2.Ret(b2.Const(0))
	b2.SetBlock(rec)
	r2 := b2.Fn.NewReg()
	b2.Call("g", []ir.Reg{r2}, b2.Op(ir.OpSub, n, b2.Const(1)))
	b2.Ret(b2.Op(ir.OpAdd, r2, b2.Const(1)))
	m2 := &ir.Module{Funcs: []*ir.Function{b2.Finish()}}
	env2 := NewEnv(m2)
	env2.MaxCallDepth = 100
	got, _, err := env2.Call("g", 50)
	if err != nil || got != 50 {
		t.Errorf("bounded recursion: %d, %v", got, err)
	}
}

// TestInterpMatchesEval runs every pure op as a one-instruction function
// over edge-case operands: the interpreter returns what ir.Eval returns
// and fails where it fails, division and remainder by zero included. It
// also checks that an instruction naming an unknown global or callee, or
// a bad AFU index, is an error only when its block runs.
func TestInterpMatchesEval(t *testing.T) {
	vals := []int32{0, 1, -1, 31, 32, math.MinInt32, math.MaxInt32}
	for op := ir.OpConst; op <= ir.OpCustom; op++ {
		if !op.Pure() {
			continue
		}
		arity := op.Info().Arity
		imms := []int64{0}
		if op == ir.OpConst {
			imms = []int64{0, 1, -1, math.MinInt32, math.MaxInt32, 1<<40 + 5, -(1 << 33)}
		}
		tuples := 1
		for range arity {
			tuples *= len(vals)
		}
		for _, imm := range imms {
			b := ir.NewBuilder("f", 3)
			d := b.Fn.NewReg()
			b.Emit(ir.Instr{Op: op, Dsts: []ir.Reg{d}, Args: b.Fn.Params[:arity], Imm: imm})
			b.Ret(d)
			env := NewEnv(&ir.Module{Funcs: []*ir.Function{b.Finish()}})
			for i := 0; i < tuples; i++ {
				var args [3]int32
				for k, r := 0, i; k < arity; k, r = k+1, r/len(vals) {
					args[k] = vals[r%len(vals)]
				}
				want, werr := ir.Eval(op, imm, args[0], args[1], args[2])
				got, _, err := env.Call("f", args[0], args[1], args[2])
				switch {
				case werr != nil && !errors.Is(err, werr):
					t.Errorf("%s%v: interpreter error %v, Eval error %v", op, args[:arity], err, werr)
				case werr == nil && (err != nil || got != want):
					t.Errorf("%s%v imm %d = %d, %v; Eval gives %d", op, args[:arity], imm, got, err, want)
				}
			}
		}
	}

	m := &ir.Module{}
	for _, tc := range []struct {
		in   ir.Instr
		want string
	}{
		{ir.Instr{Op: ir.OpGlobal, Sym: "nope"}, `unknown global "nope"`},
		{ir.Instr{Op: ir.OpCall, Sym: "nope"}, `unknown function "nope"`},
		{ir.Instr{Op: ir.OpCustom, AFU: 3}, "bad AFU index 3"},
	} {
		b := ir.NewBuilder("g", 1)
		bad := b.NewBlock("bad")
		ok := b.NewBlock("ok")
		b.Branch(b.Fn.Params[0], bad, ok)
		b.SetBlock(bad)
		d := b.Fn.NewReg()
		tc.in.Dsts = []ir.Reg{d}
		b.Emit(tc.in)
		b.Ret(d)
		b.SetBlock(ok)
		b.Ret(b.Const(7))
		m.Funcs = []*ir.Function{b.Finish()}
		if got, _, err := NewEnv(m).Call("g", 0); err != nil || got != 7 {
			t.Errorf("%s in a block not run: g(0) = %d, %v", tc.in.Op, got, err)
		}
		if _, _, err := NewEnv(m).Call("g", 1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s in a block run: err = %v, want %q", tc.in.Op, err, tc.want)
		}
	}
}
