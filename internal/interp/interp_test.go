package interp

import (
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

// TestExecAllocsIndependentOfSteps guards the interpreter's inner loop:
// executing an instruction allocates nothing, so running the sum loop
// 1000 times allocates exactly what running it 10 times does.
func TestExecAllocsIndependentOfSteps(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m := buildSum()
	allocs := func(n int32) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, _, err := NewEnv(m).Call("sum", n); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(10), allocs(1000); short != long {
		t.Fatalf("sum(10) allocates %v, sum(1000) allocates %v; want equal", short, long)
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
	if _, err := env.GlobalBase("zzz"); err == nil {
		t.Error("unknown global base accepted")
	}
	as[0] = 42
	env.ResetGlobals()
	if as[0] != 1 || as[2] != 0 {
		t.Error("ResetGlobals did not restore image")
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
	memAfter := len(env.Mem)
	if memAfter <= 1 {
		t.Error("alloca did not grow memory")
	}
	env.ResetHeap()
	if len(env.Mem) != 1 {
		t.Errorf("ResetHeap left %d words", len(env.Mem))
	}
	gs, _ := env.GlobalSlice("g")
	if gs[0] != 5 {
		t.Error("ResetHeap clobbered globals")
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

// A custom instruction with more operands than exec's stack buffer holds
// must still see every operand in order.
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

func TestObserver(t *testing.T) {
	env := NewEnv(buildSum())
	count := map[ir.Op]int{}
	env.Observer = func(b *ir.Block, in *ir.Instr) { count[in.Op]++ }
	if _, _, err := env.Call("sum", 5); err != nil {
		t.Fatal(err)
	}
	if count[ir.OpLt] != 6 || count[ir.OpAdd] != 10 {
		t.Errorf("observer counts wrong: %v", count)
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
