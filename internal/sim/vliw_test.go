package sim

import (
	"testing"

	"isex/internal/core"
	"isex/internal/ir"
	"isex/internal/latency"
	"isex/internal/workload"
)

func TestScheduleBlockHandComputed(t *testing.T) {
	// Two independent adds then a dependent multiply:
	//   width 1: add(1) add(1) mul(2) serial = 4 (+1 term) = 5
	//   width 2: both adds in cycle 0, mul at 1..2 = 3 (+1 term) = 4
	b := ir.NewBuilder("f", 4)
	p := b.Fn.Params
	a1 := b.Op(ir.OpAdd, p[0], p[1])
	a2 := b.Op(ir.OpAdd, p[2], p[3])
	b.Ret(b.Op(ir.OpMul, a1, a2))
	f := b.Finish()
	m := &ir.Module{Funcs: []*ir.Function{f}}
	model := latency.Default()

	c1, err := ScheduleBlock(m, f.Entry(), model, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != 5 {
		t.Errorf("width 1 = %d, want 5", c1)
	}
	c2, err := ScheduleBlock(m, f.Entry(), model, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != 4 {
		t.Errorf("width 2 = %d, want 4", c2)
	}
	c4, err := ScheduleBlock(m, f.Entry(), model, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c4 != c2 {
		t.Errorf("width 4 = %d, want %d (dependence-bound)", c4, c2)
	}
}

func TestScheduleBlockRespectsDependences(t *testing.T) {
	// A pure chain gains nothing from width.
	b := ir.NewBuilder("chain", 1)
	v := b.Fn.Params[0]
	for i := 0; i < 6; i++ {
		v = b.Op(ir.OpXor, v, v)
	}
	b.Ret(v)
	f := b.Finish()
	m := &ir.Module{Funcs: []*ir.Function{f}}
	model := latency.Default()
	c1, _ := ScheduleBlock(m, f.Entry(), model, 1)
	c8, _ := ScheduleBlock(m, f.Entry(), model, 8)
	if c1 != c8 {
		t.Errorf("chain: width 1 = %d, width 8 = %d; must match", c1, c8)
	}
}

func TestScheduleBlockMemoryOrder(t *testing.T) {
	// store ; load must not overlap even at large width.
	b := ir.NewBuilder("f", 2)
	p, x := b.Fn.Params[0], b.Fn.Params[1]
	b.Store(p, x)
	v := b.Load(p)
	b.Ret(v)
	f := b.Finish()
	m := &ir.Module{Funcs: []*ir.Function{f}}
	model := latency.Default()
	c, err := ScheduleBlock(m, f.Entry(), model, 8)
	if err != nil {
		t.Fatal(err)
	}
	// store(1) then load(2) serial = 3 (+1 term).
	if c != 4 {
		t.Errorf("cycles = %d, want 4", c)
	}
}

func TestScheduleBlockEmptyAndWidthErrors(t *testing.T) {
	b := ir.NewBuilder("f", 0)
	b.RetVoid()
	f := b.Finish()
	m := &ir.Module{Funcs: []*ir.Function{f}}
	c, err := ScheduleBlock(m, f.Entry(), latency.Default(), 2)
	if err != nil || c != 1 {
		t.Errorf("empty block = %d, %v", c, err)
	}
	if _, err := ScheduleBlock(m, f.Entry(), latency.Default(), 0); err == nil {
		t.Error("width 0 accepted")
	}
}

// TestVLIWShrinksISEGain reproduces the §9 caveat: on a wider-issue
// machine the relative gain of the same custom instructions is smaller,
// because the baseline already overlaps independent operations.
func TestVLIWShrinksISEGain(t *testing.T) {
	k := workload.ByName("adpcmdecode")
	base, err := k.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	patched, err := k.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Nin: 4, Nout: 2, MaxCuts: 500_000}
	sel := core.SelectIterative(patched, 8, cfg)
	if len(sel.Instructions) == 0 {
		t.Fatal("nothing selected")
	}
	if _, _, err := core.ApplySelection(patched, sel.Instructions, nil); err != nil {
		t.Fatal(err)
	}
	model := latency.Default()
	speedupAt := func(width int) float64 {
		cb, err := VLIWCycles(base, model, width)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := VLIWCycles(patched, model, width)
		if err != nil {
			t.Fatal(err)
		}
		if cp <= 0 || cb <= 0 {
			t.Fatalf("zero cycles: %d %d", cb, cp)
		}
		return float64(cb) / float64(cp)
	}
	s1 := speedupAt(1)
	s4 := speedupAt(4)
	if s1 <= 1.0 {
		t.Errorf("single-issue speedup %.3f not > 1", s1)
	}
	if s4 >= s1 {
		t.Errorf("ISE speedup should shrink with issue width: width1 %.3f, width4 %.3f", s1, s4)
	}
	t.Logf("ISE speedup: width1 %.3f, width2 %.3f, width4 %.3f", s1, speedupAt(2), s4)
}

// TestVLIWProfileWeighting: unprofiled blocks contribute nothing.
func TestVLIWProfileWeighting(t *testing.T) {
	k := workload.ByName("fir")
	m, err := k.Build() // no profile
	if err != nil {
		t.Fatal(err)
	}
	c, err := VLIWCycles(m, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c != 0 {
		t.Errorf("unprofiled module contributed %d cycles", c)
	}
	env, err := k.NewEnv(m)
	if err != nil {
		t.Fatal(err)
	}
	env.Profile = true
	if _, _, err := env.Call(k.Entry, k.Args...); err != nil {
		t.Fatal(err)
	}
	c2, err := VLIWCycles(m, nil, 2)
	if err != nil || c2 <= 0 {
		t.Errorf("profiled module cycles = %d, %v", c2, err)
	}
}
