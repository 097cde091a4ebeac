package sim

import (
	"slices"
	"strings"
	"testing"

	"isex/internal/core"
	"isex/internal/interp"
	"isex/internal/ir"
	"isex/internal/latency"
	"isex/internal/minic"
	"isex/internal/passes"
	"isex/internal/workload"
)

func TestCycleAccountingSimple(t *testing.T) {
	// f(a,b) = (a+b)*b  — one block: add(1) + mul(2) + 1 terminator = 4.
	src := `int f(int a, int b) { return (a + b) * b; }`
	m, err := minic.Compile(src, minic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := passes.Run(m, passes.Options{}); err != nil {
		t.Fatal(err)
	}
	r := &Runner{}
	rep, err := r.Run(m, "f", 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasRet || rep.Ret != 28 {
		t.Fatalf("ret = %d (%v)", rep.Ret, rep.HasRet)
	}
	if rep.Cycles != 4 {
		t.Errorf("cycles = %d, want 4 (add 1 + mul 2 + control 1)", rep.Cycles)
	}
	if rep.Instructions != 2 || rep.ControlCycles != 1 {
		t.Errorf("instrs=%d control=%d", rep.Instructions, rep.ControlCycles)
	}
}

func TestCustomInstructionCharge(t *testing.T) {
	m := &ir.Module{}
	afu := m.AddAFU(ir.AFUDef{
		Name: "mac", NumIn: 3, NumSlots: 5,
		Body: []ir.AFUOp{
			{Op: ir.OpMul, A: 0, B: 1, Dst: 3},
			{Op: ir.OpAdd, A: 3, B: 2, Dst: 4},
		},
		OutSlots: []int{4},
		Latency:  2,
	})
	b := ir.NewBuilder("f", 3)
	d := b.Fn.NewReg()
	b.Emit(ir.Instr{Op: ir.OpCustom, AFU: afu, Dsts: []ir.Reg{d},
		Args: []ir.Reg{b.Fn.Params[0], b.Fn.Params[1], b.Fn.Params[2]}})
	b.Ret(d)
	m.Funcs = append(m.Funcs, b.Finish())

	r := &Runner{}
	rep, err := r.Run(m, "f", 3, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ret != 17 {
		t.Errorf("mac = %d", rep.Ret)
	}
	if rep.Cycles != 3 { // custom 2 + terminator 1
		t.Errorf("cycles = %d, want 3", rep.Cycles)
	}
	if rep.CustomExecutions[afu] != 1 || rep.CustomCycles[afu] != 2 {
		t.Errorf("custom accounting: %v %v", rep.CustomExecutions, rep.CustomCycles)
	}
}

// TestMeasuredSpeedupMatchesEstimate is the headline validation on the
// Runner that perfbench and the isex.Program API measure with: for each
// kernel, the cycle gain the Runner measures must equal the summed merit
// estimated by the identification (both use the same latency model, so
// equality is exact, modulo cuts the patcher had to skip).
// internal/pipeline's test of the same name asserts this on Run's Report.
func TestMeasuredSpeedupMatchesEstimate(t *testing.T) {
	for _, k := range workload.All() {
		t.Run(k.Name, func(t *testing.T) {
			base, err := k.Build()
			if err != nil {
				t.Fatal(err)
			}
			m, err := k.Prepare()
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.Config{Nin: 4, Nout: 2, MaxCuts: 2_000_000}
			sel := core.SelectIterative(m, 8, cfg)
			if len(sel.Instructions) == 0 {
				t.Fatal("nothing identified")
			}
			_, skipped, err := core.ApplySelection(m, sel.Instructions, nil)
			if err != nil {
				t.Fatal(err)
			}
			interp.ClearProfile(m)

			var expected int64
			for _, s := range sel.Instructions {
				if !slices.ContainsFunc(skipped, func(sk core.Selected) bool {
					return sk.Block == s.Block && slices.Equal(sk.InstrIndexes, s.InstrIndexes)
				}) {
					expected += s.Est.Merit
				}
			}

			r := &Runner{Setup: k.SetInputs}
			rb, err := r.Run(base, k.Entry, k.Args...)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := r.Run(m, k.Entry, k.Args...)
			if err != nil {
				t.Fatal(err)
			}
			saved := rb.Cycles - rp.Cycles
			if saved <= 0 {
				t.Fatalf("no measured gain: base %d, patched %d", rb.Cycles, rp.Cycles)
			}
			// The estimate assumes the same single-issue model, so the
			// measured saving equals the summed merit exactly.
			if saved != expected {
				t.Errorf("measured saving %d, estimated %d (speedup %.3f)",
					saved, expected, float64(rb.Cycles)/float64(rp.Cycles))
			}
		})
	}
}

// A custom instruction naming a missing AFU is the interpreter's error to
// report; the simulator's cycle charge must not index the AFU table first.
func TestBadAFUIndexIsAnError(t *testing.T) {
	m := &ir.Module{}
	b := ir.NewBuilder("f", 1)
	d := b.Fn.NewReg()
	b.Emit(ir.Instr{Op: ir.OpCustom, AFU: 3, Dsts: []ir.Reg{d}, Args: []ir.Reg{b.Fn.Params[0]}})
	b.Ret(d)
	m.Funcs = append(m.Funcs, b.Finish())

	_, err := (&Runner{}).Run(m, "f", 1)
	if err == nil || !strings.Contains(err.Error(), "bad AFU index 3") {
		t.Fatalf("err = %v, want the interpreter's bad AFU index error", err)
	}
}

// TestRunAllocsIndependentOfSteps guards the simulator's inner loop: a
// loop that executes a two-output custom instruction on every iteration
// allocates the same whether it runs 10 or 1000 times, since executing an
// instruction allocates nothing and cycles are charged per block.
func TestRunAllocsIndependentOfSteps(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m := &ir.Module{}
	afu := m.AddAFU(ir.AFUDef{
		Name: "addshift", NumIn: 2, NumSlots: 4,
		Body: []ir.AFUOp{
			{Op: ir.OpAdd, A: 0, B: 1, Dst: 2},
			{Op: ir.OpConst, Imm: 1, Dst: 3},
			{Op: ir.OpShl, A: 2, B: 3, Dst: 3},
		},
		OutSlots: []int{3, 2},
		Latency:  1,
	})
	// macs(n) { s=0; for i in [0,n): (x, y) = custom(i, s); s = x - y; return s }
	b := ir.NewBuilder("macs", 1)
	n := b.Fn.Params[0]
	s, i, x, y := b.Fn.NewReg(), b.Fn.NewReg(), b.Fn.NewReg(), b.Fn.NewReg()
	head, body, exit := b.NewBlock("head"), b.NewBlock("body"), b.NewBlock("exit")
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

	allocs := func(n int32) float64 {
		return testing.AllocsPerRun(5, func() {
			rep, err := (&Runner{}).Run(m, "macs", n)
			if err != nil {
				t.Fatal(err)
			}
			if rep.CustomExecutions[afu] != int64(n) {
				t.Fatalf("macs(%d) executed the custom instruction %d times", n, rep.CustomExecutions[afu])
			}
		})
	}
	if short, long := allocs(10), allocs(1000); short != long {
		t.Fatalf("macs(10) allocates %v, macs(1000) allocates %v; want equal", short, long)
	}
}

// TestFromProfileMatchesRun: pricing a kernel's profiled module gives
// exactly the cycles, instructions and control cycles of simulating the
// unpatched kernel, for all 12 kernels on every hardware target — the
// baselines the DSE sweep, the experiments and `isex -simulate` take
// from the profile instead of a second build and run.
func TestFromProfileMatchesRun(t *testing.T) {
	for _, k := range workload.All() {
		prof, err := k.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := k.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, target := range latency.Targets() {
			model := target.Model()
			want, err := (&Runner{Model: model, Setup: k.SetInputs}).Run(fresh, k.Entry, k.Args...)
			if err != nil {
				t.Fatal(err)
			}
			got := FromProfile(prof, model)
			if got.Cycles != want.Cycles || got.Instructions != want.Instructions ||
				got.ControlCycles != want.ControlCycles || len(got.CustomCycles) != 0 {
				t.Errorf("%s on %s: priced %d cycles, %d instructions, %d control; simulated %d, %d, %d",
					k.Name, target.Name, got.Cycles, got.Instructions, got.ControlCycles,
					want.Cycles, want.Instructions, want.ControlCycles)
			}
		}
	}
}
