package isex

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"isex/internal/core"
	"isex/internal/ir"
	"isex/internal/workload"
)

const facadeSrc = `
int data[32];
int out[32];

void kernel(int n, int gain) {
    int i;
    for (i = 0; i < n; i++) {
        int v = (data[i & 31] * gain) >> 6;
        if (v > 4095) v = 4095;
        if (v < -4096) v = -4096;
        out[i & 31] = v;
    }
}
`

func facadeInputs() []int32 {
	in := make([]int32, 32)
	for i := range in {
		in[i] = int32(i*123%500 - 250)
	}
	return in
}

func TestFacadeEndToEnd(t *testing.T) {
	p, err := Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	p.SetInput("data", facadeInputs())
	if err := p.Profile("kernel", 32, 9); err != nil {
		t.Fatal(err)
	}
	before, err := p.MeasureCycles("kernel", 32, 9)
	if err != nil {
		t.Fatal(err)
	}
	_, refState, err := p.RunAndRead("kernel", []string{"out"}, 32, 9)
	if err != nil {
		t.Fatal(err)
	}

	sel, err := p.Identify(Constraints{Nin: 2, Nout: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Count() == 0 || sel.EstimatedGain() <= 0 {
		t.Fatalf("identified nothing: %d / %d", sel.Count(), sel.EstimatedGain())
	}
	if len(sel.Describe()) != sel.Count() {
		t.Error("Describe length mismatch")
	}
	n, err := p.Apply(sel)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing applied")
	}
	after, err := p.MeasureCycles("kernel", 32, 9)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("cycles %d -> %d: no gain", before, after)
	}
	_, gotState, err := p.RunAndRead("kernel", []string{"out"}, 32, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refState["out"] {
		if gotState["out"][i] != refState["out"][i] {
			t.Fatalf("out[%d] changed after patching", i)
		}
	}

	vs, err := p.Verilog()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != n {
		t.Errorf("verilog modules = %d, want %d", len(vs), n)
	}
	for _, v := range vs {
		if !strings.Contains(v, "module ") {
			t.Error("bad verilog")
		}
	}
}

func TestFacadeIRRoundTrip(t *testing.T) {
	p, err := Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	text := p.SerializeIR()
	p2, err := LoadIR(text)
	if err != nil {
		t.Fatal(err)
	}
	p.SetInput("data", facadeInputs())
	p2.SetInput("data", facadeInputs())
	r1, s1, err := p.RunAndRead("kernel", []string{"out"}, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	r2, s2, err := p2.RunAndRead("kernel", []string{"out"}, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("round-trip return %d vs %d", r1, r2)
	}
	for i := range s1["out"] {
		if s1["out"][i] != s2["out"][i] {
			t.Fatalf("round-trip out[%d] differs", i)
		}
	}
}

func TestFacadeOptimal(t *testing.T) {
	p, err := Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	p.SetInput("data", facadeInputs())
	if err := p.Profile("kernel", 16, 3); err != nil {
		t.Fatal(err)
	}
	it, err := p.Identify(Constraints{Nin: 2, Nout: 1, MaxCuts: 200_000}, 2)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := p.IdentifyOptimal(Constraints{Nin: 2, Nout: 1, MaxCuts: 200_000}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if opt.EstimatedGain() < it.EstimatedGain() {
		t.Errorf("optimal %d < iterative %d", opt.EstimatedGain(), it.EstimatedGain())
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := Compile("int f( {"); err == nil {
		t.Error("bad source accepted")
	}
	p, err := Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Identify(Constraints{Nin: 0, Nout: 1}, 2); err == nil {
		t.Error("zero ports accepted")
	}
	if _, err := p.Run("nosuch"); err == nil {
		t.Error("unknown entry accepted")
	}
	if _, err := LoadIR("garbage"); err == nil {
		t.Error("garbage IR accepted")
	}
	if DefaultModel() == nil {
		t.Error("no default model")
	}
}

func TestFacadeSkipOptimize(t *testing.T) {
	p1, err := CompileWith(facadeSrc, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := CompileWith(facadeSrc, CompileOptions{SkipOptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	// Same behaviour either way.
	p1.SetInput("data", facadeInputs())
	p2.SetInput("data", facadeInputs())
	for _, p := range []*Program{p1, p2} {
		if _, err := p.Run("kernel", 8, 2); err != nil {
			t.Fatal(err)
		}
	}
	// The unoptimized version is bigger (copies, branches intact).
	if len(p2.SerializeIR()) <= len(p1.SerializeIR()) {
		t.Error("SkipOptimize produced smaller IR than the optimized build")
	}
}

func TestFacadeAreaConstrainedAndOptions(t *testing.T) {
	p, err := Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	p.SetInput("data", facadeInputs())
	if err := p.Profile("kernel", 32, 9); err != nil {
		t.Fatal(err)
	}
	full, err := p.Identify(Constraints{Nin: 4, Nout: 2, MaxCuts: 300_000}, 4)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := p.IdentifyAreaConstrained(Constraints{Nin: 4, Nout: 2, MaxCuts: 300_000}, 4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if tight.EstimatedGain() > full.EstimatedGain() {
		t.Errorf("area-constrained gain %d beats unconstrained %d",
			tight.EstimatedGain(), full.EstimatedGain())
	}
	if _, err := p.IdentifyAreaConstrained(Constraints{}, 4, 1); err == nil {
		t.Error("zero ports accepted")
	}
	// The engine option runs and selects what the serial search does.
	eng, err := p.Identify(Constraints{Nin: 4, Nout: 2, MaxCuts: 300_000, Workers: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Degraded() && eng.EstimatedGain() != full.EstimatedGain() {
		t.Errorf("engine gain %d, serial %d", eng.EstimatedGain(), full.EstimatedGain())
	}
}

// TestFacadeSearchesPruned: Identify and IdentifyOptimal select exactly
// what the core drivers select with both sound prunings on, with the
// same serial Stats; the unpruned search considers more cuts on the same
// kernel, so the test tells the two defaults apart.
func TestFacadeSearchesPruned(t *testing.T) {
	m, err := workload.ByName("gsmlpc").Prepare()
	if err != nil {
		t.Fatal(err)
	}
	p := &Program{mod: m, inputs: map[string][]int32{}}
	c := Constraints{Nin: 4, Nout: 2, MaxCuts: 2_000_000}
	pruned := core.Config{Nin: 4, Nout: 2, MaxCuts: 2_000_000, PruneInputs: true, PruneMerit: true}
	unpruned := core.Config{Nin: 4, Nout: 2, MaxCuts: 2_000_000}
	ctx := context.Background()
	for _, d := range []struct {
		name     string
		identify func(Constraints, int) (Selection, error)
		core     func(context.Context, *ir.Module, int, core.Config) core.SelectionResult
	}{
		{"iterative", p.Identify, core.SelectIterativeCtx},
		{"optimal", p.IdentifyOptimal, core.SelectOptimalCtx},
	} {
		sel, err := d.identify(c, 4)
		if err != nil {
			t.Fatal(err)
		}
		got, want := sel.inner, d.core(ctx, m, 4, pruned)
		if got.TotalMerit != want.TotalMerit || got.Status != want.Status || got.Stats != want.Stats {
			t.Fatalf("%s: facade merit %d, %v, %+v; pruned core %d, %v, %+v", d.name,
				got.TotalMerit, got.Status, got.Stats, want.TotalMerit, want.Status, want.Stats)
		}
		if len(got.Instructions) != len(want.Instructions) {
			t.Fatalf("%s: %d instructions, want %d", d.name, len(got.Instructions), len(want.Instructions))
		}
		for i, a := range want.Instructions {
			b := got.Instructions[i]
			if a.Fn != b.Fn || a.Block != b.Block || a.Est != b.Est || !slices.Equal(a.InstrIndexes, b.InstrIndexes) {
				t.Fatalf("%s: instruction %d is %s/%s %v, want %s/%s %v", d.name, i,
					b.Fn.Name, b.Block.Name, b.InstrIndexes, a.Fn.Name, a.Block.Name, a.InstrIndexes)
			}
		}
		if off := d.core(ctx, m, 4, unpruned); off.Stats.CutsConsidered <= got.Stats.CutsConsidered {
			t.Errorf("%s: unpruned search considered %d cuts, pruned %d", d.name,
				off.Stats.CutsConsidered, got.Stats.CutsConsidered)
		}
	}
}

// TestIdentifyAnytime: the acceptance contract of the anytime engine at
// the public API — a deadline (or canceled context) returns promptly with
// a well-formed, status-annotated Selection instead of an error or a
// panic, and an unconstrained run reports Exhaustive.
func TestIdentifyAnytime(t *testing.T) {
	p, err := Compile(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	p.SetInput("data", facadeInputs())
	if err := p.Profile("kernel", 32, 9); err != nil {
		t.Fatal(err)
	}

	exact, err := p.Identify(Constraints{Nin: 4, Nout: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Degraded() || exact.Status() != Exhaustive {
		t.Fatalf("unconstrained run degraded: %v", exact.Status())
	}
	if len(exact.BlockStatuses()) == 0 {
		t.Error("no per-block statuses on exhaustive run")
	}

	start := time.Now()
	sel, err := p.Identify(Constraints{Nin: 4, Nout: 2, Deadline: time.Nanosecond}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("1ns-deadline identification took %v", elapsed)
	}
	if sel.Status() != DeadlineExceeded || !sel.Degraded() {
		t.Fatalf("deadline run status = %v, want deadline-exceeded", sel.Status())
	}
	if sel.EstimatedGain() > exact.EstimatedGain() {
		t.Errorf("degraded gain %d exceeds exact %d — not a lower bound",
			sel.EstimatedGain(), exact.EstimatedGain())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	csel, err := p.IdentifyCtx(ctx, Constraints{Nin: 4, Nout: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if csel.Status() != Canceled {
		t.Errorf("canceled run status = %v", csel.Status())
	}

	osel, err := p.IdentifyOptimalCtx(ctx, Constraints{Nin: 4, Nout: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if osel.Status() != Canceled {
		t.Errorf("canceled optimal run status = %v", osel.Status())
	}
}
