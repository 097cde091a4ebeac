package core

import (
	"sort"
	"testing"

	"isex/internal/dfg"
	"isex/internal/interp"
	"isex/internal/ir"
	"isex/internal/minic"
	"isex/internal/passes"
	"isex/internal/workload"
)

// compileAndProfile builds a module, runs the pass pipeline, and profiles
// it by executing main() once.
func compileAndProfile(t *testing.T, src string, args ...int32) *ir.Module {
	t.Helper()
	m, err := minic.Compile(src, minic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := passes.Run(m, passes.Options{}); err != nil {
		t.Fatal(err)
	}
	env := interp.NewEnv(m)
	env.Profile = true
	if _, _, err := env.Call("main", args...); err != nil {
		t.Fatal(err)
	}
	return m
}

const threeKernels = `
int a0[16] = {3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3};
int out0[16];

void hot(int n) {
    int i;
    for (i = 0; i < n; i++) {
        int v = a0[i & 15];
        int w = ((v << 3) - v) + ((v >> 2) & 7);
        int x = w > 64 ? 64 + (w & 31) : w;
        out0[i & 15] = x;
    }
}
void warm(int n) {
    int i;
    for (i = 0; i < n; i++) {
        int v = a0[i & 15];
        out0[i & 15] = (v * 3 + 5) ^ (v << 1);
    }
}
void cold(int x) {
    out0[0] = ((x + 1) * 2 + 3) & 255;
}
int main() {
    hot(400);
    warm(40);
    cold(7);
    return out0[3];
}
`

// twinKernels contains two functions with identical bodies but different
// names and different profiled frequencies: the same datapath selected
// in both must be grouped as one shareable implementation.
const twinKernels = `
int a0[16] = {3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3};
int out0[16];

void fa(int n) {
    int i;
    for (i = 0; i < n; i++) {
        int v = a0[i & 15];
        int w = ((v << 3) - v) + ((v >> 2) & 7);
        out0[i & 15] = w ^ (v << 1);
    }
}
void fb(int n) {
    int i;
    for (i = 0; i < n; i++) {
        int v = a0[i & 15];
        int w = ((v << 3) - v) + ((v >> 2) & 7);
        out0[i & 15] = w ^ (v << 1);
    }
}
int main() {
    fa(400);
    fb(50);
    return out0[3];
}
`

// TestSharedInstructionsTwinFunctions: with no option set, both drivers,
// serial and on the engine, group the twins' selected instructions — at
// least one group spans both functions.
func TestSharedInstructionsTwinFunctions(t *testing.T) {
	m := compileAndProfile(t, twinKernels)
	for _, method := range []string{"iterative", "optimal"} {
		for _, workers := range []int{0, 2} {
			cfg := Config{Nin: 2, Nout: 1, Workers: workers}
			var sel SelectionResult
			if method == "iterative" {
				sel = SelectIterative(m, 4, cfg)
			} else {
				sel = SelectOptimal(m, 4, cfg)
			}
			crossFn := false
			for _, sh := range sel.SharedInstructions {
				fns := map[string]bool{}
				for _, mi := range sh.Members {
					fns[sel.Instructions[mi].Fn.Name] = true
				}
				if sh.Count >= 2 && len(fns) >= 2 {
					crossFn = true
				}
			}
			if !crossFn {
				t.Errorf("%s workers=%d: no cross-function shared instruction group: %+v",
					method, workers, sel.SharedInstructions)
			}
		}
	}
}

func TestSelectIterativeOrdersByMerit(t *testing.T) {
	m := compileAndProfile(t, threeKernels)
	cfg := Config{Nin: 4, Nout: 2}
	res := SelectIterative(m, 3, cfg)
	if len(res.Instructions) == 0 {
		t.Fatal("nothing selected")
	}
	// Every selected instruction must have positive merit and valid
	// instruction indexes.
	for _, sel := range res.Instructions {
		if sel.Est.Merit <= 0 {
			t.Errorf("non-positive merit selected: %v", sel.Est)
		}
		for _, idx := range sel.InstrIndexes {
			if idx < 0 || idx >= len(sel.Block.Instrs) {
				t.Errorf("bad instr index %d in %s", idx, sel.Block.Name)
			}
			if !sel.Block.Instrs[idx].Op.Pure() {
				t.Errorf("impure op %s selected", sel.Block.Instrs[idx].Op)
			}
		}
	}
	// The hot loop must be covered first (highest frequency).
	first := res.Instructions[0]
	hotFn := m.Func("hot")
	found := false
	for _, sel := range res.Instructions {
		if sel.Fn == hotFn {
			found = true
		}
	}
	if !found {
		t.Error("hot function received no instruction")
	}
	_ = first
}

func TestSelectIterativeRespectsNinstr(t *testing.T) {
	m := compileAndProfile(t, threeKernels)
	cfg := Config{Nin: 4, Nout: 2}
	for _, n := range []int{1, 2, 3, 5} {
		res := SelectIterative(m, n, cfg)
		if len(res.Instructions) > n {
			t.Errorf("ninstr=%d: selected %d", n, len(res.Instructions))
		}
	}
	// Monotonicity: more instructions never reduce total merit.
	prev := int64(0)
	for _, n := range []int{1, 2, 3, 4, 6} {
		res := SelectIterative(m, n, cfg)
		if res.TotalMerit < prev {
			t.Errorf("ninstr=%d: merit %d dropped below %d", n, res.TotalMerit, prev)
		}
		prev = res.TotalMerit
	}
}

func TestSelectOptimalVsIterative(t *testing.T) {
	m := compileAndProfile(t, threeKernels)
	cfg := Config{Nin: 4, Nout: 2}
	for _, n := range []int{1, 2, 4} {
		opt := SelectOptimal(m, n, cfg)
		it := SelectIterative(m, n, cfg)
		// The optimal algorithm can never be worse (§8 found them usually
		// equal).
		if opt.TotalMerit < it.TotalMerit {
			t.Errorf("ninstr=%d: optimal %d < iterative %d", n, opt.TotalMerit, it.TotalMerit)
		}
	}
}

func TestSelectOptimalIdentCallBound(t *testing.T) {
	m := compileAndProfile(t, threeKernels)
	cfg := Config{Nin: 4, Nout: 2}
	nbb := 0
	for _, f := range m.Funcs {
		nbb += len(f.Blocks)
	}
	// §6.2 proves the bound for the optimal algorithm; the iterative one
	// makes one identification per block and one per pick but the last,
	// which nothing would read, so it keeps the same bound.
	drivers := []struct {
		name string
		run  func(*ir.Module, int, Config) SelectionResult
	}{{"optimal", SelectOptimal}, {"iterative", SelectIterative}}
	for _, d := range drivers {
		for _, n := range []int{1, 2, 3} {
			res := d.run(m, n, cfg)
			if res.IdentCalls > n+nbb-1 {
				t.Errorf("%s ninstr=%d: %d identification calls, bound is %d",
					d.name, n, res.IdentCalls, n+nbb-1)
			}
		}
	}
}

// TestWindowKeepsRescue: a budget stop is rescued by the §9 windowed
// pass under both drivers. On adpcmdecode at 4/2 under a 20,000-cut
// budget, the exact searches of body2 (60 operations, the largest block)
// stop at the budget, and each driver must rescue body2.
func TestWindowKeepsRescue(t *testing.T) {
	m, err := workload.ByName("adpcmdecode").Prepare()
	if err != nil {
		t.Fatal(err)
	}
	drivers := []struct {
		name string
		run  func(*ir.Module, int, Config) SelectionResult
	}{{"optimal", SelectOptimal}, {"iterative", SelectIterative}}
	for _, d := range drivers {
		got := d.run(m, 4, Config{Nin: 4, Nout: 2, MaxCuts: 20_000})
		rescued := false
		for _, b := range got.Blocks {
			if b.Block == "body2" {
				rescued = b.Status == BudgetStopped && b.Fallback
			}
		}
		if !rescued {
			t.Errorf("%s: body2 not budget-stopped and rescued: %+v", d.name, got.Blocks)
		}
	}
}

// TestFig10Scenario reproduces the shape of Fig. 10: three basic blocks
// where the first cut comes from one block, and subsequent iterations
// re-identify with larger M only on the block chosen last.
func TestFig10Scenario(t *testing.T) {
	// Three functions acting as the three basic blocks, with frequencies
	// arranged so BB1 wins first, then BB3, then BB1 again (mirroring the
	// A>D>E, F+G-E ... structure of the figure).
	src := `
int buf[8];
void bb1(int x) {
    int a = ((x << 2) + x) ^ 3;
    int b = ((x >> 1) - 2) & 15;
    buf[0] = a; buf[1] = b;
}
void bb2(int x) {
    buf[2] = (x + 1) & 7;
}
void bb3(int x) {
    buf[3] = ((x * 5) + (x >> 3)) & 255;
}
int main() {
    int i;
    for (i = 0; i < 10; i++) { bb1(i); }
    bb2(3);
    for (i = 0; i < 8; i++) { bb3(i); }
    return buf[0];
}
`
	m := compileAndProfile(t, src)
	cfg := Config{Nin: 2, Nout: 1}
	res := SelectOptimal(m, 3, cfg)
	if len(res.Instructions) == 0 {
		t.Fatal("nothing selected")
	}
	// All instructions must come from real blocks with positive merit,
	// and the total must match the sum.
	var sum int64
	for _, sel := range res.Instructions {
		sum += sel.Est.Merit
	}
	if sum != res.TotalMerit {
		t.Errorf("total %d != sum %d", res.TotalMerit, sum)
	}
	// The busiest block (bb1, freq 10) must be served.
	servedBB1 := false
	for _, sel := range res.Instructions {
		if sel.Fn == m.Func("bb1") {
			servedBB1 = true
		}
	}
	if !servedBB1 {
		t.Error("hottest block not served")
	}
}

func TestSelectionStopsWhenNoGain(t *testing.T) {
	// A program whose blocks offer nothing (single cheap ops only).
	src := `
int g;
int main() { g = g + 1; return g; }
`
	m := compileAndProfile(t, src)
	cfg := Config{Nin: 2, Nout: 1}
	it := SelectIterative(m, 4, cfg)
	opt := SelectOptimal(m, 4, cfg)
	if len(it.Instructions) != 0 || len(opt.Instructions) != 0 {
		t.Errorf("selected instructions with no gain: it=%d opt=%d",
			len(it.Instructions), len(opt.Instructions))
	}
}

func TestSelectionZeroRequest(t *testing.T) {
	m := compileAndProfile(t, threeKernels)
	cfg := Config{Nin: 4, Nout: 2}
	if r := SelectIterative(m, 0, cfg); len(r.Instructions) != 0 {
		t.Error("ninstr=0 selected something")
	}
	if r := SelectOptimal(m, 0, cfg); len(r.Instructions) != 0 {
		t.Error("ninstr=0 selected something")
	}
}

// TestParallelSelectionDeterministic: a selection whose block searches
// run on the engine must produce exactly the serial result.
func TestParallelSelectionDeterministic(t *testing.T) {
	m := compileAndProfile(t, threeKernels)
	serial := SelectIterative(m, 4, Config{Nin: 4, Nout: 2, MaxCuts: 200_000})
	parallel := SelectIterative(m, 4, Config{Nin: 4, Nout: 2, MaxCuts: 200_000, Workers: 2})
	if serial.TotalMerit != parallel.TotalMerit ||
		len(serial.Instructions) != len(parallel.Instructions) {
		t.Fatalf("parallel selection diverged: %d/%d vs %d/%d",
			serial.TotalMerit, len(serial.Instructions),
			parallel.TotalMerit, len(parallel.Instructions))
	}
	for i := range serial.Instructions {
		a, b := serial.Instructions[i], parallel.Instructions[i]
		if a.Block != b.Block || len(a.InstrIndexes) != len(b.InstrIndexes) {
			t.Fatalf("instruction %d differs", i)
		}
		for j := range a.InstrIndexes {
			if a.InstrIndexes[j] != b.InstrIndexes[j] {
				t.Fatalf("instruction %d index %d differs", i, j)
			}
		}
	}
	if serial.IdentCalls != parallel.IdentCalls {
		t.Errorf("ident calls: %d vs %d", serial.IdentCalls, parallel.IdentCalls)
	}
}

// assertSelectionsEqual checks bit-identity between two selections: same
// instructions (function, block, collapsed positions, estimates), same
// total merit, same per-block statuses, and the same IdentCalls — the
// §6.2 currency. Stats are compared only when wantStats is set (they are
// guaranteed identical only with PruneMerit off; pruned runs explore a
// different, never unsound, portion of the tree).
func assertSelectionsEqual(t *testing.T, label string, want, got SelectionResult, wantStats bool) {
	t.Helper()
	if got.TotalMerit != want.TotalMerit {
		t.Fatalf("%s: total merit %d, want %d", label, got.TotalMerit, want.TotalMerit)
	}
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, want %v", label, got.Status, want.Status)
	}
	if got.IdentCalls != want.IdentCalls {
		t.Fatalf("%s: %d identification calls, want %d", label, got.IdentCalls, want.IdentCalls)
	}
	if len(got.Instructions) != len(want.Instructions) {
		t.Fatalf("%s: %d instructions, want %d", label, len(got.Instructions), len(want.Instructions))
	}
	for i := range want.Instructions {
		a, b := want.Instructions[i], got.Instructions[i]
		if a.Fn.Name != b.Fn.Name || a.Block.Name != b.Block.Name || a.Est != b.Est {
			t.Fatalf("%s: instruction %d differs: %s/%s %v vs %s/%s %v",
				label, i, b.Fn.Name, b.Block.Name, b.Est, a.Fn.Name, a.Block.Name, a.Est)
		}
		if len(a.InstrIndexes) != len(b.InstrIndexes) {
			t.Fatalf("%s: instruction %d indexes %v, want %v", label, i, b.InstrIndexes, a.InstrIndexes)
		}
		for j := range a.InstrIndexes {
			if a.InstrIndexes[j] != b.InstrIndexes[j] {
				t.Fatalf("%s: instruction %d indexes %v, want %v", label, i, b.InstrIndexes, a.InstrIndexes)
			}
		}
	}
	if len(got.Blocks) != len(want.Blocks) {
		t.Fatalf("%s: %d block statuses, want %d", label, len(got.Blocks), len(want.Blocks))
	}
	for i := range want.Blocks {
		a, b := want.Blocks[i], got.Blocks[i]
		if a.Fn != b.Fn || a.Block != b.Block || a.Status != b.Status {
			t.Fatalf("%s: block status %d: %s/%s %v, want %s/%s %v",
				label, i, b.Fn, b.Block, b.Status, a.Fn, a.Block, a.Status)
		}
	}
	if wantStats && got.Stats != want.Stats {
		t.Fatalf("%s: stats %+v, want %+v", label, got.Stats, want.Stats)
	}
}

// TestSelectOptimalParallelMatchesSerial: the optimal driver with its
// §6.2 searches on the engine selects exactly what the serial driver
// does, with the same Stats (PruneMerit is off, so the engine's
// subproblems partition each serial tree).
func TestSelectOptimalParallelMatchesSerial(t *testing.T) {
	m := compileAndProfile(t, threeKernels)
	cfg := Config{Nin: 2, Nout: 1}
	serial := SelectOptimal(m, 3, cfg)
	cfg.Workers = 2
	par := SelectOptimal(m, 3, cfg)
	assertSelectionsEqual(t, "optimal/engine", serial, par, true)
}

// TestInstrIndexesOfSuperNode: a cut containing a collapsed super-node
// expands to the super-node's member instruction positions plus the
// plain members' own positions, sorted.
func TestInstrIndexesOfSuperNode(t *testing.T) {
	m := compileAndProfile(t, threeKernels)
	bgs, failed := allBlockGraphs(m)
	if len(failed) > 0 {
		t.Fatalf("blocks failed to build: %+v", failed)
	}
	cfg := Config{Nin: 4, Nout: 2}
	for _, bg := range bgs {
		r := FindBestCut(bg.g, cfg)
		if !r.Found || len(r.Cut) < 2 {
			continue
		}
		ng, err := bg.g.Collapse(r.Cut, "super", r.Est.HWCycles)
		if err != nil {
			t.Fatal(err)
		}
		rep := -1
		for id := range ng.Nodes {
			if ng.Nodes[id].Name == "super" {
				rep = id
			}
		}
		if rep < 0 {
			t.Fatal("collapsed graph has no super-node")
		}
		super := &ng.Nodes[rep]
		if len(super.SuperMembers) == 0 {
			t.Fatalf("collapsed node %d has no members", rep)
		}
		// Find an op outside the super-node to pair with it.
		other := -1
		for _, id := range ng.OpOrder {
			if n := &ng.Nodes[id]; id != rep && n.Kind == dfg.KindOp && n.InstrIndex >= 0 {
				other = id
				break
			}
		}
		if other == -1 {
			continue
		}
		got := instrIndexesOf(ng, dfg.Cut{other, rep})
		want := append([]int{ng.Nodes[other].InstrIndex}, super.SuperMembers...)
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("instrIndexesOf = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("instrIndexesOf = %v, want %v", got, want)
			}
		}
		return
	}
	t.Skip("no block produced a multi-node cut to collapse")
}

// TestSortSelectedTieBreaks: ordering is function name, then block
// index, then first collapsed position — with an empty InstrIndexes
// ranking first (as position −1) and ties keeping insertion order.
func TestSortSelectedTieBreaks(t *testing.T) {
	fnA := &ir.Function{Name: "a"}
	fnB := &ir.Function{Name: "b"}
	b0 := &ir.Block{Name: "entry", Index: 0}
	b1 := &ir.Block{Name: "body", Index: 1}
	mk := func(fn *ir.Function, b *ir.Block, idx []int, merit int64) Selected {
		return Selected{Fn: fn, Block: b, InstrIndexes: idx, Est: Estimate{Merit: merit}}
	}
	sel := []Selected{
		mk(fnB, b0, []int{0}, 1),
		mk(fnA, b1, []int{2}, 2),
		mk(fnA, b1, nil, 3),      // empty indexes sort first within the block
		mk(fnA, b1, []int{2}, 4), // full tie with #1: insertion order kept
		mk(fnA, b0, []int{9}, 5),
		mk(fnA, b1, []int{1}, 6),
	}
	sortSelected(sel)
	wantMerits := []int64{5, 3, 6, 2, 4, 1}
	for i, w := range wantMerits {
		if sel[i].Est.Merit != w {
			order := make([]int64, len(sel))
			for j := range sel {
				order[j] = sel[j].Est.Merit
			}
			t.Fatalf("sortSelected order (by merit tag) = %v, want %v", order, wantMerits)
		}
	}
}
