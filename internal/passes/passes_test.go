package passes

import (
	"testing"
	"testing/quick"

	"isex/internal/interp"
	"isex/internal/ir"
	"isex/internal/minic"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := minic.Compile(src, minic.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return m
}

func runFn(t *testing.T, m *ir.Module, fn string, args ...int32) int32 {
	t.Helper()
	env := interp.NewEnv(m)
	got, _, err := env.Call(fn, args...)
	if err != nil {
		t.Fatalf("run %s: %v", fn, err)
	}
	return got
}

func countOp(f *ir.Function, op ir.Op) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == op {
				n++
			}
		}
	}
	return n
}

func totalInstrs(f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// checkSameBehaviour verifies that m1 and m2 compute identical results
// for fn over a sweep of argument values, including global state.
func checkSameBehaviour(t *testing.T, src, fn string, arity int, globals []string) {
	t.Helper()
	m1 := compile(t, src)
	m2 := compile(t, src)
	if err := Run(m2, Options{}); err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	inputs := []int32{-7, -1, 0, 1, 2, 3, 5, 8, 100, -32768, 32767}
	var rec func(args []int32)
	rec = func(args []int32) {
		if len(args) == arity {
			e1, e2 := interp.NewEnv(m1), interp.NewEnv(m2)
			r1, h1, err1 := e1.Call(fn, args...)
			r2, h2, err2 := e2.Call(fn, args...)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s(%v): error divergence: %v vs %v", fn, args, err1, err2)
			}
			if err1 != nil {
				return
			}
			if r1 != r2 || h1 != h2 {
				t.Fatalf("%s(%v) = %d vs %d after passes", fn, args, r1, r2)
			}
			for _, g := range globals {
				s1, _ := e1.GlobalSlice(g)
				s2, _ := e2.GlobalSlice(g)
				for i := range s1 {
					if s1[i] != s2[i] {
						t.Fatalf("%s(%v): global %s[%d] = %d vs %d", fn, args, g, i, s1[i], s2[i])
					}
				}
			}
			return
		}
		for _, v := range inputs {
			rec(append(args, v))
		}
	}
	rec(nil)
}

func TestMergeBlocksStraightLine(t *testing.T) {
	src := `int f(int x) { int a = x + 1; { int b = a * 2; a = b - x; } return a; }`
	m := compile(t, src)
	f := m.Func("f")
	MergeBlocks(f)
	if len(f.Blocks) != 1 {
		t.Errorf("straight-line function has %d blocks after merge", len(f.Blocks))
	}
	if got := runFn(t, m, "f", 10); got != 12 {
		t.Errorf("f(10) = %d", got)
	}
}

func TestRemoveUnreachable(t *testing.T) {
	b := ir.NewBuilder("f", 0)
	dead := b.NewBlock("dead")
	b.Ret(b.Const(1))
	b.SetBlock(dead)
	b.Ret(b.Const(2))
	f := b.Finish()
	if !RemoveUnreachable(f) {
		t.Fatal("unreachable block not detected")
	}
	if len(f.Blocks) != 1 {
		t.Errorf("blocks = %d", len(f.Blocks))
	}
	if RemoveUnreachable(f) {
		t.Error("second call should be a no-op")
	}
}

func TestIfConvertDiamond(t *testing.T) {
	src := `
int f(int x) {
    int r;
    if (x > 0) { r = x * 2; } else { r = 1 - x; }
    return r;
}`
	m := compile(t, src)
	f := m.Func("f")
	if !IfConvert(f) {
		t.Fatal("diamond not converted")
	}
	if len(f.Blocks) != 1 {
		t.Errorf("blocks after if-conversion = %d, want 1", len(f.Blocks))
	}
	if countOp(f, ir.OpSelect) == 0 {
		t.Error("no SEL emitted")
	}
	for _, x := range []int32{-5, 0, 7} {
		want := 1 - x
		if x > 0 {
			want = x * 2
		}
		if got := runFn(t, m, "f", x); got != want {
			t.Errorf("f(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestIfConvertTriangles(t *testing.T) {
	src := `
int f(int x) {
    int r = 3;
    if (x > 0) r = x;
    return r;
}
int g(int x) {
    int r = 3;
    if (x > 0) { } else { r = -x; }
    return r;
}`
	m := compile(t, src)
	for _, name := range []string{"f", "g"} {
		fn := m.Func(name)
		IfConvert(fn)
		if len(fn.Blocks) != 1 {
			t.Errorf("%s: blocks = %d, want 1", name, len(fn.Blocks))
		}
	}
	if got := runFn(t, m, "f", 5); got != 5 {
		t.Errorf("f(5) = %d", got)
	}
	if got := runFn(t, m, "f", -5); got != 3 {
		t.Errorf("f(-5) = %d", got)
	}
	if got := runFn(t, m, "g", -5); got != 5 {
		t.Errorf("g(-5) = %d", got)
	}
	if got := runFn(t, m, "g", 2); got != 3 {
		t.Errorf("g(2) = %d", got)
	}
}

func TestIfConvertNested(t *testing.T) {
	src := `
int f(int x, int y) {
    int r;
    if (x > 0) {
        if (y > 0) { r = x + y; } else { r = x - y; }
    } else {
        r = 0 - x;
    }
    return r;
}`
	m := compile(t, src)
	f := m.Func("f")
	IfConvert(f)
	if len(f.Blocks) != 1 {
		t.Errorf("nested if-conversion left %d blocks", len(f.Blocks))
	}
	cases := [][3]int32{{2, 3, 5}, {2, -3, 5}, {-2, 9, 2}}
	for _, c := range cases {
		if got := runFn(t, m, "f", c[0], c[1]); got != c[2] {
			t.Errorf("f(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

func TestIfConvertRefusesSideEffects(t *testing.T) {
	src := `
int g[4];
void st(int x) { if (x > 0) { g[0] = x; } else { g[1] = x; } }
int call(int x) { if (x > 0) { x = helper(x); } return x; }
int helper(int x) { return x + 1; }
int divv(int x, int y) { int r = 0; if (y != 0) { r = x / y; } return r; }`
	m := compile(t, src)
	for _, name := range []string{"st", "call", "divv"} {
		fn := m.Func(name)
		IfConvert(fn)
		if len(fn.Blocks) == 1 {
			t.Errorf("%s: side-effecting arm was if-converted", name)
		}
	}
	// divv would trap if speculated with y == 0.
	if got := runFn(t, m, "divv", 10, 0); got != 0 {
		t.Errorf("divv(10,0) = %d", got)
	}
}

func TestIfConvertLoopsUntouched(t *testing.T) {
	src := `
int f(int n) {
    int s = 0;
    int i;
    for (i = 0; i < n; i++) {
        if (i % 2 == 0) s += i;
    }
    return s;
}`
	m := compile(t, src)
	f := m.Func("f")
	IfConvert(f)
	// The loop must survive; the inner conditional must be gone.
	if len(f.Blocks) < 3 {
		t.Errorf("loop structure destroyed: %d blocks", len(f.Blocks))
	}
	if countOp(f, ir.OpSelect) == 0 {
		t.Error("inner conditional not converted")
	}
	if got := runFn(t, m, "f", 10); got != 0+2+4+6+8 {
		t.Errorf("f(10) = %d", got)
	}
}

func TestLocalOptimizeFolding(t *testing.T) {
	src := `int f(int x) { return (3 + 4) * x + (10 / 2) - (x - x); }`
	m := compile(t, src)
	f := m.Func("f")
	MergeBlocks(f)
	for i := 0; i < 4; i++ {
		LocalOptimize(f)
		Coalesce(f)
		DeadCodeElim(f)
	}
	// x-x folds to 0, and the enclosing "- 0" then simplifies away too.
	if n := countOp(f, ir.OpSub); n != 0 {
		t.Errorf("x-x not folded away: %d subs", n)
	}
	if countOp(f, ir.OpDiv) != 0 {
		t.Error("10/2 not folded")
	}
	if got := runFn(t, m, "f", 3); got != 7*3+5 {
		t.Errorf("f(3) = %d", got)
	}
}

func TestLocalOptimizeCSE(t *testing.T) {
	src := `
int f(int x, int y) {
    int a = (x + y) * 2;
    int b = (y + x) * 2;
    return a + b;
}`
	m := compile(t, src)
	f := m.Func("f")
	MergeBlocks(f)
	for i := 0; i < 4; i++ {
		LocalOptimize(f)
		Coalesce(f)
		DeadCodeElim(f)
	}
	if n := countOp(f, ir.OpAdd); n > 2 {
		t.Errorf("commutative CSE missed: %d adds, want <= 2", n)
	}
	if n := countOp(f, ir.OpMul); n != 1 {
		t.Errorf("mul CSE missed: %d muls", n)
	}
	if got := runFn(t, m, "f", 3, 4); got != 28 {
		t.Errorf("f = %d", got)
	}
}

func TestLoadCSEAndStoreInvalidation(t *testing.T) {
	src := `
int g[4] = {5};
int f(int x) {
    int a = g[0];
    int b = g[0];   // same epoch: CSE
    g[0] = x;
    int c = g[0];   // after store: must reload
    return a + b + c;
}`
	m := compile(t, src)
	f := m.Func("f")
	if err := Run(m, Options{}); err != nil {
		t.Fatal(err)
	}
	if n := countOp(f, ir.OpLoad); n != 2 {
		t.Errorf("loads = %d, want 2 (CSE first pair, reload after store)", n)
	}
	if got := runFn(t, m, "f", 9); got != 5+5+9 {
		t.Errorf("f(9) = %d", got)
	}
}

func TestCoalesceRemovesFrontEndCopies(t *testing.T) {
	src := `int f(int x) { int a = x + 1; int b = a * 2; return b - a; }`
	m := compile(t, src)
	f := m.Func("f")
	if err := Run(m, Options{}); err != nil {
		t.Fatal(err)
	}
	if n := countOp(f, ir.OpCopy); n != 0 {
		t.Errorf("%d copies survived the pipeline:\n%s", n, f)
	}
	if got := runFn(t, m, "f", 4); got != 5 {
		t.Errorf("f(4) = %d", got)
	}
}

func TestDCE(t *testing.T) {
	src := `
int f(int x) {
    int dead = x * 100;
    int dead2 = dead + 5;
    return x + 1;
}`
	m := compile(t, src)
	f := m.Func("f")
	if err := Run(m, Options{}); err != nil {
		t.Fatal(err)
	}
	if countOp(f, ir.OpMul) != 0 {
		t.Error("dead multiply survived")
	}
	if got := runFn(t, m, "f", 41); got != 42 {
		t.Errorf("f = %d", got)
	}
}

func TestDCEKeepsSideEffects(t *testing.T) {
	src := `
int g[2];
int helper(int x) { g[1] = x; return x; }
int f(int x) {
    g[0] = x;          // store must stay
    helper(x + 1);     // call must stay
    return 7;
}`
	m := compile(t, src)
	if err := Run(m, Options{}); err != nil {
		t.Fatal(err)
	}
	env := interp.NewEnv(m)
	if _, _, err := env.Call("f", 3); err != nil {
		t.Fatal(err)
	}
	gs, _ := env.GlobalSlice("g")
	if gs[0] != 3 || gs[1] != 4 {
		t.Errorf("side effects lost: g = %v", gs)
	}
}

func TestPipelinePreservesSemantics(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		fn      string
		arity   int
		globals []string
	}{
		{"saturating add", `
int sat(int a, int b) {
    int s = a + b;
    if (s > 32767) s = 32767;
    if (s < -32768) s = -32768;
    return s;
}`, "sat", 2, nil},
		{"abs diff chains", `
int f(int a, int b) {
    int d = a - b;
    if (d < 0) d = -d;
    int e = d;
    if (a > b) { e = e * 2; } else { e = e + b; }
    return d + e;
}`, "f", 2, nil},
		{"global state machine", `
int state;
int step(int x) {
    if (state == 0) { if (x > 0) state = 1; }
    else { if (x < 0) state = 0; }
    return state;
}`, "step", 1, []string{"state"}},
		{"mixed select and mem", `
int tab[8] = {3, 1, 4, 1, 5, 9, 2, 6};
int f(int i, int j) {
    int a = tab[i & 7];
    int b = tab[j & 7];
    int m = a > b ? a - b : b - a;
    tab[(i + j) & 7] = m;
    return m + tab[i & 7];
}`, "f", 2, []string{"tab"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkSameBehaviour(t, c.src, c.fn, c.arity, c.globals)
		})
	}
}

func TestPipelineShrinks(t *testing.T) {
	src := `
int f(int x, int y) {
    int a = x + 0;
    int b = a * 1;
    int c = b << 0;
    int d = (x + y) + (x + y);
    int e = 5 * 4;
    return c + d + e;
}`
	m := compile(t, src)
	f := m.Func("f")
	MergeBlocks(f)
	before := totalInstrs(f)
	if err := Run(m, Options{}); err != nil {
		t.Fatal(err)
	}
	after := totalInstrs(f)
	if after >= before {
		t.Errorf("pipeline did not shrink: %d -> %d", before, after)
	}
	if got := runFn(t, m, "f", 2, 3); got != 2+10+20 {
		t.Errorf("f = %d", got)
	}
}

func TestPipelineRandomizedInputs(t *testing.T) {
	src := `
int f(int x, int y, int z) {
    int r = 0;
    if (x > y) { r = x - y; } else { r = y - x; }
    int s = (z & 15) + (r >> 2);
    int q = s > 100 ? 100 : s;
    if (q == 100) { q = q + (x & 1); }
    return q * 3 - r;
}`
	m1 := compile(t, src)
	m2 := compile(t, src)
	if err := Run(m2, Options{}); err != nil {
		t.Fatal(err)
	}
	check := func(x, y, z int32) bool {
		e1, e2 := interp.NewEnv(m1), interp.NewEnv(m2)
		r1, _, err1 := e1.Call("f", x, y, z)
		r2, _, err2 := e2.Call("f", x, y, z)
		return err1 == nil && err2 == nil && r1 == r2
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
