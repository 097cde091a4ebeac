package minic

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"isex/internal/interp"
	"isex/internal/ir"
)

func compile(t *testing.T, src string, opt Options) *ir.Module {
	t.Helper()
	m, err := Compile(src, opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return m
}

// run compiles src and calls fn with args, returning the result.
func run(t *testing.T, src, fn string, args ...int32) int32 {
	t.Helper()
	m := compile(t, src, Options{})
	env := interp.NewEnv(m)
	ret, hasRet, err := env.Call(fn, args...)
	if err != nil {
		t.Fatalf("run %s: %v", fn, err)
	}
	if !hasRet {
		t.Fatalf("%s returned no value", fn)
	}
	return ret
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("x1 = 0x1F + 42; // comment\n/* multi\nline */ y <<= 'A';")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		if tk.Kind == TokEOF {
			break
		}
		texts = append(texts, tk.Text)
	}
	want := []string{"x1", "=", "0x1F", "+", "42", ";", "y", "<<=", "'A'", ";"}
	if strings.Join(texts, " ") != strings.Join(want, " ") {
		t.Errorf("tokens = %v, want %v", texts, want)
	}
	if toks[2].Val != 31 || toks[4].Val != 42 || toks[8].Val != 65 {
		t.Errorf("literal values wrong: %v", toks)
	}

	// Every punctuation token alone, and glued where the longest match
	// decides the split.
	puncts := []string{
		"<<=", ">>=",
		"==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
		"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
		"+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
		"(", ")", "{", "}", "[", "]", ";", ",", "?", ":",
	}
	for _, p := range puncts {
		toks, err := Lex(p)
		if err != nil || len(toks) != 2 || toks[0].Kind != TokPunct || toks[0].Text != p {
			t.Errorf("Lex(%q) = %v, %v; want the one punctuation token", p, toks, err)
		}
	}
	for src, want := range map[string]string{
		"a<<=b>>=c": "a <<= b >>= c",
		"x&&y&z":    "x && y & z",
		"p||q|r":    "p || q | r",
		"a!=b==c":   "a != b == c",
		"i+++j":     "i ++ + j",
		"m-->n":     "m -- > n",
	} {
		toks, err := Lex(src)
		if err != nil {
			t.Fatalf("Lex(%q): %v", src, err)
		}
		var texts []string
		for _, tk := range toks[:len(toks)-1] {
			texts = append(texts, tk.Text)
		}
		if got := strings.Join(texts, " "); got != want {
			t.Errorf("Lex(%q) = %s, want %s", src, got, want)
		}
	}
}

func TestLexEscapes(t *testing.T) {
	toks, err := Lex(`'\n' '\t' '\0' '\\' '\''`)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{'\n', '\t', 0, '\\', '\''}
	for i, w := range want {
		if toks[i].Val != w {
			t.Errorf("escape %d: got %d, want %d", i, toks[i].Val, w)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"@", "/* unterminated", "0x", "123abc", "'ab'", "'"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) should fail", src)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 || toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("positions wrong: %+v", toks[:2])
	}

	// A tab and a carriage return are one column each; comments, a
	// multi-line one among them, move lines and columns as their text
	// does.
	toks, err = Lex("/* head\n   comment */ a\tb\r\n// line\n\t/* x\n y */ c+= 12 // tail\n\td")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		text      string
		line, col int
	}{{"a", 2, 15}, {"b", 2, 17}, {"c", 5, 7}, {"+=", 5, 8}, {"12", 5, 11}, {"d", 6, 2}, {"", 6, 3}}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %+v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if tk := toks[i]; tk.Text != w.text || tk.Line != w.line || tk.Col != w.col {
			t.Errorf("token %d = %q at %d:%d, want %q at %d:%d", i, tk.Text, tk.Line, tk.Col, w.text, w.line, w.col)
		}
	}
}

func TestArithmetic(t *testing.T) {
	src := `
int f(int a, int b) {
    return (a + b) * (a - b) / 2 + a % b;
}`
	if got := run(t, src, "f", 7, 3); got != (7+3)*(7-3)/2+7%3 {
		t.Errorf("f(7,3) = %d", got)
	}
}

func TestPrecedenceAndUnary(t *testing.T) {
	src := `
int f(int a, int b) {
    return a + b * 2 << 1 | 1;
}
int g(int x) { return -x + ~x + !x; }
int h(int x) { return +x; }`
	if got := run(t, src, "f", 1, 2); got != ((1+2*2)<<1)|1 {
		t.Errorf("f = %d", got)
	}
	if got := run(t, src, "g", 5); got != -5+^5+0 {
		t.Errorf("g(5) = %d", got)
	}
	if got := run(t, src, "g", 0); got != 0+^0+1 {
		t.Errorf("g(0) = %d", got)
	}
	if got := run(t, src, "h", -9); got != -9 {
		t.Errorf("h(-9) = %d", got)
	}
}

// TestBinaryPrecedencePairs parses a OP1 b OP2 c for every ordered pair
// of binary operators: it groups as (a OP1 b) OP2 c when OP1 binds at
// least as tightly as OP2 and as a OP1 (b OP2 c) otherwise, and each
// operator node sits at its operator.
func TestBinaryPrecedencePairs(t *testing.T) {
	// C's binary operators, loosest level first.
	levels := [][]string{
		{"||"}, {"&&"}, {"|"}, {"^"}, {"&"}, {"==", "!="},
		{"<", "<=", ">", ">="}, {"<<", ">>"}, {"+", "-"}, {"*", "/", "%"},
	}
	level := map[string]int{}
	for l, ops := range levels {
		for _, op := range ops {
			level[op] = l
		}
	}
	if len(level) != 18 {
		t.Fatalf("%d binary operators, want 18", len(level))
	}
	const prefix = "int f(int a, int b, int c) { return "
	varAt := func(name string, col int) Expr { return &VarExpr{Pos: Pos{1, col}, Name: name} }
	for op1 := range level {
		for op2 := range level {
			expr := "a " + op1 + " b " + op2 + " c"
			prog, err := Parse(prefix + expr + "; }")
			if err != nil {
				t.Fatalf("%s: %v", expr, err)
			}
			col := func(part string) int { return len(prefix) + len(part) + 1 }
			a, b, c := varAt("a", col("")), varAt("b", col("a "+op1+" ")), varAt("c", col("a "+op1+" b "+op2+" "))
			p1, p2 := Pos{1, col("a ")}, Pos{1, col("a " + op1 + " b ")}
			var want Expr
			if level[op1] >= level[op2] {
				want = &BinaryExpr{Pos: p2, Op: op2, L: &BinaryExpr{Pos: p1, Op: op1, L: a, R: b}, R: c}
			} else {
				want = &BinaryExpr{Pos: p1, Op: op1, L: a, R: &BinaryExpr{Pos: p2, Op: op2, L: b, R: c}}
			}
			got := prog.Funcs[0].Body.Stmts[0].(*ReturnStmt).X
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: parsed as %s, want %s", expr, exprString(got), exprString(want))
			}
		}
	}
}

// exprString renders a binary-operator tree with its operator positions.
func exprString(e Expr) string {
	switch e := e.(type) {
	case *BinaryExpr:
		return fmt.Sprintf("(%s %s@%d %s)", exprString(e.L), e.Op, e.Pos.Col, exprString(e.R))
	case *VarExpr:
		return fmt.Sprintf("%s@%d", e.Name, e.Pos.Col)
	}
	return fmt.Sprintf("%#v", e)
}

func TestComparisonsAndLogic(t *testing.T) {
	src := `
int f(int a, int b) {
    return (a < b) + 10*(a <= b) + 100*(a > b) + 1000*(a >= b)
         + 10000*(a == b) + 100000*(a != b);
}
int l(int a, int b) { return (a && b) + 2*(a || b); }`
	if got := run(t, src, "f", 2, 2); got != 0+10+0+1000+10000+0 {
		t.Errorf("f(2,2) = %d", got)
	}
	if got := run(t, src, "f", 1, 2); got != 1+10+0+0+0+100000 {
		t.Errorf("f(1,2) = %d", got)
	}
	if got := run(t, src, "l", 3, 0); got != 0+2 {
		t.Errorf("l(3,0) = %d", got)
	}
	if got := run(t, src, "l", 3, -1); got != 1+2 {
		t.Errorf("l(3,-1) = %d", got)
	}
	if got := run(t, src, "l", 0, 0); got != 0 {
		t.Errorf("l(0,0) = %d", got)
	}
}

func TestTernaryAndIntrinsics(t *testing.T) {
	src := `
int clamp(int x, int lo, int hi) {
    return x < lo ? lo : (x > hi ? hi : x);
}
int m(int a, int b) { return min(a, b) + 10*max(a, b) + 100*abs(a - b); }`
	for _, c := range []struct{ x, want int32 }{{5, 5}, {-3, 0}, {99, 10}} {
		if got := run(t, src, "clamp", c.x, 0, 10); got != c.want {
			t.Errorf("clamp(%d) = %d, want %d", c.x, got, c.want)
		}
	}
	if got := run(t, src, "m", 7, 3); got != 3+70+400 {
		t.Errorf("m(7,3) = %d", got)
	}
}

func TestControlFlow(t *testing.T) {
	src := `
int fib(int n) {
    int a = 0;
    int b = 1;
    int i;
    for (i = 0; i < n; i++) {
        int t = a + b;
        a = b;
        b = t;
    }
    return a;
}
int collatz(int n) {
    int steps = 0;
    while (n != 1) {
        if (n % 2 == 0) { n = n / 2; } else { n = 3*n + 1; }
        steps++;
    }
    return steps;
}
int sumskip(int n) {
    int s = 0;
    int i = 0;
    while (i < n) {
        i++;
        if (i % 3 == 0) continue;
        if (i > 10) break;
        s += i;
    }
    return s;
}`
	if got := run(t, src, "fib", 10); got != 55 {
		t.Errorf("fib(10) = %d", got)
	}
	if got := run(t, src, "collatz", 27); got != 111 {
		t.Errorf("collatz(27) = %d", got)
	}
	// 1+2+4+5+7+8+10 = 37
	if got := run(t, src, "sumskip", 100); got != 37 {
		t.Errorf("sumskip = %d", got)
	}
}

func TestArraysAndGlobals(t *testing.T) {
	src := `
int tab[5] = {10, 20, 30};
int acc = 7;

int sum(int n) {
    int s = acc;
    int i;
    for (i = 0; i < n; i++) s += tab[i];
    return s;
}
void setg(int v) { acc = v; tab[4] = v + 1; }
int getg() { return acc + tab[4]; }
int local(int n) {
    int buf[8];
    int i;
    for (i = 0; i < 8; i++) buf[i] = i * n;
    return buf[3] + buf[7];
}`
	m := compile(t, src, Options{})
	env := interp.NewEnv(m)
	got, _, err := env.Call("sum", 5)
	if err != nil || got != 7+10+20+30 {
		t.Errorf("sum = %d, %v", got, err)
	}
	if _, _, err := env.Call("setg", 100); err != nil {
		t.Fatal(err)
	}
	got, _, err = env.Call("getg")
	if err != nil || got != 100+101 {
		t.Errorf("getg = %d, %v", got, err)
	}
	got, _, err = env.Call("local", 2)
	if err != nil || got != 6+14 {
		t.Errorf("local = %d, %v", got, err)
	}
}

func TestArrayParamsAndCalls(t *testing.T) {
	src := `
int data[6] = {1, 2, 3, 4, 5, 6};

int sumrange(int a[], int lo, int hi) {
    int s = 0;
    int i;
    for (i = lo; i < hi; i++) s += a[i];
    return s;
}
int twice(int x) { return 2 * x; }
int top(int n) {
    int loc[4];
    loc[0] = 9; loc[1] = 8; loc[2] = 7; loc[3] = 6;
    return sumrange(data, 0, n) + sumrange(loc, 1, 3) + twice(n);
}`
	if got := run(t, src, "top", 4); got != (1+2+3+4)+(8+7)+8 {
		t.Errorf("top(4) = %d", got)
	}
}

func TestCompoundAssignAndIncDec(t *testing.T) {
	src := `
int f(int x) {
    int a = x;
    a += 3; a -= 1; a *= 2; a /= 3; a %= 100;
    a <<= 2; a >>= 1; a &= 0xFF; a |= 0x100; a ^= 0x3;
    a++; a--;
    return a;
}
int arr(int x) {
    int b[2];
    b[0] = x;
    b[0] += 5;
    b[0] <<= 1;
    b[1] = 1;
    b[1]++;
    return b[0] + b[1];
}`
	var a int32 = 4
	a += 3
	a -= 1
	a *= 2
	a /= 3
	a %= 100
	a <<= 2
	a >>= 1
	a &= 0xFF
	a |= 0x100
	a ^= 0x3
	if got := run(t, src, "f", 4); got != a {
		t.Errorf("f(4) = %d, want %d", got, a)
	}
	if got := run(t, src, "arr", 3); got != 16+2 {
		t.Errorf("arr(3) = %d", got)
	}
}

func TestShiftAndHexSemantics(t *testing.T) {
	src := `
int f(int x) { return x >> 1; }            // arithmetic shift
int g(int x) { return (x & 0xFF) << 24; }
`
	if got := run(t, src, "f", -8); got != -4 {
		t.Errorf("f(-8) = %d", got)
	}
	if got := run(t, src, "g", 0x1FF); uint32(got) != uint32(0xFF)<<24 {
		t.Errorf("g = %d", got)
	}
}

func TestVoidFunctionFallthroughReturn(t *testing.T) {
	src := `
int g;
void set() { g = 5; }
int f() { set(); return g; }
int noret(int x) { if (x > 0) return 1; return 0; }
int implicit() { int a = 3; a = a; }  // falls off the end: returns 0
`
	if got := run(t, src, "f"); got != 5 {
		t.Errorf("f = %d", got)
	}
	if got := run(t, src, "noret", -1); got != 0 {
		t.Errorf("noret(-1) = %d", got)
	}
	if got := run(t, src, "implicit"); got != 0 {
		t.Errorf("implicit = %d", got)
	}
}

func TestRecursion(t *testing.T) {
	src := `
int fact(int n) {
    if (n <= 1) return 1;
    return n * fact(n - 1);
}`
	if got := run(t, src, "fact", 6); got != 720 {
		t.Errorf("fact(6) = %d", got)
	}
}

func TestScoping(t *testing.T) {
	src := `
int f(int x) {
    int a = 1;
    {
        int a = 2;
        x += a;
    }
    return x + a;
}`
	if got := run(t, src, "f", 10); got != 13 {
		t.Errorf("f(10) = %d", got)
	}
}

func TestGlobalInitializers(t *testing.T) {
	src := `
int a = -5;
int b[3] = {1, -2, 3,};
int c[4];
int f() { return a + b[0] + b[1] + b[2] + c[3]; }`
	if got := run(t, src, "f"); got != -5+1-2+3+0 {
		t.Errorf("f = %d", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"int f( { }",
		"int f() { return 1 }",
		"int f() { x = ; }",
		"int f() { if x { } }",
		"void 3() {}",
		"int g[0];",
		"int g[2] = 5;",
		"int g = {1,2};",
		"float f() {}",
		"int f() { for (;;) }",
		"int f() { a[1 = 2; }",
		"int f() { return (1 + ; }",
		"int f() {",
		"void v = 3;",
		"int f() { 1 + 2; }",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestSemaErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"undeclared", "int f() { return x; }"},
		{"undeclared assign", "int f() { x = 1; return 0; }"},
		{"array as value", "int a[2]; int f() { return a; }"},
		{"scalar indexed", "int f(int x) { return x[0]; }"},
		{"assign to array", "int a[2]; int f() { a = 1; return 0; }"},
		{"break outside", "int f() { break; return 0; }"},
		{"continue outside", "int f() { continue; return 0; }"},
		{"void returns value", "void f() { return 1; }"},
		{"int returns nothing", "int f() { return; }"},
		{"call undefined", "int f() { return g(); }"},
		{"bad arity", "int g(int x) { return x; } int f() { return g(1, 2); }"},
		{"intrinsic arity", "int f() { return min(1); }"},
		{"redefine intrinsic", "int min(int a, int b) { return a; }"},
		{"dup function", "int f() { return 0; } int f() { return 1; }"},
		{"dup global", "int g; int g;"},
		{"func shadows global", "int f; int f() { return 0; }"},
		{"dup param", "int f(int a, int a) { return a; }"},
		{"dup local", "int f() { int a = 1; int a = 2; return a; }"},
		{"call in ternary", "int g() { return 1; } int f(int x) { return x ? g() : 2; }"},
		{"array arg for scalar", "int a[2]; int g(int x) { return x; } int f() { return g(a); }"},
		{"scalar arg for array", "int g(int x[]) { return x[0]; } int f(int y) { return g(y); }"},
		{"expr statement", "int g() { return 1; } int f() { int x = 0; x == 1; return x; }"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, err := Parse(c.src)
			if err != nil {
				return // some are also parse errors; fine
			}
			if err := Check(prog); err == nil {
				t.Errorf("Check(%q) should fail", c.src)
			}
		})
	}
}

func TestErrorPositions(t *testing.T) {
	_, err := Compile("int f() {\n  return x;\n}", Options{})
	if err == nil {
		t.Fatal("expected error")
	}
	fe, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if fe.Line != 2 {
		t.Errorf("error line = %d, want 2", fe.Line)
	}
}

func TestUnrolling(t *testing.T) {
	src := `
int a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
int f() {
    int s = 0;
    int i;
    for (i = 0; i < 8; i++) s += a[i];
    return s + i;
}`
	rolled := compile(t, src, Options{})
	unrolled := compile(t, src, Options{UnrollLimit: 16})
	// Unrolled version: function f must have fewer blocks (no loop).
	fr, fu := rolled.Func("f"), unrolled.Func("f")
	if len(fu.Blocks) >= len(fr.Blocks) {
		t.Errorf("unrolled blocks %d, rolled %d", len(fu.Blocks), len(fr.Blocks))
	}
	if len(fu.Blocks) != 1 {
		t.Errorf("fully unrolled f should be a single block, got %d", len(fu.Blocks))
	}
	for _, m := range []*ir.Module{rolled, unrolled} {
		env := interp.NewEnv(m)
		got, _, err := env.Call("f")
		if err != nil || got != 36+8 {
			t.Errorf("f = %d, %v", got, err)
		}
	}
}

func TestUnrollRejections(t *testing.T) {
	cases := []struct{ name, src string }{
		{"assigns iv", `int f() { int s=0; int i; for (i=0;i<4;i++) { i = i; s++; } return s; }`},
		{"break", `int f() { int s=0; int i; for (i=0;i<4;i++) { if (s>2) break; s++; } return s; }`},
		{"nonconst bound", `int f(int n) { int s=0; int i; for (i=0;i<n;i++) s++; return s; }`},
		{"too many trips", `int f() { int s=0; int i; for (i=0;i<1000;i++) s++; return s; }`},
		{"redeclares iv", `int f() { int s=0; int i; for (i=0;i<4;i++) { int i = 1; s += i; } return s; }`},
		{"zero step", `int f() { int s=0; int i; for (i=0;i<4;i+=0) { s++; if (s > 5) return s; } return s; }`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, err := Compile(c.src, Options{UnrollLimit: 16})
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Func("f").Blocks) == 1 {
				t.Errorf("loop should not have been unrolled")
			}
		})
	}
}

func TestUnrollNested(t *testing.T) {
	src := `
int f() {
    int s = 0;
    int i;
    int j;
    for (i = 0; i < 3; i++) {
        for (j = 0; j < 4; j++) {
            s += i * 4 + j;
        }
    }
    return s;
}`
	m := compile(t, src, Options{UnrollLimit: 8})
	if n := len(m.Func("f").Blocks); n != 1 {
		t.Errorf("nested unroll should leave 1 block, got %d", n)
	}
	env := interp.NewEnv(m)
	got, _, err := env.Call("f")
	if err != nil || got != 66 {
		t.Errorf("f = %d, %v", got, err)
	}
}

func TestUnrollDownwardLoop(t *testing.T) {
	src := `
int f() {
    int s = 0;
    int i;
    for (i = 10; i > 0; i -= 2) s += i;
    return 100*s + i;
}`
	m := compile(t, src, Options{UnrollLimit: 16})
	if n := len(m.Func("f").Blocks); n != 1 {
		t.Errorf("downward unroll blocks = %d", n)
	}
	env := interp.NewEnv(m)
	got, _, err := env.Call("f")
	if err != nil || got != 100*(10+8+6+4+2)+0 {
		t.Errorf("f = %d, %v", got, err)
	}
}

func TestLoweredModuleVerifies(t *testing.T) {
	src := `
int t[4] = {1,2,3,4};
int helper(int a[], int n) { int s=0; int i; for (i=0;i<n;i++) s+=a[i]; return s; }
int f(int x) {
    int buf[4];
    int i;
    for (i = 0; i < 4; i++) buf[i] = t[i] * x;
    if (x > 0) return helper(buf, 4);
    return helper(t, 4) > 5 ? 1 : 0;
}`
	m := compile(t, src, Options{})
	if err := ir.VerifyModule(m); err != nil {
		t.Fatal(err)
	}
	env := interp.NewEnv(m)
	got, _, err := env.Call("f", 3)
	if err != nil || got != 30 {
		t.Errorf("f(3) = %d, %v", got, err)
	}
	got, _, err = env.Call("f", -1)
	if err != nil || got != 1 {
		t.Errorf("f(-1) = %d, %v", got, err)
	}
}

func TestLshrIntrinsic(t *testing.T) {
	src := `
int f(int x, int s) { return lshr(x, s); }
int g(int x) { return x ? lshr(x, 1) : min(x, 3); }  // intrinsics OK in ?: arms
`
	var minus8 int32 = -8
	if got := run(t, src, "f", -8, 1); uint32(got) != uint32(minus8)>>1 {
		t.Errorf("lshr(-8,1) = %d", got)
	}
	if got := run(t, src, "f", -1, 31); got != 1 {
		t.Errorf("lshr(-1,31) = %d", got)
	}
	if got := run(t, src, "g", 8); got != 4 {
		t.Errorf("g(8) = %d", got)
	}
	if got := run(t, src, "g", 0); got != 0 {
		t.Errorf("g(0) = %d", got)
	}
	// User calls in ?: arms remain rejected.
	bad := `int h(int x) { return x; } int f(int x) { return x ? h(x) : 1; }`
	if _, err := Compile(bad, Options{}); err == nil {
		t.Error("user call in ternary arm accepted")
	}
}
