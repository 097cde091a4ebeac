package minic

import (
	"testing"

	"isex/internal/ir"
	"isex/internal/passes"
)

// FuzzCompile drives the whole MiniC front end — lexer, parser, semantic
// analysis, lowering, and optional unrolling — with arbitrary source text,
// and then the standard pass pipeline on whatever compiles. The contract
// under fuzzing is the one the isex facade relies on: any input either
// compiles to a verified module or returns an error, the passes keep the
// module verified, and neither panics. The fuzzer's control-flow graphs
// also exercise liveness, value numbering and if-conversion.
func FuzzCompile(f *testing.F) {
	seeds := []string{
		"",
		"int main() { return 0; }",
		`int a[4] = {1, 2, 3};
int main() { a[1] = a[0] + 2; return a[1]; }`,
		`int abs(int x) { return x < 0 ? -x : x; }
int main() { return abs(-5); }`,
		`int out[8];
void k(int n) {
    int i;
    for (i = 0; i < n; i++) { out[i & 7] = (i * 3 + 1) >> 1; }
}
int main() { k(8); return out[2]; }`,
		`int f(int x, int y) {
    int z = x & y;
    while (z > 0) { z = z - (x | 1); }
    return z ^ y;
}`,
		// Near-miss inputs: well-formed prefixes with broken tails.
		"int main() { return 0;",
		"int main() { int x = ; }",
		"void f(int",
		"int a[; int main() { return 0; }",
		"int f() { for (;;) }",
		"/* unterminated",
		"'\\0", // truncated escape literal; crashed the lexer once
		"int main() { return 'a'; }",
		`int main() { return "str"; }`,
		"\x00\xff\xfe",
	}
	for _, s := range seeds {
		f.Add(s, 0)
	}
	f.Fuzz(func(t *testing.T, src string, unroll int) {
		if unroll < 0 || unroll > 64 {
			unroll %= 64
		}
		m, err := Compile(src, Options{UnrollLimit: unroll})
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("Compile returned nil module without error")
		}
		if err := ir.VerifyModule(m); err != nil {
			t.Fatalf("compiled module fails verification: %v\nsource:\n%s", err, src)
		}
		if err := passes.Run(m, passes.Options{}); err != nil {
			t.Fatalf("optimized module fails verification: %v\nsource:\n%s", err, src)
		}
	})
}
