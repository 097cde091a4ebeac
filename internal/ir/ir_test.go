package ir

import (
	"strings"
	"testing"
)

// buildDiamond builds: entry -> (then|else) -> exit, computing
// ret = cond ? a+b : a-b for params (cond, a, b).
func buildDiamond(t *testing.T) *Function {
	t.Helper()
	b := NewBuilder("diamond", 3)
	cond, a, x := b.Fn.Params[0], b.Fn.Params[1], b.Fn.Params[2]
	res := b.Fn.NewReg()
	then := b.NewBlock("then")
	els := b.NewBlock("else")
	exit := b.NewBlock("exit")
	b.Branch(cond, then, els)
	b.SetBlock(then)
	b.CopyTo(res, b.Op(OpAdd, a, x))
	b.Jump(exit)
	b.SetBlock(els)
	b.CopyTo(res, b.Op(OpSub, a, x))
	b.Jump(exit)
	b.SetBlock(exit)
	b.Ret(res)
	return b.Finish()
}

func TestBuilderAndVerify(t *testing.T) {
	f := buildDiamond(t)
	if err := VerifyFunction(f, nil); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if len(f.Blocks) != 4 {
		t.Fatalf("got %d blocks, want 4", len(f.Blocks))
	}
	entry := f.Entry()
	if entry.Term.Kind != TermBranch || len(entry.Succs()) != 2 {
		t.Fatalf("entry terminator wrong: %v", entry.Term)
	}
	exit := f.Blocks[3]
	if len(exit.Preds) != 2 {
		t.Fatalf("exit preds = %d, want 2", len(exit.Preds))
	}
}

func TestVerifyCatchesErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(f *Function)
	}{
		{"bad arg reg", func(f *Function) { f.Blocks[1].Instrs[0].Args[0] = Reg(999) }},
		{"negative reg", func(f *Function) { f.Blocks[1].Instrs[0].Args[0] = -2 }},
		{"bad arity", func(f *Function) { f.Blocks[1].Instrs[0].Args = f.Blocks[1].Instrs[0].Args[:1] }},
		{"no dst", func(f *Function) { f.Blocks[1].Instrs[0].Dsts = nil }},
		{"invalid op", func(f *Function) { f.Blocks[1].Instrs[0].Op = OpInvalid }},
		{"missing term", func(f *Function) { f.Blocks[1].Term = Term{} }},
		{"stale index", func(f *Function) { f.Blocks[2].Index = 0 }},
		{"foreign target", func(f *Function) {
			other := &Block{Name: "foreign"}
			f.Blocks[1].Term.Targets[0] = other
		}},
		{"bad cond reg", func(f *Function) { f.Blocks[0].Term.Cond = 999 }},
		{"bad ret reg", func(f *Function) { f.Blocks[3].Term.Val = -5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := buildDiamond(t)
			tc.mut(f)
			if err := VerifyFunction(f, nil); err == nil {
				t.Errorf("verify accepted corrupt function (%s)", tc.name)
			}
		})
	}
}

func TestVerifyModule(t *testing.T) {
	f := buildDiamond(t)
	m := &Module{Funcs: []*Function{f}, Globals: []Global{{Name: "tab", Size: 4, Init: []int32{1, 2}}}}
	if err := VerifyModule(m); err != nil {
		t.Fatalf("verify module: %v", err)
	}
	m2 := &Module{Globals: []Global{{Name: "g", Size: 1, Init: []int32{1, 2}}}}
	if err := VerifyModule(m2); err == nil {
		t.Error("oversized initializer accepted")
	}
	m3 := &Module{Globals: []Global{{Name: "g", Size: 1}, {Name: "g", Size: 1}}}
	if err := VerifyModule(m3); err == nil {
		t.Error("duplicate global accepted")
	}
}

func TestLivenessDiamond(t *testing.T) {
	f := buildDiamond(t)
	li := Liveness(f)
	cond, a, x := f.Params[0], f.Params[1], f.Params[2]
	res := f.Blocks[3].Term.Val
	in0 := li.In[0]
	for _, r := range []Reg{cond, a, x} {
		if !in0.Has(r) {
			t.Errorf("r%d should be live into entry", r)
		}
	}
	if li.In[0].Has(res) {
		t.Error("result live into entry")
	}
	// a and x live into both arms; res live out of both arms.
	for _, bi := range []int{1, 2} {
		if !li.In[bi].Has(a) || !li.In[bi].Has(x) {
			t.Errorf("block %d: operands not live in", bi)
		}
		if !li.Out[bi].Has(res) {
			t.Errorf("block %d: result not live out", bi)
		}
		if li.In[bi].Has(cond) {
			t.Errorf("block %d: cond should be dead", bi)
		}
	}
	if !li.In[3].Has(res) {
		t.Error("res not live into exit")
	}
}

func TestLivenessLoop(t *testing.T) {
	// i = 0; while (i < n) { s = s + i; i = i + 1 } return s
	b := NewBuilder("loop", 2)
	n, s := b.Fn.Params[0], b.Fn.Params[1]
	i := b.Fn.NewReg()
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.CopyTo(i, b.Const(0))
	b.Jump(head)
	b.SetBlock(head)
	c := b.Op(OpLt, i, n)
	b.Branch(c, body, exit)
	b.SetBlock(body)
	b.CopyTo(s, b.Op(OpAdd, s, i))
	b.CopyTo(i, b.Op(OpAdd, i, b.Const(1)))
	b.Jump(head)
	b.SetBlock(exit)
	b.Ret(s)
	f := b.Finish()
	if err := VerifyFunction(f, nil); err != nil {
		t.Fatalf("verify: %v", err)
	}
	li := Liveness(f)
	// i and s must be live around the back edge: live into head and body.
	for _, bi := range []int{1, 2} {
		if !li.In[bi].Has(i) || !li.In[bi].Has(s) || !li.In[bi].Has(n) {
			t.Errorf("block %d: loop-carried values not live in", bi)
		}
	}
	if li.In[0].Has(i) {
		t.Error("i live into entry despite being defined there first")
	}
}

func TestAFUExec(t *testing.T) {
	// out0 = (a+b)<<2 ; out1 = a-b
	d := AFUDef{
		Name:     "test",
		NumIn:    2,
		NumSlots: 5,
		Body: []AFUOp{
			{Op: OpAdd, A: 0, B: 1, Dst: 2},
			{Op: OpConst, Imm: 2, Dst: 3},
			{Op: OpShl, A: 2, B: 3, Dst: 2},
			{Op: OpSub, A: 0, B: 1, Dst: 4},
		},
		OutSlots: []int{2, 4},
	}
	out, err := d.Exec([]int32{5, 3})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 32 || out[1] != 2 {
		t.Errorf("got %v, want [32 2]", out)
	}
	if _, err := d.Exec([]int32{1}); err == nil {
		t.Error("wrong input count accepted")
	}
	// Select inside an AFU body.
	d2 := AFUDef{
		Name: "sel", NumIn: 3, NumSlots: 4,
		Body:     []AFUOp{{Op: OpSelect, A: 0, B: 1, C: 2, Dst: 3}},
		OutSlots: []int{3},
	}
	out, err = d2.Exec([]int32{0, 11, 22})
	if err != nil || out[0] != 22 {
		t.Errorf("sel afu: %v %v", out, err)
	}
	// ExecInto in reused buffers: the slots past the inputs read 0 until
	// the body defines them, as in Exec's fresh ones.
	d3 := AFUDef{
		Name: "undef", NumIn: 1, NumSlots: 3,
		Body:     []AFUOp{{Op: OpAdd, A: 0, B: 1, Dst: 2}},
		OutSlots: []int{2},
	}
	slots, out := []int32{5, 99, 99, 99}, []int32{-1}
	if err := d3.ExecInto(out, slots); err != nil || out[0] != 5 {
		t.Errorf("ExecInto over dirty slots: %v %v, want [5]", out, err)
	}
}

func TestModuleLookups(t *testing.T) {
	f := buildDiamond(t)
	m := &Module{Funcs: []*Function{f}, Globals: []Global{{Name: "a", Size: 1}, {Name: "b", Size: 2}}}
	if m.Func("diamond") != f || m.Func("nope") != nil {
		t.Error("Func lookup broken")
	}
	if m.GlobalIndex("b") != 1 || m.GlobalIndex("zz") != -1 {
		t.Error("GlobalIndex broken")
	}
	idx := m.AddAFU(AFUDef{Name: "x", NumIn: 1, NumSlots: 1, OutSlots: []int{0}})
	if idx != 0 || len(m.AFUs) != 1 {
		t.Error("AddAFU broken")
	}
}

func TestPrinting(t *testing.T) {
	f := buildDiamond(t)
	s := f.String()
	for _, want := range []string{"func diamond(", "entry:", "branch", "= add", "= sub", "ret "} {
		if !strings.Contains(s, want) {
			t.Errorf("function printout missing %q:\n%s", want, s)
		}
	}
	m := &Module{
		Funcs:   []*Function{f},
		Globals: []Global{{Name: "tab", Size: 3, Init: []int32{7, 8}}},
		AFUs:    []AFUDef{{Name: "afu0", NumIn: 2, NumSlots: 3, OutSlots: []int{2}, Latency: 1}},
	}
	ms := m.String()
	for _, want := range []string{"global @tab[3] = {7, 8}", "afu #0 afu0: 2 in, 1 out"} {
		if !strings.Contains(ms, want) {
			t.Errorf("module printout missing %q:\n%s", want, ms)
		}
	}
	in := Instr{Op: OpCall, Sym: "f", Dsts: []Reg{3}, Args: []Reg{1, 2}}
	if got := in.String(); got != "r3 = call @f (r1, r2)" {
		t.Errorf("call printout = %q", got)
	}
	cst := Instr{Op: OpConst, Dsts: []Reg{0}, Imm: -7}
	if got := cst.String(); got != "r0 = const -7" {
		t.Errorf("const printout = %q", got)
	}
}

func TestRegSet(t *testing.T) {
	s := NewRegSet(130)
	if s.Has(0) || s.Has(129) {
		t.Error("fresh set not empty")
	}
	if !s.Add(129) || s.Add(129) {
		t.Error("Add change reporting wrong")
	}
	if !s.Has(129) || s.Count() != 1 {
		t.Error("membership after Add wrong")
	}
	s.Add(0)
	s.Add(64)
	if s.Count() != 3 {
		t.Errorf("count = %d, want 3", s.Count())
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 2 {
		t.Error("Remove broken")
	}
	t2 := NewRegSet(130)
	t2.Add(5)
	if !t2.UnionWith(s) || t2.Count() != 3 {
		t.Error("UnionWith broken")
	}
	if t2.UnionWith(s) {
		t.Error("UnionWith reported change on no-op")
	}
	if s.Has(NoReg) {
		t.Error("NoReg reported as member")
	}
	s.Add(NoReg) // must be a no-op
	s.Remove(NoReg)
}
