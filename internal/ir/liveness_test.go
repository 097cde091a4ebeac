package ir

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomLivenessFunc builds a function of 1 to 40 blocks over up to 300
// registers. Terminators are jumps, branches and returns, with targets
// drawn from every block, so self-loops, back edges and unreachable
// blocks all occur. Instructions read and write random registers, some
// reading and writing the same one.
func randomLivenessFunc(rng *rand.Rand) *Function {
	f := &Function{Name: "random", NumRegs: 1 + rng.Intn(300)}
	reg := func() Reg { return Reg(rng.Intn(f.NumRegs)) }
	n := 1 + rng.Intn(40)
	for i := 0; i < n; i++ {
		f.Blocks = append(f.Blocks, &Block{Name: fmt.Sprintf("b%d", i)})
	}
	for _, b := range f.Blocks {
		for k := rng.Intn(12); k > 0; k-- {
			in := Instr{Op: OpCall, Sym: "g"}
			for a := rng.Intn(4); a > 0; a-- {
				in.Args = append(in.Args, reg())
			}
			for d := rng.Intn(3); d > 0; d-- {
				in.Dsts = append(in.Dsts, reg())
			}
			b.Instrs = append(b.Instrs, in)
		}
		target := func() *Block { return f.Blocks[rng.Intn(n)] }
		switch rng.Intn(5) {
		case 0, 1:
			b.Term = Term{Kind: TermJump, Targets: []*Block{target()}}
		case 2, 3:
			b.Term = Term{Kind: TermBranch, Cond: reg(), Targets: []*Block{target(), target()}}
		default:
			b.Term = Term{Kind: TermRet, Val: reg(), HasVal: rng.Intn(2) == 0}
		}
	}
	f.RecomputeCFG()
	return f
}

// firstAccess tells whether block b reads r before writing it (+1),
// writes it first (-1), or does neither (0). A terminator reads after
// every instruction, and an instruction reads its arguments before it
// writes its destinations.
func firstAccess(b *Block, r Reg) int {
	for i := range b.Instrs {
		for _, a := range b.Instrs[i].Args {
			if a == r {
				return 1
			}
		}
		for _, d := range b.Instrs[i].Dsts {
			if d == r {
				return -1
			}
		}
	}
	t := &b.Term
	if (t.Kind == TermBranch && t.Cond == r) || (t.Kind == TermRet && t.HasVal && t.Val == r) {
		return 1
	}
	return 0
}

// liveIntoRef is the definition of liveness, by search: r is live into
// b if and only if some path from b's entry reads r before writing it.
func liveIntoRef(b *Block, r Reg, seen map[*Block]bool) bool {
	if seen[b] {
		return false
	}
	seen[b] = true
	switch firstAccess(b, r) {
	case 1:
		return true
	case -1:
		return false
	}
	for _, s := range b.Succs() {
		if liveIntoRef(s, r, seen) {
			return true
		}
	}
	return false
}

// TestLivenessMatchesReference checks Liveness's In and Out sets on
// random control-flow graphs against the path definition.
func TestLivenessMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := randomLivenessFunc(rng)
		li := Liveness(f)
		for _, b := range f.Blocks {
			for r := Reg(0); int(r) < f.NumRegs; r++ {
				in := liveIntoRef(b, r, map[*Block]bool{})
				out := false
				for _, s := range b.Succs() {
					out = out || liveIntoRef(s, r, map[*Block]bool{})
				}
				if li.In[b.Index].Has(r) != in || li.Out[b.Index].Has(r) != out {
					t.Fatalf("seed %d, block %s, r%d: In=%v Out=%v, want In=%v Out=%v\n%s",
						seed, b.Name, r, li.In[b.Index].Has(r), li.Out[b.Index].Has(r), in, out, f)
				}
			}
		}
	}
}
