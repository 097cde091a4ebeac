package ir

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Algebraic identities of the evaluator, checked with testing/quick over
// the whole int32 domain. These pin down the 32-bit wrapping semantics
// every other component (interpreter, AFU bodies, Verilog) relies on.

func eval2(t *testing.T, op Op, a, b int32) int32 {
	t.Helper()
	v, err := Eval(op, 0, a, b, 0)
	if err != nil {
		t.Fatalf("Eval(%s, %d, %d): %v", op, a, b, err)
	}
	return v
}

func TestQuickAddSubInverse(t *testing.T) {
	f := func(a, b int32) bool {
		s := eval2(t, OpAdd, a, b)
		return eval2(t, OpSub, s, b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	f := func(a, b int32) bool {
		// ~(a & b) == ~a | ~b
		and, _ := Eval(OpAnd, 0, a, b, 0)
		nand, _ := Eval(OpNot, 0, and, 0, 0)
		na, _ := Eval(OpNot, 0, a, 0, 0)
		nb, _ := Eval(OpNot, 0, b, 0, 0)
		or, _ := Eval(OpOr, 0, na, nb, 0)
		return nand == or
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickShiftDecomposition(t *testing.T) {
	f := func(a int32, s uint8) bool {
		sh := int32(s % 32)
		// Arithmetic and logical right shift agree on non-negative values.
		if a >= 0 {
			ar, _ := Eval(OpAShr, 0, a, sh, 0)
			lr, _ := Eval(OpLShr, 0, a, sh, 0)
			if ar != lr {
				return false
			}
		}
		// (a << s) uses only the low 5 bits of s.
		l1, _ := Eval(OpShl, 0, a, sh, 0)
		l2, _ := Eval(OpShl, 0, a, sh+32, 0)
		return l1 == l2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMinMaxLattice(t *testing.T) {
	f := func(a, b, c int32) bool {
		mn := eval2(t, OpMin, a, b)
		mx := eval2(t, OpMax, a, b)
		if mn > mx {
			return false
		}
		if mn != a && mn != b {
			return false
		}
		// min(min(a,b),c) == min(a,min(b,c)) — associativity.
		l := eval2(t, OpMin, mn, c)
		r := eval2(t, OpMin, a, eval2(t, OpMin, b, c))
		return l == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSelectIsMux(t *testing.T) {
	f := func(c, a, b int32) bool {
		v, _ := Eval(OpSelect, 0, c, a, b)
		if c != 0 {
			return v == a
		}
		return v == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareTotality(t *testing.T) {
	f := func(a, b int32) bool {
		lt := eval2(t, OpLt, a, b)
		gt := eval2(t, OpGt, a, b)
		eq := eval2(t, OpEq, a, b)
		// Exactly one of <, >, == holds.
		return lt+gt+eq == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickExtIdempotent(t *testing.T) {
	f := func(a int32) bool {
		for _, op := range []Op{OpSExt8, OpSExt16, OpZExt8, OpZExt16} {
			once, _ := Eval(op, 0, a, 0, 0)
			twice, _ := Eval(op, 0, once, 0, 0)
			if once != twice {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickRegSet: RegSet behaves like a reference map-based set under a
// random operation sequence.
func TestQuickRegSet(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 200
		s := NewRegSet(n)
		ref := map[Reg]bool{}
		for i := 0; i < 300; i++ {
			r := Reg(rng.Intn(n))
			switch rng.Intn(3) {
			case 0:
				changed := s.Add(r)
				if changed == ref[r] {
					return false // Add must report a change iff absent
				}
				ref[r] = true
			case 1:
				s.Remove(r)
				delete(ref, r)
			default:
				if s.Has(r) != ref[r] {
					return false
				}
			}
		}
		if s.Count() != len(ref) {
			return false
		}
		u := NewRegSet(n)
		if u.UnionWith(s) != (len(ref) > 0) {
			return false
		}
		for r := range ref {
			if !u.Has(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuickAFUExecMatchesEval: random straight-line AFU bodies compute
// exactly what per-op evaluation computes.
func TestQuickAFUExecMatchesEval(t *testing.T) {
	ops := []Op{OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpAShr, OpMin, OpMax, OpSelect}
	f := func(seed int64, in0, in1 int32) bool {
		rng := rand.New(rand.NewSource(seed))
		d := AFUDef{Name: "q", NumIn: 2}
		slots := []int32{in0, in1}
		nslots := 2
		for i := 0; i < 6; i++ {
			op := ops[rng.Intn(len(ops))]
			a, b, c := rng.Intn(nslots), rng.Intn(nslots), rng.Intn(nslots)
			d.Body = append(d.Body, AFUOp{Op: op, A: a, B: b, C: c, Dst: nslots})
			var v int32
			switch op.Info().Arity {
			case 2:
				v, _ = Eval(op, 0, slots[a], slots[b], 0)
			case 3:
				v, _ = Eval(op, 0, slots[a], slots[b], slots[c])
			}
			slots = append(slots, v)
			nslots++
		}
		d.NumSlots = nslots
		d.OutSlots = []int{nslots - 1}
		out, err := d.Exec([]int32{in0, in1})
		return err == nil && out[0] == slots[nslots-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
