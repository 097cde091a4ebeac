package ir

import (
	"math"
	"testing"
	"testing/quick"
)

func evalOK(t *testing.T, op Op, want int32, args ...int32) {
	t.Helper()
	var v [3]int32
	copy(v[:], args)
	got, err := Eval(op, 0, v[0], v[1], v[2])
	if err != nil {
		t.Fatalf("Eval(%s, %v): %v", op, args, err)
	}
	if got != want {
		t.Errorf("Eval(%s, %v) = %d, want %d", op, args, got, want)
	}
}

func TestEvalArith(t *testing.T) {
	evalOK(t, OpAdd, 7, 3, 4)
	evalOK(t, OpAdd, math.MinInt32, math.MaxInt32, 1) // wraparound
	evalOK(t, OpSub, -1, 3, 4)
	evalOK(t, OpMul, -12, 3, -4)
	evalOK(t, OpDiv, -2, 7, -3)
	evalOK(t, OpRem, 1, 7, -3)
	evalOK(t, OpNeg, -5, 5)
	evalOK(t, OpNeg, math.MinInt32, math.MinInt32)
	evalOK(t, OpAbs, 5, -5)
	evalOK(t, OpAbs, math.MinInt32, math.MinInt32)
	evalOK(t, OpMin, -4, 3, -4)
	evalOK(t, OpMax, 3, 3, -4)
}

func TestEvalLogicShift(t *testing.T) {
	evalOK(t, OpAnd, 0b1000, 0b1100, 0b1010)
	evalOK(t, OpOr, 0b1110, 0b1100, 0b1010)
	evalOK(t, OpXor, 0b0110, 0b1100, 0b1010)
	evalOK(t, OpNot, -1, 0)
	evalOK(t, OpShl, 8, 1, 3)
	evalOK(t, OpShl, 2, 1, 33) // shift count masked to 5 bits
	evalOK(t, OpAShr, -1, -8, 3)
	evalOK(t, OpLShr, (1<<29)-1, -8, 3)
}

func TestEvalCompare(t *testing.T) {
	evalOK(t, OpEq, 1, 4, 4)
	evalOK(t, OpNe, 0, 4, 4)
	evalOK(t, OpLt, 1, -1, 0)
	evalOK(t, OpULt, 0, -1, 0) // -1 is max unsigned
	evalOK(t, OpLe, 1, 4, 4)
	evalOK(t, OpGt, 0, -1, 0)
	evalOK(t, OpUGt, 1, -1, 0)
	evalOK(t, OpGe, 1, 0, -1)
	evalOK(t, OpUGe, 0, 0, -1)
	evalOK(t, OpULe, 1, 0, -1)
}

func TestEvalSelectExt(t *testing.T) {
	evalOK(t, OpSelect, 10, 1, 10, 20)
	evalOK(t, OpSelect, 20, 0, 10, 20)
	evalOK(t, OpSelect, 10, -7, 10, 20) // any non-zero condition
	evalOK(t, OpSExt8, -1, 0xFF)
	evalOK(t, OpZExt8, 0xFF, 0xFF)
	evalOK(t, OpSExt16, -1, 0xFFFF)
	evalOK(t, OpZExt16, 0xFFFF, 0xFFFF)
	evalOK(t, OpSExt8, 0x7F, 0x17F)
	evalOK(t, OpCopy, 42, 42)
}

func TestEvalConst(t *testing.T) {
	got, err := Eval(OpConst, -123, 0, 0, 0)
	if err != nil || got != -123 {
		t.Fatalf("Eval(const -123) = %d, %v", got, err)
	}
}

func TestEvalDivByZero(t *testing.T) {
	if _, err := Eval(OpDiv, 0, 1, 0, 0); err != ErrDivByZero {
		t.Errorf("div by zero: err = %v, want ErrDivByZero", err)
	}
	if _, err := Eval(OpRem, 0, 1, 0, 0); err != ErrDivByZero {
		t.Errorf("rem by zero: err = %v, want ErrDivByZero", err)
	}
}

func TestEvalBarrierOpsRejected(t *testing.T) {
	for _, op := range []Op{OpLoad, OpStore, OpCall, OpCustom, OpGlobal, OpAlloca, OpInvalid} {
		if _, err := Eval(op, 0, 0, 0, 0); err == nil {
			t.Errorf("Eval(%s) should fail", op)
		}
	}
}

func TestOpInfoConsistency(t *testing.T) {
	for op := OpConst; op < opCount; op++ {
		info := op.Info()
		if info.Name == "" {
			t.Errorf("op %d has no name", op)
		}
		if op.Pure() {
			// Every pure op must be evaluable with zero operands.
			if _, err := Eval(op, 0, 0, 0, 0); err != nil && err != ErrDivByZero {
				t.Errorf("pure op %s not evaluable: %v", op, err)
			}
		}
	}
}

func TestCommutativity(t *testing.T) {
	check := func(a, b int32) bool {
		for op := OpConst; op < opCount; op++ {
			if !op.Info().Commutative || op.Info().Arity != 2 {
				continue
			}
			x, errx := Eval(op, 0, a, b, 0)
			y, erry := Eval(op, 0, b, a, 0)
			if (errx == nil) != (erry == nil) || x != y {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestPureOpClassification(t *testing.T) {
	pure := map[Op]bool{}
	for _, op := range []Op{OpConst, OpCopy, OpAdd, OpSub, OpMul, OpDiv, OpRem, OpNeg,
		OpAnd, OpOr, OpXor, OpNot, OpShl, OpAShr, OpLShr, OpEq, OpNe, OpLt, OpLe,
		OpGt, OpGe, OpULt, OpULe, OpUGt, OpUGe, OpSelect, OpMin, OpMax, OpAbs,
		OpSExt8, OpSExt16, OpZExt8, OpZExt16} {
		pure[op] = true
	}
	// OpGlobal yields an environment-dependent address, so it is a barrier
	// (cannot be collapsed into an AFU body) even though it is side-effect
	// free.
	if OpGlobal.Pure() {
		t.Errorf("OpGlobal must not be Pure: its value depends on the environment")
	}
	for op := OpConst; op < opCount; op++ {
		if got := op.Pure(); got != pure[op] {
			t.Errorf("%s.Pure() = %v, want %v", op, got, pure[op])
		}
	}
}
