// Package ir defines the three-address intermediate representation shared
// by the whole tool chain: the MiniC front end lowers to it, analysis and
// transformation passes rewrite it, the dataflow-graph builder reads it,
// the interpreter and the processor simulator execute it, and the ISE
// identifier patches custom (AFU) instructions back into it.
//
// The machine model is deliberately simple and matches the paper's target:
// a 32-bit single-issue RISC with a flat word-addressed memory. Every
// value is a 32-bit two's-complement integer held in a virtual register.
package ir

import "fmt"

// Op enumerates the primitive operations of the IR. The set mirrors what
// a MachSUIF-style representation of fixed-point C code contains after
// if-conversion: integer arithmetic, logic, shifts, comparisons, selects,
// sign/zero extensions, memory accesses, and calls.
type Op uint8

const (
	// OpInvalid is the zero Op; it never appears in a well-formed program.
	OpInvalid Op = iota

	// Pure data operations (candidates for inclusion in a cut).
	OpConst  // Dst = Imm
	OpGlobal // Dst = address of global Sym (link-time constant)
	OpCopy   // Dst = Args[0]
	OpAdd    // Dst = Args[0] + Args[1]
	OpSub    // Dst = Args[0] - Args[1]
	OpMul    // Dst = Args[0] * Args[1]
	OpDiv    // Dst = Args[0] / Args[1] (signed, traps on zero)
	OpRem    // Dst = Args[0] % Args[1] (signed, traps on zero)
	OpNeg    // Dst = -Args[0]
	OpAnd    // Dst = Args[0] & Args[1]
	OpOr     // Dst = Args[0] | Args[1]
	OpXor    // Dst = Args[0] ^ Args[1]
	OpNot    // Dst = ^Args[0]
	OpShl    // Dst = Args[0] << (Args[1] & 31)
	OpAShr   // Dst = Args[0] >> (Args[1] & 31), arithmetic
	OpLShr   // Dst = Args[0] >>> (Args[1] & 31), logical
	OpEq     // Dst = Args[0] == Args[1] ? 1 : 0
	OpNe     // Dst = Args[0] != Args[1] ? 1 : 0
	OpLt     // Dst = Args[0] <  Args[1] ? 1 : 0 (signed)
	OpLe     // Dst = Args[0] <= Args[1] ? 1 : 0 (signed)
	OpGt     // Dst = Args[0] >  Args[1] ? 1 : 0 (signed)
	OpGe     // Dst = Args[0] >= Args[1] ? 1 : 0 (signed)
	OpULt    // unsigned <
	OpULe    // unsigned <=
	OpUGt    // unsigned >
	OpUGe    // unsigned >=
	OpSelect // Dst = Args[0] != 0 ? Args[1] : Args[2] (SEL node of the paper)
	OpMin    // Dst = min(Args[0], Args[1]) (signed)
	OpMax    // Dst = max(Args[0], Args[1]) (signed)
	OpAbs    // Dst = |Args[0]| (signed; Abs(MinInt32) = MinInt32)
	OpSExt8  // Dst = sign-extend low 8 bits of Args[0]
	OpSExt16 // Dst = sign-extend low 16 bits of Args[0]
	OpZExt8  // Dst = zero-extend low 8 bits of Args[0]
	OpZExt16 // Dst = zero-extend low 16 bits of Args[0]

	// Operations excluded from cuts (the AFU has no memory port and no
	// architecturally visible state, per §2 of the paper).
	OpLoad   // Dst = Mem[Args[0]]
	OpStore  // Mem[Args[0]] = Args[1]
	OpAlloca // Dst = address of a fresh Imm-word frame slot block
	OpCall   // Dsts... = Sym(Args...)
	OpCustom // Dsts... = AFU_{AFU}(Args...): a collapsed cut

	opCount
)

// OpInfo is the static description of an opcode.
type OpInfo struct {
	Name        string
	Arity       int  // number of register arguments
	HasDst      bool // defines Dsts[0] (OpCustom and OpCall are variadic-dst)
	Commutative bool
	// Barrier operations may not be placed inside a cut: memory accesses,
	// calls, frame allocation, and already-collapsed custom instructions.
	Barrier bool
}

var opInfos = [opCount]OpInfo{
	OpInvalid: {Name: "invalid"},
	OpConst:   {Name: "const", Arity: 0, HasDst: true},
	OpGlobal:  {Name: "global", Arity: 0, HasDst: true, Barrier: true},
	OpCopy:    {Name: "copy", Arity: 1, HasDst: true},
	OpAdd:     {Name: "add", Arity: 2, HasDst: true, Commutative: true},
	OpSub:     {Name: "sub", Arity: 2, HasDst: true},
	OpMul:     {Name: "mul", Arity: 2, HasDst: true, Commutative: true},
	OpDiv:     {Name: "div", Arity: 2, HasDst: true},
	OpRem:     {Name: "rem", Arity: 2, HasDst: true},
	OpNeg:     {Name: "neg", Arity: 1, HasDst: true},
	OpAnd:     {Name: "and", Arity: 2, HasDst: true, Commutative: true},
	OpOr:      {Name: "or", Arity: 2, HasDst: true, Commutative: true},
	OpXor:     {Name: "xor", Arity: 2, HasDst: true, Commutative: true},
	OpNot:     {Name: "not", Arity: 1, HasDst: true},
	OpShl:     {Name: "shl", Arity: 2, HasDst: true},
	OpAShr:    {Name: "ashr", Arity: 2, HasDst: true},
	OpLShr:    {Name: "lshr", Arity: 2, HasDst: true},
	OpEq:      {Name: "eq", Arity: 2, HasDst: true, Commutative: true},
	OpNe:      {Name: "ne", Arity: 2, HasDst: true, Commutative: true},
	OpLt:      {Name: "lt", Arity: 2, HasDst: true},
	OpLe:      {Name: "le", Arity: 2, HasDst: true},
	OpGt:      {Name: "gt", Arity: 2, HasDst: true},
	OpGe:      {Name: "ge", Arity: 2, HasDst: true},
	OpULt:     {Name: "ult", Arity: 2, HasDst: true},
	OpULe:     {Name: "ule", Arity: 2, HasDst: true},
	OpUGt:     {Name: "ugt", Arity: 2, HasDst: true},
	OpUGe:     {Name: "uge", Arity: 2, HasDst: true},
	OpSelect:  {Name: "sel", Arity: 3, HasDst: true},
	OpMin:     {Name: "min", Arity: 2, HasDst: true, Commutative: true},
	OpMax:     {Name: "max", Arity: 2, HasDst: true, Commutative: true},
	OpAbs:     {Name: "abs", Arity: 1, HasDst: true},
	OpSExt8:   {Name: "sext8", Arity: 1, HasDst: true},
	OpSExt16:  {Name: "sext16", Arity: 1, HasDst: true},
	OpZExt8:   {Name: "zext8", Arity: 1, HasDst: true},
	OpZExt16:  {Name: "zext16", Arity: 1, HasDst: true},
	OpLoad:    {Name: "load", Arity: 1, HasDst: true, Barrier: true},
	OpStore:   {Name: "store", Arity: 2, HasDst: false, Barrier: true},
	OpAlloca:  {Name: "alloca", Arity: 0, HasDst: true, Barrier: true},
	OpCall:    {Name: "call", Arity: -1, HasDst: false, Barrier: true},
	OpCustom:  {Name: "custom", Arity: -1, HasDst: false, Barrier: true},
}

// Info returns the static description of op.
func (op Op) Info() OpInfo {
	if op >= opCount {
		return OpInfo{Name: fmt.Sprintf("op(%d)", op)}
	}
	return opInfos[op]
}

// String returns the mnemonic of op.
func (op Op) String() string { return op.Info().Name }

// Pure reports whether op computes a value purely from its register
// arguments (and immediate), with no side effects and no memory access.
// Only pure operations may appear inside a cut.
func (op Op) Pure() bool {
	info := op.Info()
	return info.HasDst && !info.Barrier
}

func bool32(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// ErrDivByZero is reported by Eval for a division or remainder by zero.
var ErrDivByZero = fmt.Errorf("ir: division by zero")

// Eval computes a pure operation on 32-bit values: it is the one place
// each operation's semantics is written, which the interpreter, AFU
// execution and constant folding all call. a, b and c are the operands
// in order; an operation reads only the first Arity of them, so callers
// pass 0 for the rest. imm supplies the immediate for OpConst. OpGlobal
// and OpAlloca are not evaluable here: their results depend on the
// execution environment.
func Eval(op Op, imm int64, a, b, c int32) (int32, error) {
	switch op {
	case OpConst:
		return int32(imm), nil
	case OpCopy:
		return a, nil
	case OpAdd:
		return a + b, nil
	case OpSub:
		return a - b, nil
	case OpMul:
		return a * b, nil
	case OpDiv:
		if b == 0 {
			return 0, ErrDivByZero
		}
		return a / b, nil
	case OpRem:
		if b == 0 {
			return 0, ErrDivByZero
		}
		return a % b, nil
	case OpNeg:
		return -a, nil
	case OpAnd:
		return a & b, nil
	case OpOr:
		return a | b, nil
	case OpXor:
		return a ^ b, nil
	case OpNot:
		return ^a, nil
	case OpShl:
		return a << (uint32(b) & 31), nil
	case OpAShr:
		return a >> (uint32(b) & 31), nil
	case OpLShr:
		return int32(uint32(a) >> (uint32(b) & 31)), nil
	case OpEq:
		return bool32(a == b), nil
	case OpNe:
		return bool32(a != b), nil
	case OpLt:
		return bool32(a < b), nil
	case OpLe:
		return bool32(a <= b), nil
	case OpGt:
		return bool32(a > b), nil
	case OpGe:
		return bool32(a >= b), nil
	case OpULt:
		return bool32(uint32(a) < uint32(b)), nil
	case OpULe:
		return bool32(uint32(a) <= uint32(b)), nil
	case OpUGt:
		return bool32(uint32(a) > uint32(b)), nil
	case OpUGe:
		return bool32(uint32(a) >= uint32(b)), nil
	case OpSelect:
		if a != 0 {
			return b, nil
		}
		return c, nil
	case OpMin:
		if a < b {
			return a, nil
		}
		return b, nil
	case OpMax:
		if a > b {
			return a, nil
		}
		return b, nil
	case OpAbs:
		if a < 0 {
			return -a, nil
		}
		return a, nil
	case OpSExt8:
		return int32(int8(a)), nil
	case OpSExt16:
		return int32(int16(a)), nil
	case OpZExt8:
		return int32(uint32(uint8(a))), nil
	case OpZExt16:
		return int32(uint32(uint16(a))), nil
	}
	return 0, fmt.Errorf("ir: cannot evaluate %s", op)
}
