package ir

import "fmt"

// Reg names a virtual register within a function. Registers are not in
// SSA form: a register may be assigned several times; the dataflow-graph
// builder resolves per-block def-use chains and cross-block liveness.
type Reg int32

// NoReg marks an absent register operand.
const NoReg Reg = -1

// Instr is one three-address instruction.
type Instr struct {
	Op   Op
	Dsts []Reg  // defined registers; len 1 for ordinary ops, 0..n for call/custom
	Args []Reg  // register operands
	Imm  int64  // OpConst value; OpAlloca word count
	Sym  string // OpCall callee or OpGlobal symbol
	AFU  int    // OpCustom: index into Module.AFUs
}

// Dst returns the single destination of an ordinary instruction, or NoReg.
func (in *Instr) Dst() Reg {
	if len(in.Dsts) == 1 {
		return in.Dsts[0]
	}
	return NoReg
}

// TermKind discriminates block terminators.
type TermKind uint8

const (
	TermNone   TermKind = iota // unterminated (illegal in a verified function)
	TermJump                   // unconditional jump to Targets[0]
	TermBranch                 // if Cond != 0 goto Targets[0] else Targets[1]
	TermRet                    // return Val if HasVal
)

// Term is a basic-block terminator.
type Term struct {
	Kind    TermKind
	Cond    Reg // TermBranch condition
	Targets []*Block
	Val     Reg // TermRet value
	HasVal  bool
}

// Block is a basic block: a straight-line instruction list plus one
// terminator. Preds is derived; call Function.RecomputeCFG after editing
// terminators.
type Block struct {
	Name   string
	Index  int // position within Function.Blocks; maintained by RecomputeCFG
	Instrs []Instr
	Term   Term
	Preds  []*Block

	// Freq is the dynamic execution count filled in by the profiler; it
	// weights the merit of cuts identified in this block.
	Freq int64
}

// Succs returns the successor blocks (aliasing the terminator's targets).
func (b *Block) Succs() []*Block { return b.Term.Targets }

// Function is a procedure: a register file size, parameter registers and
// a CFG of basic blocks. Blocks[0] is the entry block.
type Function struct {
	Name    string
	Params  []Reg // parameter values arrive in these registers
	NumRegs int   // registers are numbered 0..NumRegs-1
	Blocks  []*Block
}

// Entry returns the entry block.
func (f *Function) Entry() *Block { return f.Blocks[0] }

// NewReg allocates a fresh virtual register.
func (f *Function) NewReg() Reg {
	r := Reg(f.NumRegs)
	f.NumRegs++
	return r
}

// RecomputeCFG refreshes block indices and predecessor lists.
func (f *Function) RecomputeCFG() {
	for i, b := range f.Blocks {
		b.Index = i
		b.Preds = b.Preds[:0]
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			s.Preds = append(s.Preds, b)
		}
	}
}

// Global is a module-level array of 32-bit words.
type Global struct {
	Name string
	Size int     // words
	Init []int32 // leading initialized words (rest zero)
}

// AFUOp is one micro-operation in the straight-line body of a custom
// instruction. Slots 0..NumIn-1 hold the inputs; each micro-op defines
// slot Dst from argument slots A, B, C.
type AFUOp struct {
	Op      Op
	A, B, C int
	Imm     int64 // OpConst value
	Dst     int
}

// AFUDef is the datapath of one custom instruction: a pure combinational
// function from NumIn inputs to len(OutSlots) outputs, recorded as a
// straight-line micro-program so the interpreter and the simulator can
// execute collapsed cuts and the RTL back end can emit them.
type AFUDef struct {
	Name     string
	NumIn    int
	NumSlots int // total value slots (inputs + defined temporaries)
	Body     []AFUOp
	OutSlots []int
	// Latency is the instruction's cycle count: ceil of the hardware
	// critical path of the collapsed cut.
	Latency int
	// Area is the normalized silicon cost (32-bit MAC = 1.0).
	Area float64
	// SourceOps records which primitive operations were collapsed, for
	// reporting.
	SourceOps []Op
}

// Exec evaluates the AFU on the given inputs.
func (d *AFUDef) Exec(in []int32) ([]int32, error) {
	if len(in) != d.NumIn {
		return nil, fmt.Errorf("ir: afu %s: got %d inputs, want %d", d.Name, len(in), d.NumIn)
	}
	slots := make([]int32, max(d.NumSlots, d.NumIn))
	copy(slots, in)
	out := make([]int32, len(d.OutSlots))
	if err := d.ExecInto(out, slots); err != nil {
		return nil, err
	}
	return out, nil
}

// ExecInto evaluates the AFU in caller-owned buffers, allocating
// nothing. The caller stores the NumIn inputs in slots[:NumIn]; slots
// must hold at least NumSlots words, and ExecInto zeroes the ones past
// the inputs before running the body. out receives the len(OutSlots)
// outputs.
func (d *AFUDef) ExecInto(out, slots []int32) error {
	slots = slots[:d.NumSlots]
	clear(slots[min(d.NumIn, d.NumSlots):])
	for i := range d.Body {
		op := &d.Body[i]
		arity := 0 // Op.Info's arity, read without copying the OpInfo
		if op.Op < opCount {
			arity = opInfos[op.Op].Arity
		}
		var a, b, c int32
		switch arity {
		case 3:
			c = slots[op.C]
			fallthrough
		case 2:
			b = slots[op.B]
			fallthrough
		case 1:
			a = slots[op.A]
		case 0:
		default:
			return fmt.Errorf("ir: afu %s: bad micro-op %s", d.Name, op.Op)
		}
		v, err := Eval(op.Op, op.Imm, a, b, c)
		if err != nil {
			return err
		}
		slots[op.Dst] = v
	}
	for i, s := range d.OutSlots {
		out[i] = slots[s]
	}
	return nil
}

// Module is a whole program: functions, globals and the table of custom
// instructions referenced by OpCustom.
type Module struct {
	Funcs   []*Function
	Globals []Global
	AFUs    []AFUDef
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Function {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// GlobalIndex returns the index of the named global, or -1.
func (m *Module) GlobalIndex(name string) int {
	for i := range m.Globals {
		if m.Globals[i].Name == name {
			return i
		}
	}
	return -1
}

// AddAFU appends a custom-instruction definition and returns its index.
func (m *Module) AddAFU(d AFUDef) int {
	m.AFUs = append(m.AFUs, d)
	return len(m.AFUs) - 1
}
