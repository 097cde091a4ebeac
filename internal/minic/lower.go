package minic

import (
	"fmt"

	"isex/internal/ir"
)

// Options control lowering.
type Options struct {
	// UnrollLimit, when positive, fully unrolls for-loops of the canonical
	// shape `for (i = c0; i <op> c1; i = i ± c2)` whose body does not touch
	// the induction variable, provided the trip count is at most
	// UnrollLimit. The paper names unrolling as the standard way to obtain
	// very large basic blocks (§9); combined with if-conversion and local
	// constant folding this turns small kernels into the block sizes of
	// Fig. 8.
	UnrollLimit int
}

// unrollBodyLimit caps an unrolled loop's trip count × body statement
// count.
const unrollBodyLimit = 4096

// Compile parses, checks and lowers a MiniC translation unit.
func Compile(src string, opt Options) (*ir.Module, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := Check(prog); err != nil {
		return nil, err
	}
	return Lower(prog, opt)
}

// Lower translates a checked program to IR.
func Lower(prog *Program, opt Options) (*ir.Module, error) {
	m := &ir.Module{}
	for _, g := range prog.Globals {
		init := make([]int32, len(g.Init))
		for i, v := range g.Init {
			init[i] = int32(v)
		}
		m.Globals = append(m.Globals, ir.Global{Name: g.Name, Size: g.Size, Init: init})
	}
	for _, f := range prog.Funcs {
		lw := &lowerer{mod: m, opt: opt, progGlobals: prog.Globals, progFuncs: prog.Funcs}
		fn, err := lw.function(f)
		if err != nil {
			return nil, err
		}
		m.Funcs = append(m.Funcs, fn)
	}
	if err := ir.VerifyModule(m); err != nil {
		return nil, fmt.Errorf("minic: internal error: lowered module fails verification: %w", err)
	}
	return m, nil
}

// binding says what a name means during lowering.
type binding struct {
	kind bindKind
	reg  ir.Reg // scalar register or array base-address register
	sym  string // global name
}

type bindKind uint8

const (
	bindScalar bindKind = iota // local/param scalar in reg
	bindArray                  // local/param array base address in reg
	bindGlobalScalar
	bindGlobalArray
)

type loopCtx struct {
	brk, cont *ir.Block
}

type lowerer struct {
	mod         *ir.Module
	opt         Options
	progGlobals []*GlobalDecl
	progFuncs   []*FuncDecl
	b           *ir.Builder
	scopes      []map[string]binding
	loops       []loopCtx
	nblk        int
}

func (lw *lowerer) pushScope() { lw.scopes = append(lw.scopes, map[string]binding{}) }
func (lw *lowerer) popScope()  { lw.scopes = lw.scopes[:len(lw.scopes)-1] }

func (lw *lowerer) bind(name string, b binding) { lw.scopes[len(lw.scopes)-1][name] = b }

func (lw *lowerer) lookup(name string) (binding, bool) {
	for i := len(lw.scopes) - 1; i >= 0; i-- {
		if b, ok := lw.scopes[i][name]; ok {
			return b, true
		}
	}
	return binding{}, false
}

func (lw *lowerer) newBlock(hint string) *ir.Block {
	lw.nblk++
	return lw.b.NewBlock(fmt.Sprintf("%s%d", hint, lw.nblk))
}

func (lw *lowerer) terminated() bool { return lw.b.Cur.Term.Kind != ir.TermNone }

func (lw *lowerer) function(f *FuncDecl) (*ir.Function, error) {
	lw.b = ir.NewBuilder(f.Name, len(f.Params))
	lw.pushScope() // globals
	for _, g := range lw.progGlobals {
		kind := bindGlobalScalar
		if g.IsArray {
			kind = bindGlobalArray
		}
		lw.bind(g.Name, binding{kind: kind, sym: g.Name})
	}
	lw.pushScope() // params
	for i, p := range f.Params {
		kind := bindScalar
		if p.IsArray {
			kind = bindArray
		}
		lw.bind(p.Name, binding{kind: kind, reg: lw.b.Fn.Params[i]})
	}
	if err := lw.blockStmt(f.Body); err != nil {
		return nil, err
	}
	if !lw.terminated() {
		if f.ReturnsInt {
			lw.b.Ret(lw.b.Const(0))
		} else {
			lw.b.RetVoid()
		}
	}
	lw.popScope()
	lw.popScope()
	return lw.b.Finish(), nil
}

func (lw *lowerer) blockStmt(b *BlockStmt) error {
	lw.pushScope()
	defer lw.popScope()
	for _, s := range b.Stmts {
		if lw.terminated() {
			break // unreachable code after return/break/continue
		}
		if err := lw.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (lw *lowerer) stmt(s Stmt) error {
	switch st := s.(type) {
	case *BlockStmt:
		return lw.blockStmt(st)
	case *DeclStmt:
		if st.IsArray {
			base := lw.b.Alloca(st.Size)
			lw.bind(st.Name, binding{kind: bindArray, reg: base})
			return nil
		}
		r := lw.b.Fn.NewReg()
		if st.Init != nil {
			v, err := lw.expr(st.Init)
			if err != nil {
				return err
			}
			lw.b.CopyTo(r, v)
		} else {
			lw.b.CopyTo(r, lw.b.Const(0))
		}
		lw.bind(st.Name, binding{kind: bindScalar, reg: r})
		return nil
	case *AssignStmt:
		return lw.assign(st)
	case *ExprStmt:
		call := st.X.(*CallExpr)
		return lw.callStmt(call)
	case *IfStmt:
		return lw.ifStmt(st)
	case *WhileStmt:
		return lw.whileStmt(st)
	case *ForStmt:
		return lw.forStmt(st)
	case *ReturnStmt:
		if st.X != nil {
			v, err := lw.expr(st.X)
			if err != nil {
				return err
			}
			lw.b.Ret(v)
		} else {
			lw.b.RetVoid()
		}
		return nil
	case *BreakStmt:
		lw.b.Jump(lw.loops[len(lw.loops)-1].brk)
		return nil
	case *ContinueStmt:
		lw.b.Jump(lw.loops[len(lw.loops)-1].cont)
		return nil
	}
	return fmt.Errorf("minic: cannot lower %T", s)
}

func (lw *lowerer) assign(st *AssignStmt) error {
	lv := st.Target
	bnd, ok := lw.lookup(lv.Name)
	if !ok {
		return errf(lv.Pos.Line, lv.Pos.Col, "undeclared variable %s", lv.Name)
	}
	// Address (if memory) computed once, reused for compound read+write.
	var addr ir.Reg = ir.NoReg
	switch bnd.kind {
	case bindScalar:
		// no address
	case bindGlobalScalar:
		addr = lw.b.Global(bnd.sym)
	case bindArray, bindGlobalArray:
		if lv.Index == nil {
			return errf(lv.Pos.Line, lv.Pos.Col, "cannot assign to array %s", lv.Name)
		}
		idx, err := lw.expr(lv.Index)
		if err != nil {
			return err
		}
		base := bnd.reg
		if bnd.kind == bindGlobalArray {
			base = lw.b.Global(bnd.sym)
		}
		addr = lw.b.Op(ir.OpAdd, base, idx)
	}
	val, err := lw.expr(st.Value)
	if err != nil {
		return err
	}
	if st.Op != "" {
		var cur ir.Reg
		if addr == ir.NoReg {
			cur = bnd.reg
		} else {
			cur = lw.b.Load(addr)
		}
		op, err := binOpFor(st.Op, st.Pos)
		if err != nil {
			return err
		}
		val = lw.b.Op(op, cur, val)
	}
	if addr == ir.NoReg {
		lw.b.CopyTo(bnd.reg, val)
	} else {
		lw.b.Store(addr, val)
	}
	return nil
}

func (lw *lowerer) callStmt(call *CallExpr) error {
	if _, isIntr := intrinsicArity[call.Name]; isIntr {
		_, err := lw.expr(call) // evaluate for uniformity; result dropped
		return err
	}
	args, err := lw.callArgs(call)
	if err != nil {
		return err
	}
	lw.b.Call(call.Name, nil, args...)
	return nil
}

func (lw *lowerer) callArgs(call *CallExpr) ([]ir.Reg, error) {
	var sig *FuncDecl
	for _, fn := range lw.progFuncs {
		if fn.Name == call.Name {
			sig = fn
			break
		}
	}
	args := make([]ir.Reg, 0, len(call.Args))
	for i, a := range call.Args {
		isArrayParam := sig != nil && i < len(sig.Params) && sig.Params[i].IsArray
		if isArrayParam {
			v := a.(*VarExpr) // guaranteed by Check
			bnd, _ := lw.lookup(v.Name)
			switch bnd.kind {
			case bindArray:
				args = append(args, bnd.reg)
			case bindGlobalArray, bindGlobalScalar:
				args = append(args, lw.b.Global(bnd.sym))
			default:
				return nil, errf(v.Pos.Line, v.Pos.Col, "%s is not an array", v.Name)
			}
			continue
		}
		r, err := lw.expr(a)
		if err != nil {
			return nil, err
		}
		args = append(args, r)
	}
	return args, nil
}

func (lw *lowerer) ifStmt(st *IfStmt) error {
	cond, err := lw.expr(st.Cond)
	if err != nil {
		return err
	}
	then := lw.newBlock("then")
	join := lw.newBlock("join")
	els := join
	if st.Else != nil {
		els = lw.newBlock("else")
	}
	lw.b.Branch(cond, then, els)
	lw.b.SetBlock(then)
	if err := lw.stmt(st.Then); err != nil {
		return err
	}
	if !lw.terminated() {
		lw.b.Jump(join)
	}
	if st.Else != nil {
		lw.b.SetBlock(els)
		if err := lw.stmt(st.Else); err != nil {
			return err
		}
		if !lw.terminated() {
			lw.b.Jump(join)
		}
	}
	lw.b.SetBlock(join)
	return nil
}

func (lw *lowerer) whileStmt(st *WhileStmt) error {
	head := lw.newBlock("head")
	body := lw.newBlock("body")
	exit := lw.newBlock("exit")
	lw.b.Jump(head)
	lw.b.SetBlock(head)
	cond, err := lw.expr(st.Cond)
	if err != nil {
		return err
	}
	lw.b.Branch(cond, body, exit)
	lw.b.SetBlock(body)
	lw.loops = append(lw.loops, loopCtx{brk: exit, cont: head})
	err = lw.stmt(st.Body)
	lw.loops = lw.loops[:len(lw.loops)-1]
	if err != nil {
		return err
	}
	if !lw.terminated() {
		lw.b.Jump(head)
	}
	lw.b.SetBlock(exit)
	return nil
}

func (lw *lowerer) forStmt(st *ForStmt) error {
	lw.pushScope()
	defer lw.popScope()
	if done, err := lw.tryUnroll(st); done || err != nil {
		return err
	}
	if st.Init != nil {
		if err := lw.stmt(st.Init); err != nil {
			return err
		}
	}
	head := lw.newBlock("head")
	body := lw.newBlock("body")
	post := lw.newBlock("post")
	exit := lw.newBlock("exit")
	lw.b.Jump(head)
	lw.b.SetBlock(head)
	if st.Cond != nil {
		cond, err := lw.expr(st.Cond)
		if err != nil {
			return err
		}
		lw.b.Branch(cond, body, exit)
	} else {
		lw.b.Jump(body)
	}
	lw.b.SetBlock(body)
	lw.loops = append(lw.loops, loopCtx{brk: exit, cont: post})
	err := lw.stmt(st.Body)
	lw.loops = lw.loops[:len(lw.loops)-1]
	if err != nil {
		return err
	}
	if !lw.terminated() {
		lw.b.Jump(post)
	}
	lw.b.SetBlock(post)
	if st.Post != nil {
		if err := lw.stmt(st.Post); err != nil {
			return err
		}
	}
	lw.b.Jump(head)
	lw.b.SetBlock(exit)
	return nil
}

func (lw *lowerer) expr(e Expr) (ir.Reg, error) {
	switch ex := e.(type) {
	case *NumberExpr:
		return lw.b.Const(int32(uint32(ex.Val))), nil
	case *VarExpr:
		bnd, ok := lw.lookup(ex.Name)
		if !ok {
			return 0, errf(ex.Pos.Line, ex.Pos.Col, "undeclared variable %s", ex.Name)
		}
		switch bnd.kind {
		case bindScalar:
			return bnd.reg, nil
		case bindGlobalScalar:
			return lw.b.Load(lw.b.Global(bnd.sym)), nil
		default:
			return 0, errf(ex.Pos.Line, ex.Pos.Col, "array %s used as a value", ex.Name)
		}
	case *IndexExpr:
		bnd, ok := lw.lookup(ex.Name)
		if !ok {
			return 0, errf(ex.Pos.Line, ex.Pos.Col, "undeclared variable %s", ex.Name)
		}
		idx, err := lw.expr(ex.Index)
		if err != nil {
			return 0, err
		}
		var base ir.Reg
		switch bnd.kind {
		case bindArray:
			base = bnd.reg
		case bindGlobalArray, bindGlobalScalar:
			base = lw.b.Global(bnd.sym)
		default:
			return 0, errf(ex.Pos.Line, ex.Pos.Col, "%s is not an array", ex.Name)
		}
		return lw.b.Load(lw.b.Op(ir.OpAdd, base, idx)), nil
	case *UnaryExpr:
		x, err := lw.expr(ex.X)
		if err != nil {
			return 0, err
		}
		switch ex.Op {
		case "-":
			return lw.b.Op(ir.OpNeg, x), nil
		case "~":
			return lw.b.Op(ir.OpNot, x), nil
		case "!":
			return lw.b.Op(ir.OpEq, x, lw.b.Const(0)), nil
		}
		return 0, errf(ex.Pos.Line, ex.Pos.Col, "unknown unary %q", ex.Op)
	case *BinaryExpr:
		l, err := lw.expr(ex.L)
		if err != nil {
			return 0, err
		}
		r, err := lw.expr(ex.R)
		if err != nil {
			return 0, err
		}
		switch ex.Op {
		case "&&":
			lb := lw.b.Op(ir.OpNe, l, lw.b.Const(0))
			rb := lw.b.Op(ir.OpNe, r, lw.b.Const(0))
			return lw.b.Op(ir.OpAnd, lb, rb), nil
		case "||":
			lb := lw.b.Op(ir.OpNe, l, lw.b.Const(0))
			rb := lw.b.Op(ir.OpNe, r, lw.b.Const(0))
			return lw.b.Op(ir.OpOr, lb, rb), nil
		}
		op, err := binOpFor(ex.Op, ex.Pos)
		if err != nil {
			return 0, err
		}
		return lw.b.Op(op, l, r), nil
	case *CondExpr:
		c, err := lw.expr(ex.Cond)
		if err != nil {
			return 0, err
		}
		t, err := lw.expr(ex.Then)
		if err != nil {
			return 0, err
		}
		f, err := lw.expr(ex.Else)
		if err != nil {
			return 0, err
		}
		return lw.b.Op(ir.OpSelect, c, t, f), nil
	case *CallExpr:
		if _, isIntr := intrinsicArity[ex.Name]; isIntr {
			args := make([]ir.Reg, len(ex.Args))
			for i, a := range ex.Args {
				r, err := lw.expr(a)
				if err != nil {
					return 0, err
				}
				args[i] = r
			}
			switch ex.Name {
			case "min":
				return lw.b.Op(ir.OpMin, args[0], args[1]), nil
			case "max":
				return lw.b.Op(ir.OpMax, args[0], args[1]), nil
			case "abs":
				return lw.b.Op(ir.OpAbs, args[0]), nil
			case "lshr":
				return lw.b.Op(ir.OpLShr, args[0], args[1]), nil
			}
		}
		args, err := lw.callArgs(ex)
		if err != nil {
			return 0, err
		}
		d := lw.b.Fn.NewReg()
		lw.b.Call(ex.Name, []ir.Reg{d}, args...)
		return d, nil
	}
	return 0, fmt.Errorf("minic: cannot lower %T", e)
}

func binOpFor(op string, pos Pos) (ir.Op, error) {
	switch op {
	case "+":
		return ir.OpAdd, nil
	case "-":
		return ir.OpSub, nil
	case "*":
		return ir.OpMul, nil
	case "/":
		return ir.OpDiv, nil
	case "%":
		return ir.OpRem, nil
	case "&":
		return ir.OpAnd, nil
	case "|":
		return ir.OpOr, nil
	case "^":
		return ir.OpXor, nil
	case "<<":
		return ir.OpShl, nil
	case ">>":
		return ir.OpAShr, nil
	case "==":
		return ir.OpEq, nil
	case "!=":
		return ir.OpNe, nil
	case "<":
		return ir.OpLt, nil
	case "<=":
		return ir.OpLe, nil
	case ">":
		return ir.OpGt, nil
	case ">=":
		return ir.OpGe, nil
	}
	return ir.OpInvalid, errf(pos.Line, pos.Col, "unknown operator %q", op)
}
