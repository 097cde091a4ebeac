package minic

// Parse lexes and parses a MiniC translation unit.
func Parse(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog, err := p.program()
	if err != nil {
		return nil, err
	}
	return prog, nil
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) tok() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(text string) bool {
	t := p.tok()
	return (t.Kind == TokPunct || t.Kind == TokKeyword) && t.Text == text
}

func (p *parser) accept(text string) bool {
	if p.at(text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) (Token, error) {
	t := p.tok()
	if !p.at(text) {
		return t, errf(t.Line, t.Col, "expected %q, found %s", text, t)
	}
	p.pos++
	return t, nil
}

func (p *parser) ident() (Token, error) {
	t := p.tok()
	if t.Kind != TokIdent {
		return t, errf(t.Line, t.Col, "expected identifier, found %s", t)
	}
	p.pos++
	return t, nil
}

func posOf(t Token) Pos { return Pos{Line: t.Line, Col: t.Col} }

func (p *parser) program() (*Program, error) {
	prog := &Program{}
	for p.tok().Kind != TokEOF {
		isVoid := p.at("void")
		if !isVoid && !p.at("int") {
			t := p.tok()
			return nil, errf(t.Line, t.Col, "expected declaration, found %s", t)
		}
		p.next()
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if p.at("(") {
			fn, err := p.funcRest(name, !isVoid)
			if err != nil {
				return nil, err
			}
			prog.Funcs = append(prog.Funcs, fn)
			continue
		}
		if isVoid {
			return nil, errf(name.Line, name.Col, "global %s cannot be void", name.Text)
		}
		g, err := p.globalRest(name)
		if err != nil {
			return nil, err
		}
		prog.Globals = append(prog.Globals, g)
	}
	return prog, nil
}

// globalRest parses a global declaration after "int name".
func (p *parser) globalRest(name Token) (*GlobalDecl, error) {
	g := &GlobalDecl{Pos: posOf(name), Name: name.Text, Size: 1}
	if p.accept("[") {
		sz := p.tok()
		if sz.Kind != TokNumber || sz.Val <= 0 {
			return nil, errf(sz.Line, sz.Col, "array size must be a positive integer literal")
		}
		p.next()
		g.IsArray = true
		g.Size = int(sz.Val)
		if _, err := p.expect("]"); err != nil {
			return nil, err
		}
	}
	if p.accept("=") {
		if p.accept("{") {
			for {
				v, err := p.constValue()
				if err != nil {
					return nil, err
				}
				g.Init = append(g.Init, v)
				if p.accept(",") {
					if p.at("}") {
						break // trailing comma
					}
					continue
				}
				break
			}
			if _, err := p.expect("}"); err != nil {
				return nil, err
			}
			if !g.IsArray && len(g.Init) != 1 {
				return nil, errf(name.Line, name.Col, "scalar %s initialized with %d values", name.Text, len(g.Init))
			}
			if len(g.Init) > g.Size {
				return nil, errf(name.Line, name.Col, "%s: %d initializers for %d elements", name.Text, len(g.Init), g.Size)
			}
		} else {
			v, err := p.constValue()
			if err != nil {
				return nil, err
			}
			if g.IsArray {
				return nil, errf(name.Line, name.Col, "array %s needs a braced initializer", name.Text)
			}
			g.Init = []int64{v}
		}
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return g, nil
}

// constValue parses an optionally negated integer literal.
func (p *parser) constValue() (int64, error) {
	neg := p.accept("-")
	t := p.tok()
	if t.Kind != TokNumber {
		return 0, errf(t.Line, t.Col, "expected integer constant, found %s", t)
	}
	p.next()
	v := t.Val
	if neg {
		v = -v
	}
	return v, nil
}

// funcRest parses a function definition after "int|void name".
func (p *parser) funcRest(name Token, returnsInt bool) (*FuncDecl, error) {
	fn := &FuncDecl{Pos: posOf(name), Name: name.Text, ReturnsInt: returnsInt}
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	if !p.accept(")") {
		for {
			if _, err := p.expect("int"); err != nil {
				return nil, err
			}
			pn, err := p.ident()
			if err != nil {
				return nil, err
			}
			param := Param{Pos: posOf(pn), Name: pn.Text}
			if p.accept("[") {
				if _, err := p.expect("]"); err != nil {
					return nil, err
				}
				param.IsArray = true
			}
			fn.Params = append(fn.Params, param)
			if !p.accept(",") {
				break
			}
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *parser) block() (*BlockStmt, error) {
	open, err := p.expect("{")
	if err != nil {
		return nil, err
	}
	blk := &BlockStmt{Pos: posOf(open)}
	for !p.at("}") {
		if p.tok().Kind == TokEOF {
			return nil, errf(open.Line, open.Col, "unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			blk.Stmts = append(blk.Stmts, s)
		}
	}
	p.next() // consume "}"
	return blk, nil
}

func (p *parser) stmt() (Stmt, error) {
	t := p.tok()
	switch {
	case p.at(";"):
		p.next()
		return nil, nil
	case p.at("{"):
		return p.block()
	case p.at("int"):
		return p.declStmt()
	case p.at("if"):
		p.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		then, err := p.stmt()
		if err != nil {
			return nil, err
		}
		var els Stmt
		if p.accept("else") {
			els, err = p.stmt()
			if err != nil {
				return nil, err
			}
		}
		return &IfStmt{Pos: posOf(t), Cond: cond, Then: then, Else: els}, nil
	case p.at("while"):
		p.next()
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Pos: posOf(t), Cond: cond, Body: body}, nil
	case p.at("for"):
		return p.forStmt()
	case p.at("return"):
		p.next()
		var x Expr
		if !p.at(";") {
			var err error
			x, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ReturnStmt{Pos: posOf(t), X: x}, nil
	case p.at("break"):
		p.next()
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &BreakStmt{Pos: posOf(t)}, nil
	case p.at("continue"):
		p.next()
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ContinueStmt{Pos: posOf(t)}, nil
	default:
		s, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(";"); err != nil {
			return nil, err
		}
		return s, nil
	}
}

func (p *parser) declStmt() (Stmt, error) {
	t, err := p.expect("int")
	if err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &DeclStmt{Pos: posOf(t), Name: name.Text, Size: 1}
	if p.accept("[") {
		sz := p.tok()
		if sz.Kind != TokNumber || sz.Val <= 0 {
			return nil, errf(sz.Line, sz.Col, "array size must be a positive integer literal")
		}
		p.next()
		if _, err := p.expect("]"); err != nil {
			return nil, err
		}
		d.IsArray = true
		d.Size = int(sz.Val)
	} else if p.accept("=") {
		d.Init, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	return d, nil
}

// simpleStmt parses an assignment (including compound and ++/--) or a
// call statement, without the trailing semicolon (shared by for-headers).
func (p *parser) simpleStmt() (Stmt, error) {
	t := p.tok()
	if t.Kind != TokIdent {
		return nil, errf(t.Line, t.Col, "expected statement, found %s", t)
	}
	// Lookahead: a call statement is ident "(".
	if p.toks[p.pos+1].Kind == TokPunct && p.toks[p.pos+1].Text == "(" {
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		call, ok := x.(*CallExpr)
		if !ok {
			return nil, errf(t.Line, t.Col, "expression statement must be a call")
		}
		return &ExprStmt{Pos: posOf(t), X: call}, nil
	}
	p.next()
	lv := &LValue{Pos: posOf(t), Name: t.Text}
	if p.accept("[") {
		idx, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("]"); err != nil {
			return nil, err
		}
		lv.Index = idx
	}
	op := p.tok()
	switch op.Text {
	case "=":
		p.next()
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{Pos: posOf(t), Target: lv, Value: v}, nil
	case "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=":
		p.next()
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{Pos: posOf(t), Target: lv, Op: op.Text[:len(op.Text)-1], Value: v}, nil
	case "++", "--":
		p.next()
		binOp := "+"
		if op.Text == "--" {
			binOp = "-"
		}
		one := &NumberExpr{Pos: posOf(op), Val: 1}
		return &AssignStmt{Pos: posOf(t), Target: lv, Op: binOp, Value: one}, nil
	}
	return nil, errf(op.Line, op.Col, "expected assignment operator, found %s", op)
}

func (p *parser) forStmt() (Stmt, error) {
	t, err := p.expect("for")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect("("); err != nil {
		return nil, err
	}
	fs := &ForStmt{Pos: posOf(t)}
	if !p.at(";") {
		fs.Init, err = p.simpleStmt()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	if !p.at(";") {
		fs.Cond, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(";"); err != nil {
		return nil, err
	}
	if !p.at(")") {
		fs.Post, err = p.simpleStmt()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(")"); err != nil {
		return nil, err
	}
	fs.Body, err = p.stmt()
	if err != nil {
		return nil, err
	}
	return fs, nil
}

// binLevel returns t's precedence as a binary operator, loosest first
// (|| is 0, the multiplicative operators 9), or -1 if t is not one.
func binLevel(t *Token) int {
	if t.Kind != TokPunct {
		return -1
	}
	switch t.Text {
	case "||":
		return 0
	case "&&":
		return 1
	case "|":
		return 2
	case "^":
		return 3
	case "&":
		return 4
	case "==", "!=":
		return 5
	case "<", "<=", ">", ">=":
		return 6
	case "<<", ">>":
		return 7
	case "+", "-":
		return 8
	case "*", "/", "%":
		return 9
	}
	return -1
}

func (p *parser) expr() (Expr, error) { return p.ternary() }

func (p *parser) ternary() (Expr, error) {
	cond, err := p.binary(0)
	if err != nil {
		return nil, err
	}
	if !p.at("?") {
		return cond, nil
	}
	q := p.next()
	then, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(":"); err != nil {
		return nil, err
	}
	els, err := p.ternary()
	if err != nil {
		return nil, err
	}
	return &CondExpr{Pos: posOf(q), Cond: cond, Then: then, Else: els}, nil
}

// binary parses a chain of binary operators of precedence minLevel or
// tighter by precedence climbing: each operator's right operand takes
// only tighter operators, so equal levels associate to the left.
func (p *parser) binary(minLevel int) (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := &p.toks[p.pos]
		level := binLevel(t)
		if level < minLevel {
			return l, nil
		}
		p.pos++
		r, err := p.binary(level + 1)
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Pos: posOf(*t), Op: t.Text, L: l, R: r}
	}
}

func (p *parser) unary() (Expr, error) {
	t := p.tok()
	switch t.Text {
	case "-", "~", "!":
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Pos: posOf(t), Op: t.Text, X: x}, nil
	case "+":
		p.next()
		return p.unary()
	}
	return p.postfix()
}

func (p *parser) postfix() (Expr, error) {
	t := p.tok()
	switch t.Kind {
	case TokNumber:
		p.next()
		return &NumberExpr{Pos: posOf(t), Val: t.Val}, nil
	case TokIdent:
		p.next()
		if p.accept("(") {
			call := &CallExpr{Pos: posOf(t), Name: t.Text}
			if !p.accept(")") {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if !p.accept(",") {
						break
					}
				}
				if _, err := p.expect(")"); err != nil {
					return nil, err
				}
			}
			return call, nil
		}
		if p.accept("[") {
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect("]"); err != nil {
				return nil, err
			}
			return &IndexExpr{Pos: posOf(t), Name: t.Text, Index: idx}, nil
		}
		return &VarExpr{Pos: posOf(t), Name: t.Text}, nil
	}
	if t.Text == "(" {
		p.next()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, errf(t.Line, t.Col, "expected expression, found %s", t)
}
