package minic

// tryUnroll fully unrolls a canonical counted for-loop when Options allow
// it. It reports whether the loop was emitted (done). The canonical shape
// is:
//
//	for (i = c0; i <op> c1; i = i ± c2) body
//
// where i is a scalar already in scope (or the loop is rejected), the body
// contains no break/continue, never assigns or redeclares i, and the trip
// count is positive, at most UnrollLimit, and trip × bodyStmts is at most
// unrollBodyLimit. Each iteration binds i to its constant value, so the
// later constant-folding pass collapses index arithmetic — this is how
// very large basic blocks (paper §9) are produced.
func (lw *lowerer) tryUnroll(st *ForStmt) (done bool, err error) {
	if lw.opt.UnrollLimit <= 0 {
		return false, nil
	}
	init, ok := st.Init.(*AssignStmt)
	if !ok || init.Op != "" || init.Target.Index != nil {
		return false, nil
	}
	ivName := init.Target.Name
	c0, ok := constOf(init.Value)
	if !ok {
		return false, nil
	}
	cond, ok := st.Cond.(*BinaryExpr)
	if !ok {
		return false, nil
	}
	cv, ok := cond.L.(*VarExpr)
	if !ok || cv.Name != ivName {
		return false, nil
	}
	c1, ok := constOf(cond.R)
	if !ok {
		return false, nil
	}
	post, ok := st.Post.(*AssignStmt)
	if !ok || post.Target.Name != ivName || post.Target.Index != nil {
		return false, nil
	}
	var step int64
	switch post.Op {
	case "+":
		s, ok := constOf(post.Value)
		if !ok {
			return false, nil
		}
		step = s
	case "-":
		s, ok := constOf(post.Value)
		if !ok {
			return false, nil
		}
		step = -s
	default:
		return false, nil
	}
	if step == 0 {
		return false, nil
	}
	holds := func(i int64) bool {
		switch cond.Op {
		case "<":
			return i < c1
		case "<=":
			return i <= c1
		case ">":
			return i > c1
		case ">=":
			return i >= c1
		case "!=":
			return i != c1
		}
		return false
	}
	switch cond.Op {
	case "<", "<=", ">", ">=", "!=":
	default:
		return false, nil
	}
	if touchesVar(st.Body, ivName) || hasLoopEscape(st.Body) {
		return false, nil
	}
	// Simulate the trip count.
	var values []int64
	for i := c0; holds(i); i += step {
		values = append(values, i)
		if len(values) > lw.opt.UnrollLimit {
			return false, nil
		}
	}
	nStmts := countStmts(st.Body)
	if len(values)*nStmts > unrollBodyLimit {
		return false, nil
	}
	// The induction variable must resolve to a plain scalar.
	bnd, ok := lw.lookup(ivName)
	if !ok || bnd.kind != bindScalar {
		return false, nil
	}
	for _, v := range values {
		lw.b.CopyTo(bnd.reg, lw.b.Const(int32(v)))
		if err := lw.stmt(st.Body); err != nil {
			return true, err
		}
		if lw.terminated() {
			return true, nil // a return inside the body ends lowering
		}
	}
	// Final value of i, as the rolled loop would leave it.
	final := c0
	for holds(final) {
		final += step
	}
	lw.b.CopyTo(bnd.reg, lw.b.Const(int32(final)))
	return true, nil
}

func constOf(e Expr) (int64, bool) {
	switch ex := e.(type) {
	case *NumberExpr:
		return ex.Val, true
	case *UnaryExpr:
		if ex.Op == "-" {
			if v, ok := constOf(ex.X); ok {
				return -v, true
			}
		}
	}
	return 0, false
}

// touchesVar reports whether any statement in the tree assigns to or
// redeclares name.
func touchesVar(s Stmt, name string) bool {
	switch st := s.(type) {
	case nil:
		return false
	case *BlockStmt:
		for _, c := range st.Stmts {
			if touchesVar(c, name) {
				return true
			}
		}
	case *DeclStmt:
		return st.Name == name
	case *AssignStmt:
		return st.Target.Name == name && st.Target.Index == nil
	case *IfStmt:
		return touchesVar(st.Then, name) || touchesVar(st.Else, name)
	case *WhileStmt:
		return touchesVar(st.Body, name)
	case *ForStmt:
		return touchesVar(st.Init, name) || touchesVar(st.Post, name) || touchesVar(st.Body, name)
	}
	return false
}

// hasLoopEscape reports whether the tree contains a break or continue
// that would bind to the loop being unrolled (nested loops capture their
// own).
func hasLoopEscape(s Stmt) bool {
	switch st := s.(type) {
	case nil:
		return false
	case *BlockStmt:
		for _, c := range st.Stmts {
			if hasLoopEscape(c) {
				return true
			}
		}
	case *BreakStmt, *ContinueStmt:
		return true
	case *IfStmt:
		return hasLoopEscape(st.Then) || hasLoopEscape(st.Else)
	case *WhileStmt, *ForStmt:
		return false // their breaks bind to them
	}
	return false
}

func countStmts(s Stmt) int {
	switch st := s.(type) {
	case nil:
		return 0
	case *BlockStmt:
		n := 0
		for _, c := range st.Stmts {
			n += countStmts(c)
		}
		return n
	case *IfStmt:
		return 1 + countStmts(st.Then) + countStmts(st.Else)
	case *WhileStmt:
		return 1 + countStmts(st.Body)
	case *ForStmt:
		return 1 + countStmts(st.Init) + countStmts(st.Post) + countStmts(st.Body)
	default:
		return 1
	}
}
