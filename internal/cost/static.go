package cost

import (
	"compreuse/internal/minic"
)

// defaultTrips is the assumed iteration count of loops whose trip count
// cannot be derived statically.
const defaultTrips = 8

// Static estimates segment costs from the AST alone, before any profiling.
// The compiler uses two bounds per segment (paper §3.1):
//
//   - an optimistic granularity estimate MaxCycles (loops with known
//     constant trip counts are fully expanded; unknown loops are assumed to
//     run defaultTrips iterations; branches take their more expensive arm),
//     used in the O/C < 1 pre-profiling filter — a segment whose optimistic
//     C still cannot beat the hashing overhead is removed, because even at
//     R = 1 formula (3) could not hold;
//   - a pessimistic estimate MinCycles (unknown or breakable loops run one
//     iteration; branches take their cheaper arm), reported for
//     diagnostics.
//
// The authoritative C is measured later, during value-set profiling, by the
// VM's per-segment cycle accounting.
type Static struct {
	M *Model

	funcMax map[*minic.FuncDecl]int64
	funcMin map[*minic.FuncDecl]int64
	active  map[*minic.FuncDecl]bool
}

// NewStatic returns an estimator with cost model m.
func NewStatic(m *Model) *Static {
	return &Static{
		M:       m,
		funcMax: map[*minic.FuncDecl]int64{},
		funcMin: map[*minic.FuncDecl]int64{},
		active:  map[*minic.FuncDecl]bool{},
	}
}

// MaxCycles returns the optimistic per-instance granularity of stmt.
func (s *Static) MaxCycles(stmt minic.Stmt) int64 { return s.stmtCost(stmt, true) }

// MinCycles returns the pessimistic per-instance granularity of stmt.
func (s *Static) MinCycles(stmt minic.Stmt) int64 { return s.stmtCost(stmt, false) }

// FuncCycles estimates a whole call of fn, including call and return
// overhead.
func (s *Static) FuncCycles(fn *minic.FuncDecl, optimistic bool) int64 {
	memo := s.funcMin
	if optimistic {
		memo = s.funcMax
	}
	if c, ok := memo[fn]; ok {
		return c
	}
	if s.active[fn] || fn.Body == nil {
		// Recursive cycle or external function: count the call itself only.
		return s.M.Call + s.M.Ret
	}
	s.active[fn] = true
	c := s.M.Call + s.M.Ret + s.stmtCost(fn.Body, optimistic)
	s.active[fn] = false
	memo[fn] = c
	return c
}

func (s *Static) stmtCost(stmt minic.Stmt, opt bool) int64 {
	if stmt == nil {
		return 0
	}
	m := s.M
	switch st := stmt.(type) {
	case *minic.Block:
		var c int64
		for _, x := range st.Stmts {
			c += s.stmtCost(x, opt)
		}
		return c
	case *minic.DeclStmt:
		var c int64
		for _, d := range st.Decls {
			if d.Init != nil {
				c += s.exprCost(d.Init, opt) + m.LocalAccess
			}
			if d.InitList != nil {
				c += int64(len(d.InitList)) * m.Store
			}
		}
		return c
	case *minic.ExprStmt:
		return s.exprCost(st.X, opt)
	case *minic.IfStmt:
		c := s.exprCost(st.Cond, opt) + m.Branch
		t := s.stmtCost(st.Then, opt)
		var e int64
		if st.Else != nil {
			e = s.stmtCost(st.Else, opt)
		}
		if opt {
			if t > e {
				return c + t
			}
			return c + e
		}
		if t < e {
			return c + t
		}
		return c + e
	case *minic.WhileStmt:
		per := s.exprCost(st.Cond, opt) + m.Branch + s.stmtCost(st.Body, opt)
		return per * s.loopTrips(nil, st, opt)
	case *minic.ForStmt:
		c := s.stmtCost(st.Init, opt)
		per := m.Branch + s.stmtCost(st.Body, opt)
		if st.Cond != nil {
			per += s.exprCost(st.Cond, opt)
		}
		if st.Post != nil {
			per += s.exprCost(st.Post, opt)
		}
		return c + per*s.loopTrips(st, nil, opt)
	case *minic.ReturnStmt:
		if st.X != nil {
			return s.exprCost(st.X, opt)
		}
		return 0
	case *minic.ReuseRegion:
		return s.stmtCost(st.Body, opt)
	case *minic.BreakStmt, *minic.ContinueStmt, *minic.EmptyStmt:
		return 0
	}
	return 0
}

// loopTrips estimates iteration counts. Exactly one of f (for) and w
// (while) is non-nil.
func (s *Static) loopTrips(f *minic.ForStmt, w *minic.WhileStmt, opt bool) int64 {
	var body minic.Stmt
	if f != nil {
		body = f.Body
	} else {
		body = w.Body
	}
	breakable := hasEscape(body)
	if f != nil {
		if n, ok := ConstTripCount(f); ok {
			if !opt && breakable {
				return 1
			}
			return n
		}
	}
	if opt {
		return defaultTrips
	}
	if w != nil && w.DoWhile {
		return 1
	}
	if breakable {
		return 1
	}
	return 1
}

// hasEscape reports whether body contains a break or return that could cut
// the loop short (nested loops shield their own breaks).
func hasEscape(body minic.Stmt) bool {
	found := false
	var walk func(minic.Stmt, bool)
	walk = func(st minic.Stmt, top bool) {
		if st == nil || found {
			return
		}
		switch x := st.(type) {
		case *minic.BreakStmt:
			if top {
				found = true
			}
		case *minic.ReturnStmt:
			found = true
		case *minic.Block:
			for _, y := range x.Stmts {
				walk(y, top)
			}
		case *minic.IfStmt:
			walk(x.Then, top)
			walk(x.Else, top)
		case *minic.WhileStmt:
			walk(x.Body, false)
		case *minic.ForStmt:
			walk(x.Body, false)
		case *minic.ReuseRegion:
			walk(x.Body, top)
		}
	}
	walk(body, true)
	return found
}

// ConstTripCount recognizes the canonical counted loop
// for (i = lo; i < hi; i++) — also <=, and i += step — with integer
// literal bounds, and returns its trip count.
func ConstTripCount(f *minic.ForStmt) (int64, bool) {
	var iv *minic.Symbol
	var lo int64
	switch init := f.Init.(type) {
	case *minic.DeclStmt:
		if len(init.Decls) != 1 || init.Decls[0].Init == nil {
			return 0, false
		}
		lit, ok := init.Decls[0].Init.(*minic.IntLit)
		if !ok {
			return 0, false
		}
		iv, lo = init.Decls[0].Sym, lit.Val
	case *minic.ExprStmt:
		as, ok := init.X.(*minic.AssignExpr)
		if !ok || as.Op != minic.Assign {
			return 0, false
		}
		id, ok := as.LHS.(*minic.Ident)
		if !ok {
			return 0, false
		}
		lit, ok := as.RHS.(*minic.IntLit)
		if !ok {
			return 0, false
		}
		iv, lo = id.Sym, lit.Val
	default:
		return 0, false
	}

	cond, ok := f.Cond.(*minic.Binary)
	if !ok {
		return 0, false
	}
	condID, ok := cond.X.(*minic.Ident)
	if !ok || condID.Sym != iv {
		return 0, false
	}
	hiLit, ok := cond.Y.(*minic.IntLit)
	if !ok {
		return 0, false
	}
	hi := hiLit.Val
	incl := false
	switch cond.Op {
	case minic.Lt:
	case minic.Le:
		incl = true
	default:
		return 0, false
	}

	step := int64(0)
	switch post := f.Post.(type) {
	case *minic.IncDec:
		id, ok := post.X.(*minic.Ident)
		if !ok || id.Sym != iv || post.Op != minic.Inc {
			return 0, false
		}
		step = 1
	case *minic.AssignExpr:
		id, ok := post.LHS.(*minic.Ident)
		if !ok || id.Sym != iv || post.Op != minic.PlusEq {
			return 0, false
		}
		lit, ok := post.RHS.(*minic.IntLit)
		if !ok || lit.Val <= 0 {
			return 0, false
		}
		step = lit.Val
	default:
		return 0, false
	}

	// The induction variable must not be written in the body.
	written := false
	minic.InspectExprs(f.Body, func(e minic.Expr) bool {
		switch x := e.(type) {
		case *minic.AssignExpr:
			if id, ok := x.LHS.(*minic.Ident); ok && id.Sym == iv {
				written = true
			}
		case *minic.IncDec:
			if id, ok := x.X.(*minic.Ident); ok && id.Sym == iv {
				written = true
			}
		case *minic.Unary:
			if x.Op == minic.Amp {
				if id, ok := x.X.(*minic.Ident); ok && id.Sym == iv {
					written = true
				}
			}
		}
		return !written
	})
	if written {
		return 0, false
	}

	if incl {
		hi++
	}
	if hi <= lo {
		return 0, true
	}
	return (hi - lo + step - 1) / step, true
}

func (s *Static) exprCost(e minic.Expr, opt bool) int64 {
	if e == nil {
		return 0
	}
	m := s.M
	switch x := e.(type) {
	case *minic.IntLit, *minic.FloatLit, *minic.StrLit, *minic.SizeofExpr:
		return m.IntALU
	case *minic.Ident:
		return s.identCost(x)
	case *minic.Unary:
		c := s.exprCost(x.X, opt)
		switch x.Op {
		case minic.Star:
			return c + m.Load
		case minic.Amp:
			return c // address formation is part of the operand walk
		default:
			if minic.IsFloat(x.Type()) {
				return c + m.FloatAdd
			}
			return c + m.IntALU
		}
	case *minic.IncDec:
		return s.lvalueCost(x.X, opt) + s.readWriteCost(x.X) + m.IntALU
	case *minic.Binary:
		c := s.exprCost(x.X, opt) + s.exprCost(x.Y, opt)
		return c + s.binOpCost(x)
	case *minic.AssignExpr:
		c := s.exprCost(x.RHS, opt) + s.lvalueCost(x.LHS, opt) + s.writeCost(x.LHS)
		if x.Op != minic.Assign {
			// Compound assignment also reads the target and applies the op.
			c += s.readCost(x.LHS) + m.IntALU
		}
		return c
	case *minic.Cond:
		c := s.exprCost(x.Cond, opt) + m.Branch
		t := s.exprCost(x.Then, opt)
		f := s.exprCost(x.Else, opt)
		if opt == (t > f) {
			return c + t
		}
		return c + f
	case *minic.Call:
		c := int64(0)
		for _, a := range x.Args {
			c += s.exprCost(a, opt) + m.Store // argument copy
		}
		if id, ok := x.Fun.(*minic.Ident); ok && id.Sym != nil && id.Sym.FuncDecl != nil {
			return c + s.FuncCycles(id.Sym.FuncDecl, opt)
		}
		// Builtin or indirect call.
		return c + m.Call + m.Ret
	case *minic.Index:
		return s.exprCost(x.X, opt) + s.exprCost(x.Idx, opt) + m.IntALU + m.Load
	case *minic.FieldExpr:
		return s.exprCost(x.X, opt) + m.IntALU + m.Load
	case *minic.Cast:
		c := s.exprCost(x.X, opt)
		if minic.IsArith(x.To) && x.X.Type() != nil &&
			minic.IsArith(x.X.Type()) && !minic.Identical(x.To, x.X.Type()) {
			return c + m.Conv
		}
		return c
	}
	return 0
}

func (s *Static) binOpCost(x *minic.Binary) int64 {
	m := s.M
	isFloat := minic.IsFloat(x.X.Type()) || minic.IsFloat(x.Y.Type())
	switch x.Op {
	case minic.Star:
		if isFloat {
			return m.FloatMul
		}
		return m.IntMul
	case minic.Slash:
		if isFloat {
			return m.FloatDiv
		}
		return m.IntDiv
	case minic.Percent:
		return m.IntDiv
	case minic.EqEq, minic.NotEq, minic.Lt, minic.Gt, minic.Le, minic.Ge:
		if isFloat {
			return m.FloatCmp
		}
		return m.IntALU
	case minic.AndAnd, minic.OrOr:
		return m.Branch
	default: // + - & | ^ << >>
		if isFloat {
			return m.FloatAdd
		}
		return m.IntALU
	}
}

// identCost is the cost of reading a scalar identifier.
func (s *Static) identCost(x *minic.Ident) int64 {
	if x.Sym == nil {
		return s.M.Load
	}
	switch x.Sym.Kind {
	case minic.SymLocal, minic.SymParam:
		if minic.IsAggregate(x.Sym.Type) {
			return s.M.IntALU // address formation
		}
		return s.M.LocalAccess
	case minic.SymGlobal:
		if minic.IsAggregate(x.Sym.Type) {
			return s.M.IntALU
		}
		return s.M.Load
	default:
		return s.M.IntALU
	}
}

// lvalueCost is the address-computation cost of an lvalue (excluding the
// final read/write).
func (s *Static) lvalueCost(e minic.Expr, opt bool) int64 {
	switch x := e.(type) {
	case *minic.Ident:
		return 0
	case *minic.Index:
		return s.exprCost(x.X, opt) + s.exprCost(x.Idx, opt) + s.M.IntALU
	case *minic.FieldExpr:
		return s.exprCost(x.X, opt) + s.M.IntALU
	case *minic.Unary:
		if x.Op == minic.Star {
			return s.exprCost(x.X, opt)
		}
	}
	return 0
}

func (s *Static) readCost(e minic.Expr) int64 {
	if id, ok := e.(*minic.Ident); ok {
		return s.identCost(id)
	}
	return s.M.Load
}

func (s *Static) writeCost(e minic.Expr) int64 {
	if id, ok := e.(*minic.Ident); ok && id.Sym != nil &&
		(id.Sym.Kind == minic.SymLocal || id.Sym.Kind == minic.SymParam) {
		return s.M.LocalAccess
	}
	return s.M.Store
}

func (s *Static) readWriteCost(e minic.Expr) int64 {
	return s.readCost(e) + s.writeCost(e)
}
