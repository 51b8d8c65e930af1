// Package pointer implements a unification-based, flow- and context-
// insensitive points-to analysis in the style of Steensgaard, standing in
// for the paper's global pointer analysis (Ding & Li cite Das's
// unification-based analysis [7]). It is field-insensitive: a struct and
// an array are each a single abstract object.
//
// The analysis answers the questions the reuse scheme asks:
//
//   - PointsTo(p): which variables may *p designate? Used to turn pointer
//     dereferences into inputs/outputs of a code segment.
//   - CallTargets(call): which functions may a call expression reach
//     through a function pointer? Used by call-graph construction.
package pointer

import (
	"sort"

	"compreuse/internal/minic"
)

// node is an equivalence-class representative in the union-find structure.
// Every program variable gets a node; every node may have a points-to node
// (the abstract location its members point at).
type node struct {
	parent *node
	pts    *node
	// syms are the program symbols collapsed into this class.
	syms []*minic.Symbol
	// funcs are the function declarations in this class (targets of
	// function pointers).
	funcs []*minic.FuncDecl
}

func (n *node) find() *node {
	for n.parent != nil {
		if n.parent.parent != nil {
			n.parent = n.parent.parent // path halving
		}
		n = n.parent
	}
	return n
}

// Analysis is a completed points-to analysis over one program.
type Analysis struct {
	prog  *minic.Program
	nodes map[*minic.Symbol]*node
}

// Analyze runs the analysis over a checked program.
func Analyze(prog *minic.Program) *Analysis {
	a := &analyzer{
		Analysis: &Analysis{prog: prog, nodes: map[*minic.Symbol]*node{}},
	}
	a.run()
	return a.Analysis
}

type analyzer struct {
	*Analysis
}

func (a *analyzer) nodeOf(sym *minic.Symbol) *node {
	if n, ok := a.nodes[sym]; ok {
		return n.find()
	}
	n := &node{syms: []*minic.Symbol{sym}}
	a.nodes[sym] = n
	return n
}

// ptsOf returns (creating if needed) the points-to node of n.
func (a *analyzer) ptsOf(n *node) *node {
	n = n.find()
	if n.pts == nil {
		n.pts = &node{}
	}
	return n.pts.find()
}

// join unifies two classes (and, recursively, their points-to classes).
func (a *analyzer) join(x, y *node) {
	x, y = x.find(), y.find()
	if x == y {
		return
	}
	// Union by size of syms; y into x.
	if len(y.syms)+len(y.funcs) > len(x.syms)+len(x.funcs) {
		x, y = y, x
	}
	y.parent = x
	x.syms = append(x.syms, y.syms...)
	x.funcs = append(x.funcs, y.funcs...)
	y.syms, y.funcs = nil, nil
	switch {
	case x.pts == nil:
		x.pts = y.pts
	case y.pts != nil:
		xp, yp := x.pts, y.pts
		y.pts = nil
		a.join(xp, yp)
	}
}

func (a *analyzer) run() {
	for _, fn := range a.prog.Funcs {
		// Register the function itself as a pointable object.
		fnNode := a.nodeOf(fn.Sym)
		fnNode.funcs = append(fnNode.funcs, fn)
	}
	for _, g := range a.prog.Globals {
		if g.Init != nil {
			a.assign(a.nodeOf(g.Sym), g.Init)
		}
	}
	for _, fn := range a.prog.Funcs {
		if fn.Body != nil {
			a.walkStmt(fn, fn.Body)
		}
	}
}

func (a *analyzer) walkStmt(fn *minic.FuncDecl, s minic.Stmt) {
	switch s := s.(type) {
	case *minic.Block:
		for _, st := range s.Stmts {
			a.walkStmt(fn, st)
		}
	case *minic.DeclStmt:
		for _, d := range s.Decls {
			if d.Init != nil {
				a.assign(a.nodeOf(d.Sym), d.Init)
				a.walkExpr(fn, d.Init)
			}
			for _, e := range d.InitList {
				a.walkExpr(fn, e)
			}
		}
	case *minic.ExprStmt:
		a.walkExpr(fn, s.X)
	case *minic.IfStmt:
		a.walkExpr(fn, s.Cond)
		a.walkStmt(fn, s.Then)
		if s.Else != nil {
			a.walkStmt(fn, s.Else)
		}
	case *minic.WhileStmt:
		a.walkExpr(fn, s.Cond)
		a.walkStmt(fn, s.Body)
	case *minic.ForStmt:
		if s.Init != nil {
			a.walkStmt(fn, s.Init)
		}
		if s.Cond != nil {
			a.walkExpr(fn, s.Cond)
		}
		if s.Post != nil {
			a.walkExpr(fn, s.Post)
		}
		a.walkStmt(fn, s.Body)
	case *minic.ReturnStmt:
		if s.X != nil {
			// return e: the value flows to every caller's result; model by
			// assigning into the function's own symbol node (its "return
			// slot"), which call sites read from.
			a.assign(a.retNode(fn), s.X)
			a.walkExpr(fn, s.X)
		}
	case *minic.ReuseRegion:
		for _, e := range s.Inputs {
			a.walkExpr(fn, e)
		}
		a.walkStmt(fn, s.Body)
		for _, e := range s.Outputs {
			a.walkExpr(fn, e)
		}
	}
}

// retNode is the abstract "return value" location of fn: the points-to
// node of the function symbol itself serves this role.
func (a *analyzer) retNode(fn *minic.FuncDecl) *node {
	return a.ptsOf(a.nodeOf(fn.Sym))
}

// walkExpr visits nested expressions, collecting constraints from
// assignments and calls.
func (a *analyzer) walkExpr(fn *minic.FuncDecl, e minic.Expr) {
	switch e := e.(type) {
	case *minic.AssignExpr:
		a.walkExpr(fn, e.RHS)
		a.walkExpr(fn, e.LHS)
		if e.Op == minic.Assign {
			a.assignTo(e.LHS, e.RHS)
		}
	case *minic.Call:
		for _, arg := range e.Args {
			a.walkExpr(fn, arg)
		}
		a.walkExpr(fn, e.Fun)
		// calleeNodes binds arguments to parameters as a side effect.
		a.calleeNodes(e)
	case *minic.Unary:
		a.walkExpr(fn, e.X)
	case *minic.IncDec:
		a.walkExpr(fn, e.X)
	case *minic.Binary:
		a.walkExpr(fn, e.X)
		a.walkExpr(fn, e.Y)
	case *minic.Cond:
		a.walkExpr(fn, e.Cond)
		a.walkExpr(fn, e.Then)
		a.walkExpr(fn, e.Else)
	case *minic.Index:
		a.walkExpr(fn, e.X)
		a.walkExpr(fn, e.Idx)
	case *minic.FieldExpr:
		a.walkExpr(fn, e.X)
	case *minic.Cast:
		a.walkExpr(fn, e.X)
	}
}

// assignTo handles "lhs = rhs" for any lvalue shape.
func (a *analyzer) assignTo(lhs, rhs minic.Expr) {
	switch l := lhs.(type) {
	case *minic.Ident:
		a.assign(a.nodeOf(l.Sym), rhs)
	case *minic.Unary:
		if l.Op == minic.Star {
			// *p = rhs: whatever rhs points at flows into pts(pts(p)).
			if base := a.exprNode(l.X); base != nil {
				dst := a.ptsOf(base)
				a.assign(dst, rhs)
			}
		}
	case *minic.Index:
		// a[i] = rhs: field/element-insensitive — flows into the array
		// object (for pointer bases, into the pointee).
		if obj := a.lvalueObject(l); obj != nil {
			a.assign(obj, rhs)
		}
	case *minic.FieldExpr:
		if obj := a.lvalueObject(l); obj != nil {
			a.assign(obj, rhs)
		}
	}
}

// lvalueObject returns the abstract object node an lvalue designates.
func (a *analyzer) lvalueObject(e minic.Expr) *node {
	switch e := e.(type) {
	case *minic.Ident:
		return a.nodeOf(e.Sym)
	case *minic.Index:
		base := a.exprNode(e.X)
		if base == nil {
			return nil
		}
		// For an array variable the object is the variable itself; for a
		// pointer it is the pointee. exprNode on an array Ident returns
		// the array's node, and indexing stays within that object.
		if _, isPtr := decay(e.X.Type()).(*minic.Pointer); isPtr {
			if _, isArr := e.X.Type().(*minic.Array); !isArr {
				return a.ptsOf(base)
			}
		}
		return base
	case *minic.FieldExpr:
		if e.Arrow {
			base := a.exprNode(e.X)
			if base == nil {
				return nil
			}
			return a.ptsOf(base)
		}
		return a.lvalueObject(e.X)
	case *minic.Unary:
		if e.Op == minic.Star {
			base := a.exprNode(e.X)
			if base == nil {
				return nil
			}
			return a.ptsOf(base)
		}
	}
	return nil
}

func decay(t minic.Type) minic.Type {
	if at, ok := t.(*minic.Array); ok {
		return &minic.Pointer{Elem: at.Elem}
	}
	return t
}

// assign adds the constraint dst = rhs (value flow).
func (a *analyzer) assign(dst *node, rhs minic.Expr) {
	switch r := rhs.(type) {
	case *minic.Ident:
		if r.Sym == nil {
			return
		}
		if r.Sym.Kind == minic.SymFunc {
			// dst = f: dst points at the function.
			a.join(a.ptsOf(dst), a.nodeOf(r.Sym))
			return
		}
		if minic.IsAggregate(r.Sym.Type) {
			// Array decay: dst = arr means dst points at arr's object.
			a.join(a.ptsOf(dst), a.nodeOf(r.Sym))
			return
		}
		// Scalar copy: unify points-to sets (Steensgaard join).
		a.join(a.ptsOf(dst), a.ptsOf(a.nodeOf(r.Sym)))
	case *minic.Unary:
		switch r.Op {
		case minic.Amp:
			if obj := a.lvalueObject(r.X); obj != nil {
				a.join(a.ptsOf(dst), obj)
			}
		case minic.Star:
			if base := a.exprNode(r.X); base != nil {
				a.join(a.ptsOf(dst), a.ptsOf(a.ptsOf(base)))
			}
		}
	case *minic.Index:
		if obj := a.lvalueObject(r); obj != nil {
			a.join(a.ptsOf(dst), a.ptsOf(obj))
		}
	case *minic.FieldExpr:
		if obj := a.lvalueObject(r); obj != nil {
			a.join(a.ptsOf(dst), a.ptsOf(obj))
		}
	case *minic.AssignExpr:
		a.assign(dst, r.LHS)
	case *minic.Cond:
		a.assign(dst, r.Then)
		a.assign(dst, r.Else)
	case *minic.Cast:
		a.assign(dst, r.X)
	case *minic.Call:
		// dst = f(...): the callee's return slot (pts of the function
		// node) is a scalar holding the value; copy its points-to set.
		for _, callee := range a.calleeNodes(r) {
			a.join(a.ptsOf(dst), a.ptsOf(a.ptsOf(callee)))
		}
	case *minic.Binary:
		// Pointer arithmetic: p + i points wherever p points.
		a.assign(dst, r.X)
		a.assign(dst, r.Y)
	case *minic.IntLit, *minic.FloatLit, *minic.StrLit, *minic.SizeofExpr, *minic.IncDec:
		// No pointer flow.
	}
}

// exprNode returns the node holding the value of a pointer-valued
// expression, or nil when the expression cannot carry a pointer.
func (a *analyzer) exprNode(e minic.Expr) *node {
	switch e := e.(type) {
	case *minic.Ident:
		if e.Sym == nil {
			return nil
		}
		return a.nodeOf(e.Sym)
	case *minic.Unary:
		switch e.Op {
		case minic.Star:
			if base := a.exprNode(e.X); base != nil {
				return a.ptsOf(base)
			}
		case minic.Amp:
			// &x used directly (e.g. (&x)[i]): a fresh node pointing at x.
			if obj := a.lvalueObject(e.X); obj != nil {
				tmp := &node{}
				a.join(a.ptsOf(tmp), obj)
				return tmp
			}
		}
		return nil
	case *minic.Index:
		if obj := a.lvalueObject(e); obj != nil {
			// The element value lives in the object; for pointer-valued
			// elements its pts is the object's pts.
			return obj
		}
		return nil
	case *minic.FieldExpr:
		return a.lvalueObject(e)
	case *minic.Cast:
		return a.exprNode(e.X)
	case *minic.Binary:
		// Pointer arithmetic result.
		if n := a.exprNode(e.X); n != nil {
			return n
		}
		return a.exprNode(e.Y)
	case *minic.AssignExpr:
		return a.exprNode(e.LHS)
	case *minic.Cond:
		// Either branch; join them.
		x, y := a.exprNode(e.Then), a.exprNode(e.Else)
		if x == nil {
			return y
		}
		if y != nil {
			a.join(x, y)
		}
		return x
	case *minic.Call:
		nodes := a.calleeNodes(e)
		if len(nodes) == 0 {
			return nil
		}
		ret := a.ptsOf(nodes[0])
		for _, n := range nodes[1:] {
			a.join(ret, a.ptsOf(n))
		}
		return ret
	}
	return nil
}

// calleeNodes returns the function-symbol nodes a call may target and adds
// parameter-binding constraints.
func (a *analyzer) calleeNodes(c *minic.Call) []*node {
	var fns []*minic.FuncDecl
	if id, ok := c.Fun.(*minic.Ident); ok && id.Sym != nil && id.Sym.Kind == minic.SymFunc {
		if id.Sym.FuncDecl != nil {
			fns = []*minic.FuncDecl{id.Sym.FuncDecl}
		}
		// Builtins have no body and no pointer behavior.
	} else if n := a.exprNode(c.Fun); n != nil {
		// Indirect call: the function objects live in the pointee class of
		// the function-pointer value.
		n = n.find()
		fns = append(fns, n.funcs...)
		if n.pts != nil {
			fns = append(fns, n.pts.find().funcs...)
		}
	}
	var out []*node
	for _, fn := range fns {
		out = append(out, a.nodeOf(fn.Sym))
		for i, p := range fn.Params {
			if i < len(c.Args) {
				a.assign(a.nodeOf(p.Sym), c.Args[i])
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Queries

// PointsTo returns the symbols *sym may designate, sorted by name.
func (a *Analysis) PointsTo(sym *minic.Symbol) []*minic.Symbol {
	n, ok := a.nodes[sym]
	if !ok {
		return nil
	}
	n = n.find()
	if n.pts == nil {
		return nil
	}
	pts := n.pts.find()
	out := append([]*minic.Symbol(nil), pts.syms...)
	sortSyms(out)
	return out
}

// CallTargets resolves the possible callees of a call expression: a single
// declared function for direct calls, or the points-to set of the function
// pointer for indirect calls.
func (a *Analysis) CallTargets(c *minic.Call) []*minic.FuncDecl {
	if id, ok := c.Fun.(*minic.Ident); ok && id.Sym != nil && id.Sym.Kind == minic.SymFunc {
		if id.Sym.FuncDecl != nil {
			return []*minic.FuncDecl{id.Sym.FuncDecl}
		}
		return nil // builtin
	}
	// Indirect: find the expression's node; targets live in its pointee
	// class (a function pointer value points at function objects).
	az := &analyzer{Analysis: a}
	n := az.exprNode(c.Fun)
	if n == nil {
		return nil
	}
	n = n.find()
	out := append([]*minic.FuncDecl(nil), n.funcs...)
	if n.pts != nil {
		out = append(out, n.pts.find().funcs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func sortSyms(syms []*minic.Symbol) {
	sort.Slice(syms, func(i, j int) bool {
		if syms[i].Name != syms[j].Name {
			return syms[i].Name < syms[j].Name
		}
		return syms[i].Kind < syms[j].Kind
	})
}
