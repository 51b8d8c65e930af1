// Package dataflow implements the data-flow analyses the reuse scheme
// depends on (Ding & Li §2.1, §3.1): interprocedural mod/ref effect
// summaries, liveness, upward-exposed reads over code-segment CFGs, and
// a program-wide def-use summary that links the procedures writing a
// global (or escaping) symbol to those reading it.
package dataflow

import (
	"sort"

	"compreuse/internal/callgraph"
	"compreuse/internal/cfg"
	"compreuse/internal/minic"
	"compreuse/internal/pointer"
)

// SymSet is a set of program symbols.
type SymSet map[*minic.Symbol]bool

// Add inserts sym and reports whether it was new.
func (s SymSet) Add(sym *minic.Symbol) bool {
	if s[sym] {
		return false
	}
	s[sym] = true
	return true
}

// AddAll inserts every member of o and reports whether anything changed.
func (s SymSet) AddAll(o SymSet) bool {
	changed := false
	for sym := range o {
		if s.Add(sym) {
			changed = true
		}
	}
	return changed
}

// Clone copies the set.
func (s SymSet) Clone() SymSet {
	c := make(SymSet, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// Sorted returns the members sorted by (name, kind) for stable output.
func (s SymSet) Sorted() []*minic.Symbol {
	out := make([]*minic.Symbol, 0, len(s))
	for sym := range s {
		out = append(out, sym)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// ModRef summarizes a function's externally visible effects.
type ModRef struct {
	// Mod is the set of symbols the function (transitively) may write,
	// excluding its own non-escaping locals.
	Mod SymSet
	// Ref is the set it may read, same exclusion.
	Ref SymSet
}

// Effects holds mod/ref summaries for every function plus the analyses
// they were computed from.
type Effects struct {
	Prog *minic.Program
	Pts  *pointer.Analysis
	CG   *callgraph.Graph
	fns  map[*minic.FuncDecl]*ModRef
}

// FuncModRef returns fn's summary (empty summary for unknown functions).
func (e *Effects) FuncModRef(fn *minic.FuncDecl) *ModRef {
	if mr, ok := e.fns[fn]; ok {
		return mr
	}
	return &ModRef{Mod: SymSet{}, Ref: SymSet{}}
}

// visible reports whether an effect on sym inside fn is visible outside fn.
func visible(sym *minic.Symbol, fn *minic.FuncDecl) bool {
	if sym == nil {
		return false
	}
	switch sym.Kind {
	case minic.SymGlobal, minic.SymFunc:
		return true
	default:
		// A local or parameter of another function is reachable only via
		// pointers, hence visible; fn's own locals are visible only when
		// their address escapes.
		if sym.Func != fn {
			return true
		}
		return sym.AddrTaken
	}
}

// ComputeEffects builds the interprocedural mod/ref summaries by iterating
// direct effects plus callee summaries to a fixpoint over the call graph.
func ComputeEffects(prog *minic.Program, pts *pointer.Analysis, cg *callgraph.Graph) *Effects {
	e := &Effects{Prog: prog, Pts: pts, CG: cg, fns: map[*minic.FuncDecl]*ModRef{}}
	for _, fn := range prog.Funcs {
		e.fns[fn] = &ModRef{Mod: SymSet{}, Ref: SymSet{}}
	}
	// Direct effects.
	for _, fn := range prog.Funcs {
		if fn.Body == nil {
			continue
		}
		mr := e.fns[fn]
		direct := e.directEffects(fn)
		for sym := range direct.Mod {
			if visible(sym, fn) {
				mr.Mod.Add(sym)
			}
		}
		for sym := range direct.Ref {
			if visible(sym, fn) {
				mr.Ref.Add(sym)
			}
		}
	}
	// Transitive closure over the call graph.
	for changed := true; changed; {
		changed = false
		for _, fn := range prog.Funcs {
			mr := e.fns[fn]
			for _, callee := range cg.Callees(fn) {
				cmr := e.fns[callee]
				for sym := range cmr.Mod {
					if visible(sym, fn) && mr.Mod.Add(sym) {
						changed = true
					}
				}
				for sym := range cmr.Ref {
					if visible(sym, fn) && mr.Ref.Add(sym) {
						changed = true
					}
				}
			}
		}
	}
	return e
}

// directEffects collects fn's own reads/writes by aggregating the per-node
// facts over the function CFG (so pure store targets do not count as
// reads). Call-site effects are folded in later by the transitive-closure
// pass, so the still-empty callee summaries consulted here are harmless.
func (e *Effects) directEffects(fn *minic.FuncDecl) *ModRef {
	mr := &ModRef{Mod: SymSet{}, Ref: SymSet{}}
	g := cfg.Build(fn)
	for _, n := range g.Nodes {
		ne := e.NodeEffectsOf(n)
		mr.Ref.AddAll(ne.Use)
		mr.Mod.AddAll(ne.Def)
		mr.Mod.AddAll(ne.MayDef)
	}
	return mr
}

// derefEffect adds the points-to set of pointer expression p.
func (e *Effects) derefEffect(p minic.Expr, set SymSet) {
	for _, sym := range e.pointees(p) {
		set.Add(sym)
	}
}

// indexBaseEffect adds the object(s) x[i] may touch.
func (e *Effects) indexBaseEffect(ix *minic.Index, set SymSet) {
	if id, ok := ix.X.(*minic.Ident); ok && id.Sym != nil {
		if _, isArr := id.Sym.Type.(*minic.Array); isArr {
			set.Add(id.Sym)
			return
		}
		// Pointer base: pts(p).
		for _, sym := range e.Pts.PointsTo(id.Sym) {
			set.Add(sym)
		}
		return
	}
	// Complex base (nested index, call result...): use the root idents.
	for _, id := range minic.Idents(ix.X) {
		if id.Sym == nil || id.Sym.Kind == minic.SymFunc {
			continue
		}
		if _, isArr := id.Sym.Type.(*minic.Array); isArr {
			set.Add(id.Sym)
		}
		for _, sym := range e.Pts.PointsTo(id.Sym) {
			set.Add(sym)
		}
	}
}

// pointees resolves the variables a pointer-valued expression may
// designate.
func (e *Effects) pointees(p minic.Expr) []*minic.Symbol {
	switch p := p.(type) {
	case *minic.Ident:
		if p.Sym == nil {
			return nil
		}
		if _, isArr := p.Sym.Type.(*minic.Array); isArr {
			return []*minic.Symbol{p.Sym}
		}
		return e.Pts.PointsTo(p.Sym)
	case *minic.Unary:
		if p.Op == minic.Amp {
			if id, ok := p.X.(*minic.Ident); ok && id.Sym != nil {
				return []*minic.Symbol{id.Sym}
			}
		}
		if p.Op == minic.Star {
			// **q: collect pointees of pointees.
			var out []*minic.Symbol
			for _, mid := range e.pointees(p.X) {
				out = append(out, e.Pts.PointsTo(mid)...)
			}
			return out
		}
	case *minic.Binary:
		// Pointer arithmetic: targets of either side.
		return append(e.pointees(p.X), e.pointees(p.Y)...)
	case *minic.Cast:
		return e.pointees(p.X)
	}
	// Fallback: all pointees of any identifier inside.
	var out []*minic.Symbol
	for _, id := range minic.Idents(p) {
		if id.Sym != nil && id.Sym.Kind != minic.SymFunc {
			out = append(out, e.Pts.PointsTo(id.Sym)...)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Per-CFG-node use/def sets

// NodeEffects are the data-flow facts of one CFG node.
type NodeEffects struct {
	// Use is every symbol the node may read.
	Use SymSet
	// Def is the set of strongly (definitely, killing) defined symbols.
	Def SymSet
	// MayDef is the set of possibly-defined symbols (array elements,
	// pointer stores, callee mods): gen without kill.
	MayDef SymSet
}

// NodeEffectsOf computes use/def/maydef facts for a CFG node.
func (e *Effects) NodeEffectsOf(n *cfg.Node) *NodeEffects {
	ne := &NodeEffects{Use: SymSet{}, Def: SymSet{}, MayDef: SymSet{}}
	switch n.Kind {
	case cfg.NEntry, cfg.NExit, cfg.NJoin:
		return ne
	case cfg.NCond, cfg.NPost:
		e.exprFacts(n.Expr, ne)
		return ne
	}
	switch s := n.Stmt.(type) {
	case *minic.DeclStmt:
		for _, d := range s.Decls {
			if d.Init != nil {
				e.exprFacts(d.Init, ne)
				ne.Def.Add(d.Sym)
			}
			if d.InitList != nil {
				for _, x := range d.InitList {
					e.exprFacts(x, ne)
				}
				ne.Def.Add(d.Sym) // whole-array init is a strong def
			}
		}
	case *minic.ExprStmt:
		e.exprFacts(s.X, ne)
	case *minic.ReturnStmt:
		if s.X != nil {
			e.exprFacts(s.X, ne)
		}
	case *minic.ReuseRegion:
		for _, in := range s.Inputs {
			e.exprFacts(in, ne)
		}
		for _, out := range s.Outputs {
			e.writeFacts(out, ne, true)
		}
	case *minic.BreakStmt, *minic.ContinueStmt, *minic.EmptyStmt:
	}
	return ne
}

// exprFacts walks an expression collecting reads, writes and call effects.
func (e *Effects) exprFacts(x minic.Expr, ne *NodeEffects) {
	switch x := x.(type) {
	case nil:
		return
	case *minic.IntLit, *minic.FloatLit, *minic.StrLit, *minic.SizeofExpr:
		return
	case *minic.Ident:
		if x.Sym != nil && x.Sym.Kind != minic.SymFunc {
			ne.Use.Add(x.Sym)
		}
	case *minic.Unary:
		if x.Op == minic.Star {
			e.exprFacts(x.X, ne)
			for _, sym := range e.pointees(x.X) {
				ne.Use.Add(sym)
			}
			return
		}
		if x.Op == minic.Amp {
			// Taking an address is not a read of the object, but the
			// base expression's index computations are evaluated.
			e.addrFacts(x.X, ne)
			return
		}
		e.exprFacts(x.X, ne)
	case *minic.IncDec:
		e.writeFacts(x.X, ne, false)
		e.exprFacts(x.X, ne)
	case *minic.Binary:
		e.exprFacts(x.X, ne)
		e.exprFacts(x.Y, ne)
	case *minic.AssignExpr:
		e.exprFacts(x.RHS, ne)
		strong := x.Op == minic.Assign
		e.writeFacts(x.LHS, ne, strong)
		if !strong {
			e.exprFacts(x.LHS, ne) // compound assignment reads the target
		} else {
			// Index/deref targets still evaluate their address parts.
			e.addrFacts(x.LHS, ne)
		}
	case *minic.Cond:
		e.exprFacts(x.Cond, ne)
		e.exprFacts(x.Then, ne)
		e.exprFacts(x.Else, ne)
	case *minic.Call:
		for _, a := range x.Args {
			e.exprFacts(a, ne)
		}
		if id, ok := x.Fun.(*minic.Ident); ok && id.Sym != nil && id.Sym.Kind == minic.SymFunc {
			// Direct call (or builtin: no effects).
			if id.Sym.FuncDecl != nil {
				mr := e.FuncModRef(id.Sym.FuncDecl)
				ne.Use.AddAll(mr.Ref)
				ne.MayDef.AddAll(mr.Mod)
			}
			return
		}
		e.exprFacts(x.Fun, ne)
		for _, callee := range e.Pts.CallTargets(x) {
			mr := e.FuncModRef(callee)
			ne.Use.AddAll(mr.Ref)
			ne.MayDef.AddAll(mr.Mod)
		}
	case *minic.Index:
		e.exprFacts(x.X, ne)
		e.exprFacts(x.Idx, ne)
		e.indexBaseEffect(x, ne.Use)
	case *minic.FieldExpr:
		if x.Arrow {
			e.exprFacts(x.X, ne)
			e.derefEffect(x.X, ne.Use)
		} else {
			e.exprFacts(x.X, ne)
		}
	case *minic.Cast:
		e.exprFacts(x.X, ne)
	}
}

// addrFacts records the evaluation of an lvalue's address computation
// (index expressions, pointer bases) without reading the object itself.
func (e *Effects) addrFacts(lv minic.Expr, ne *NodeEffects) {
	switch lv := lv.(type) {
	case *minic.Ident:
		return
	case *minic.Index:
		e.exprFacts(lv.Idx, ne)
		switch base := lv.X.(type) {
		case *minic.Ident:
			if base.Sym != nil {
				if _, isArr := base.Sym.Type.(*minic.Array); !isArr {
					ne.Use.Add(base.Sym) // reading the pointer itself
				}
			}
		case *minic.Index:
			// Multi-dimensional store: the inner index is still address
			// computation, not a read of the array.
			e.addrFacts(base, ne)
		case *minic.FieldExpr:
			e.addrFacts(base, ne)
		default:
			e.exprFacts(lv.X, ne)
		}
	case *minic.FieldExpr:
		if lv.Arrow {
			e.exprFacts(lv.X, ne)
		} else {
			e.addrFacts(lv.X, ne)
		}
	case *minic.Unary:
		if lv.Op == minic.Star {
			e.exprFacts(lv.X, ne)
		}
	}
}

// writeFacts records a write to an lvalue. strong marks killing writes
// (whole-variable scalar assignment).
func (e *Effects) writeFacts(lv minic.Expr, ne *NodeEffects, strong bool) {
	switch lv := lv.(type) {
	case *minic.Ident:
		if lv.Sym == nil {
			return
		}
		if strong && !minic.IsAggregate(lv.Sym.Type) {
			ne.Def.Add(lv.Sym)
		} else {
			ne.MayDef.Add(lv.Sym)
		}
	case *minic.Index:
		e.addrFacts(lv, ne)
		e.indexBaseEffect(lv, ne.MayDef)
	case *minic.FieldExpr:
		if lv.Arrow {
			e.exprFacts(lv.X, ne)
			e.derefEffect(lv.X, ne.MayDef)
		} else {
			// x.f = v: a partial write of x.
			root := lv.X
			for {
				if f, ok := root.(*minic.FieldExpr); ok && !f.Arrow {
					root = f.X
					continue
				}
				break
			}
			if id, ok := root.(*minic.Ident); ok && id.Sym != nil {
				ne.MayDef.Add(id.Sym)
			} else {
				e.writeFacts(root, ne, false)
			}
		}
	case *minic.Unary:
		if lv.Op == minic.Star {
			e.exprFacts(lv.X, ne)
			e.derefEffect(lv.X, ne.MayDef)
		}
	}
}
