package interp

import (
	"math"
	"strconv"

	"compreuse/internal/minic"
)

type (
	expr func(fr *Seg) Value
	stmt func(fr *Seg) ctrl
	lval func(fr *Seg) Ptr
)

// ctrl is the statement-level control-flow outcome.
type ctrl int

const (
	cNone ctrl = iota
	cCont
	cBreak
	cRet
)

// exitLoop maps a loop body's break or return to the loop's own outcome.
var exitLoop = [...]ctrl{cBreak: cNone, cRet: cRet}

// function is a lowered FuncDecl. Function values point at its code
// segment. Frames no pointer can outlive (no &local, no aggregate local)
// are recycled through free.
type function struct {
	decl    *minic.FuncDecl
	code    *Seg
	body    stmt // nil until the first call lowers it
	convs   []conv
	ret     conv
	recycle bool
	free    []*Seg
}

func (mc *Machine) function(fd *minic.FuncDecl) *function {
	f := mc.funcs[fd]
	if f == nil {
		f = &function{decl: fd, ret: convOf(fd.Ret)}
		f.code = &Seg{name: fd.Name, fn: f}
		for _, p := range fd.Params {
			f.convs = append(f.convs, convOf(p.Type))
		}
		mc.funcs[fd] = f
	}
	return f
}

func (f *function) frame() *Seg {
	if n := len(f.free); n > 0 {
		fr := f.free[n-1]
		f.free = f.free[:n-1]
		clear(fr.data)
		return fr
	}
	return &Seg{data: make([]Value, f.decl.FrameWords), name: f.decl.Name}
}

// call evaluates args straight into a fresh callee frame and enters f;
// charges only add up, so parameter stores may precede the call's own.
func (mc *Machine) call(f *function, args []expr, fr *Seg, pos minic.Pos) Value {
	nf := f.frame()
	for i, a := range args {
		mc.param(f, nf, i, a(fr))
	}
	return mc.enter(f, nf, pos)
}

func (mc *Machine) param(f *function, fr *Seg, i int, v Value) {
	fr.data[f.decl.Params[i].Sym.Slot] = f.convs[i].do(v)
	mc.chargeStore()
}

// enter runs f on frame fr, whose parameters are stored.
func (mc *Machine) enter(f *function, fr *Seg, pos minic.Pos) Value {
	fd := f.decl
	if fd.Body == nil {
		panic(rtErr(pos, "call of undefined function %s", fd.Name))
	}
	if mc.depth++; mc.depth > mc.maxDep {
		panic(rtErr(pos, "call stack overflow in %s (depth %d)", fd.Name, mc.maxDep))
	}
	mc.charge(mc.m.Call)
	mc.ops.Calls++
	mc.countNode(fd.ID())
	if f.body == nil {
		mc.escapes = false
		f.body = mc.lowerStmt(fd.Body)
		f.recycle = !mc.escapes
	}
	c := f.body(fr)
	mc.depth--
	mc.charge(mc.m.Ret)
	// The frame's own return statement has just set retVal; falling off
	// the end yields zero, as C programs assume for main.
	ret := Value{}
	if c == cRet {
		ret = mc.retVal
	}
	if f.recycle {
		f.free = append(f.free, fr)
	}
	return f.ret.do(ret)
}

// lowerStmt and lowerExpr lower an absent (nil) node to nil.
func (mc *Machine) lowerStmt(s minic.Stmt) stmt {
	if s == nil {
		return nil
	}
	st := mc.lowerStmtNode(s)
	if mc.wt != nil {
		if ws := mc.wt.stmts[s]; ws != nil {
			st = mc.watchedStmt(st, ws)
		}
	}
	return st
}

func (mc *Machine) lowerStmtNode(s minic.Stmt) stmt {
	pos := s.Pos()
	switch s := s.(type) {
	case *minic.Block:
		list := make([]stmt, len(s.Stmts))
		for i, st := range s.Stmts {
			list[i] = mc.lowerStmt(st)
		}
		if mc.wt != nil {
			if runs := mc.wt.runs[s]; runs != nil {
				return mc.watchedBlock(pos, list, runs)
			}
		}
		return func(fr *Seg) ctrl {
			mc.step(pos)
			for _, st := range list {
				if c := st(fr); c != cNone {
					return c
				}
			}
			return cNone
		}
	case *minic.DeclStmt:
		decls := make([]func(*Seg), len(s.Decls))
		for i, d := range s.Decls {
			decls[i] = mc.lowerDecl(d)
		}
		st := func(fr *Seg) ctrl {
			mc.step(pos)
			for _, d := range decls {
				d(fr)
			}
			return cNone
		}
		if mc.wt != nil {
			return mc.watchedDecl(st, s)
		}
		return st
	case *minic.ExprStmt:
		x := mc.lowerExpr(s.X)
		return func(fr *Seg) ctrl { mc.step(pos); x(fr); return cNone }
	case *minic.IfStmt:
		cond, then, els := mc.lowerExpr(s.Cond), mc.lowerStmt(s.Then), mc.lowerStmt(s.Else)
		thenID, elseID := s.Then.ID(), 0
		if els != nil {
			elseID = s.Else.ID()
		}
		return func(fr *Seg) ctrl {
			mc.step(pos)
			mc.chargeBranch()
			if cond(fr).Truthy() {
				mc.countNode(thenID)
				return then(fr)
			}
			if els == nil {
				return cNone
			}
			mc.countNode(elseID)
			return els(fr)
		}
	case *minic.WhileStmt:
		return mc.loop(pos, nil, mc.lowerExpr(s.Cond), nil, mc.lowerStmt(s.Body), s.ID(), s.DoWhile)
	case *minic.ForStmt:
		init, cond, post := mc.lowerStmt(s.Init), mc.lowerExpr(s.Cond), mc.lowerExpr(s.Post)
		return mc.loop(pos, init, cond, post, mc.lowerStmt(s.Body), s.ID(), false)
	case *minic.BreakStmt:
		return func(*Seg) ctrl { mc.step(pos); return cBreak }
	case *minic.ContinueStmt:
		return func(*Seg) ctrl { mc.step(pos); return cCont }
	case *minic.EmptyStmt:
		return func(*Seg) ctrl { mc.step(pos); return cNone }
	case *minic.ReturnStmt:
		if s.X == nil {
			return func(*Seg) ctrl { mc.step(pos); mc.retVal = Value{}; return cRet }
		}
		x := mc.lowerExpr(s.X)
		return func(fr *Seg) ctrl { mc.step(pos); mc.retVal = x(fr); return cRet }
	case *minic.ReuseRegion:
		return mc.lowerRegion(s)
	}
	return func(*Seg) ctrl { mc.step(pos); panic(rtErr(pos, "unhandled statement %T", s)) }
}

// loop runs while, do-while and for loops: a do-while skips its first
// test, and a for without a condition runs until break or return.
func (mc *Machine) loop(pos minic.Pos, init stmt, cond, post expr, body stmt, id int, doWhile bool) stmt {
	return func(fr *Seg) ctrl {
		mc.step(pos)
		if init != nil {
			init(fr)
		}
		for test := !doWhile; ; test = true {
			if test && cond != nil {
				mc.chargeBranch()
				if !cond(fr).Truthy() {
					return cNone
				}
			}
			mc.countNode(id)
			if c := body(fr); c >= cBreak {
				return exitLoop[c]
			}
			if post != nil {
				post(fr)
			}
		}
	}
}

func (mc *Machine) lowerDecl(d *minic.VarDecl) func(*Seg) {
	base, words := d.Sym.Slot, d.Type.Words()
	if minic.IsAggregate(d.Type) {
		mc.escapes = true
	}
	if d.Init != nil {
		x, c := mc.lowerExpr(d.Init), convOf(d.Type)
		return func(fr *Seg) { fr.data[base] = c.do(x(fr)); mc.chargeLocal() }
	}
	// A brace list fills the leading cells and converted zeros the rest;
	// otherwise cells zero-initialize (stricter than C) as float or int.
	et := scalarElem(d.Type)
	xs, c, zero := mc.lowerExprs(d.InitList), convOf(et), IntVal(0)
	if d.InitList != nil {
		zero = c.do(zero)
	} else if minic.IsFloat(et) {
		zero = FloatVal(0)
	}
	return func(fr *Seg) {
		for i, x := range xs {
			fr.data[base+i] = c.do(x(fr))
			mc.chargeStore()
		}
		for i := len(xs); i < words; i++ {
			fr.data[base+i] = zero
		}
	}
}

// hoistedAssignPrice is what the assignment that output-declaration
// hoisting leaves in place of scalar declaration d (x = init, or x = 0
// without an initializer) charges beyond d itself. It runs both
// lowerings on a scratch frame, a literal standing in for the
// initializer they share, so the price is lowerDecl's and lowerAssign's.
func (mc *Machine) hoistedAssignPrice(d *minic.VarDecl) (int64, OpCounts) {
	lit, decl := &minic.IntLit{}, *d
	if d.Init != nil {
		decl.Init = lit
	}
	declare := mc.lowerDecl(&decl)
	assign := mc.lowerAssign(&minic.AssignExpr{Op: minic.Assign, LHS: minic.Ref(d.Sym, nil), RHS: lit})
	fr := &Seg{data: make([]Value, d.Sym.Slot+1)}
	cycles, ops, dw := mc.cycles, mc.ops, mc.depWatch
	mc.depWatch = nil
	measure := func(run func()) (int64, OpCounts) {
		c, o := mc.cycles, mc.ops
		run()
		delta := mc.ops
		delta.sub(o)
		return mc.cycles - c, delta
	}
	declCycles, declOps := measure(func() { declare(fr) })
	price, priceOps := measure(func() { assign(fr) })
	priceOps.sub(declOps)
	mc.cycles, mc.ops, mc.depWatch = cycles, ops, dw
	return price - declCycles, priceOps
}

func (mc *Machine) lowerExprs(es []minic.Expr) []expr {
	out := make([]expr, len(es))
	for i, e := range es {
		out[i] = mc.lowerExpr(e)
	}
	return out
}

// constant charges one IntALU op for a literal-like node.
func (mc *Machine) constant(v Value) expr {
	return func(*Seg) Value { mc.chargeInt(); return v }
}

func (mc *Machine) lowerExpr(e minic.Expr) expr {
	if e == nil {
		return nil
	}
	pos := e.Pos()
	switch e := e.(type) {
	case *minic.IntLit:
		return mc.constant(IntVal(e.Val))
	case *minic.FloatLit:
		return mc.constant(FloatVal(e.Val))
	case *minic.StrLit:
		return mc.constant(IntVal(0))
	case *minic.SizeofExpr:
		return mc.constant(IntVal(int64(e.T.Bytes())))
	case *minic.Ident:
		return mc.lowerIdent(e.Sym)
	case *minic.Unary:
		return mc.lowerUnary(e)
	case *minic.IncDec:
		return mc.lowerIncDec(e)
	case *minic.Binary:
		return mc.lowerBinary(e)
	case *minic.AssignExpr:
		return mc.lowerAssign(e)
	case *minic.Call:
		return mc.lowerCall(e)
	case *minic.Index, *minic.FieldExpr:
		return mc.lowerLoad(e)
	case *minic.Cond:
		cond, then, els := mc.lowerExpr(e.Cond), mc.lowerExpr(e.Then), mc.lowerExpr(e.Else)
		return func(fr *Seg) Value {
			mc.chargeBranch()
			if cond(fr).Truthy() {
				return then(fr)
			}
			return els(fr)
		}
	case *minic.Cast:
		x, c, from := mc.lowerExpr(e.X), convOf(e.To), e.X.Type()
		if minic.IsArith(e.To) && minic.IsArith(from) && !minic.Identical(e.To, from) {
			return func(fr *Seg) Value { v := x(fr); mc.charge(mc.m.Conv); mc.ops.IntOps++; return c.do(v) }
		}
		return func(fr *Seg) Value { return c.do(x(fr)) }
	}
	return func(*Seg) Value { panic(rtErr(pos, "unhandled expression %T", e)) }
}

// lowerIdent reads a variable's slot; an aggregate decays to its address.
func (mc *Machine) lowerIdent(sym *minic.Symbol) expr {
	slot, g := sym.Slot, mc.globals
	switch {
	case sym.Kind == minic.SymFunc && sym.FuncDecl == nil:
		return mc.constant(Value{K: KFunc})
	case sym.Kind == minic.SymFunc:
		return mc.constant(Value{K: KFunc, seg: mc.function(sym.FuncDecl).code})
	case minic.IsAggregate(sym.Type) && sym.Kind == minic.SymGlobal:
		return mc.constant(ptrVal(Ptr{seg: g, off: slot}))
	case minic.IsAggregate(sym.Type):
		return func(fr *Seg) Value { mc.chargeInt(); return ptrVal(Ptr{seg: fr, off: slot}) }
	case sym.Kind == minic.SymGlobal:
		return func(*Seg) Value { mc.chargeLoad(); return mc.read(g, slot) }
	}
	return func(fr *Seg) Value { mc.chargeLocal(); return mc.read(fr, slot) }
}

// lowerLoad reads a scalar lvalue; an aggregate decays to its address.
func (mc *Machine) lowerLoad(e minic.Expr) expr {
	lv, pos := mc.lowerLValue(e), e.Pos()
	if minic.IsAggregate(e.Type()) {
		return func(fr *Seg) Value {
			p := lv(fr)
			if p.seg == nil {
				panic(rtErr(pos, "null pointer dereference"))
			}
			mc.chargeInt()
			return ptrVal(p)
		}
	}
	return func(fr *Seg) Value { return mc.load(lv(fr), pos) }
}

func (mc *Machine) lowerUnary(e *minic.Unary) expr {
	pos := e.Pos()
	switch e.Op {
	case minic.Amp:
		// &local lets the frame escape (aggregate locals already do).
		if id, ok := e.X.(*minic.Ident); ok && id.Sym.Kind != minic.SymGlobal {
			mc.escapes = true
		}
		lv := mc.lowerLValue(e.X)
		return func(fr *Seg) Value { return ptrVal(lv(fr)) }
	case minic.Star:
		return mc.lowerLoad(e)
	case minic.Plus:
		return mc.lowerExpr(e.X)
	}
	x := mc.lowerExpr(e.X)
	switch e.Op {
	case minic.Not:
		return func(fr *Seg) Value { v := x(fr); mc.chargeInt(); return boolVal(!v.Truthy()) }
	case minic.Tilde:
		return func(fr *Seg) Value { v := x(fr); mc.chargeInt(); return IntVal(^v.ival()) }
	case minic.Minus:
		return func(fr *Seg) Value {
			v := x(fr)
			if v.K == KFloat {
				mc.chargeFloat(mc.m.FloatAdd)
				return FloatVal(-v.float())
			}
			mc.chargeInt()
			return IntVal(-v.ival())
		}
	}
	return func(*Seg) Value { panic(rtErr(pos, "unhandled unary %v", e.Op)) }
}

// read loads an in-bounds cell whose access the caller has charged.
func (mc *Machine) read(seg *Seg, off int) Value {
	v := seg.data[off]
	if mc.depWatch != nil {
		mc.depWatch.onRead(seg, off, v)
	}
	return v
}

// load reads the scalar at p.
func (mc *Machine) load(p Ptr, pos minic.Pos) Value {
	if p.seg == nil {
		panic(rtErr(pos, "null pointer dereference"))
	}
	if p.off < 0 || p.off >= len(p.seg.data) {
		panic(rtErr(pos, "out-of-bounds access: %s[%d] (size %d)", p.seg.name, p.off, len(p.seg.data)))
	}
	mc.chargeLoad()
	return mc.read(p.seg, p.off)
}

func (mc *Machine) storePtr(p Ptr, v Value, pos minic.Pos) {
	if p.seg == nil {
		panic(rtErr(pos, "store through null pointer"))
	}
	if p.off < 0 || p.off >= len(p.seg.data) {
		panic(rtErr(pos, "out-of-bounds store: %s[%d] (size %d)", p.seg.name, p.off, len(p.seg.data)))
	}
	mc.chargeStore()
	if mc.depWatch != nil {
		mc.depWatch.onWrite(p.seg, p.off)
	}
	p.seg.data[p.off] = v
}

// lowerLValue computes the cell address designated by e.
func (mc *Machine) lowerLValue(e minic.Expr) lval {
	pos := e.Pos()
	switch e := e.(type) {
	case *minic.Ident:
		slot := e.Sym.Slot
		if e.Sym.Kind == minic.SymGlobal {
			p := Ptr{seg: mc.globals, off: slot}
			return func(*Seg) Ptr { return p }
		}
		return func(fr *Seg) Ptr { return Ptr{seg: fr, off: slot} }
	case *minic.Index:
		return mc.lowerIndex(e)
	case *minic.FieldExpr:
		var base lval
		if e.Arrow {
			base = mc.pointee(e.X, pos, "-> on non-pointer value")
		} else {
			base = mc.lowerLValue(e.X)
		}
		off := e.Info.WordOff
		return func(fr *Seg) Ptr {
			b := base(fr)
			if b.seg == nil {
				panic(rtErr(pos, "field access through null pointer"))
			}
			mc.chargeInt()
			return Ptr{seg: b.seg, off: b.off + off}
		}
	case *minic.Unary:
		if e.Op == minic.Star {
			return mc.pointee(e.X, pos, "dereference of non-pointer value")
		}
	}
	return func(*Seg) Ptr { panic(rtErr(pos, "not an lvalue: %T", e)) }
}

// lowerIndex addresses x[i]; a named array decays for one IntALU op.
func (mc *Machine) lowerIndex(e *minic.Index) lval {
	ew, idx, pos := minic.ElemOf(e.X.Type()).Words(), mc.lowerExpr(e.Idx), e.Pos()
	if id, ok := e.X.(*minic.Ident); ok && minic.IsAggregate(id.Sym.Type) {
		slot, g, global := id.Sym.Slot, mc.globals, id.Sym.Kind == minic.SymGlobal
		return func(fr *Seg) Ptr {
			mc.chargeInt()
			i := idx(fr)
			mc.chargeInt() // address arithmetic
			if global {
				fr = g
			}
			return Ptr{seg: fr, off: slot + int(i.ival())*ew}
		}
	}
	base := mc.pointee(e.X, pos, "indexing a non-pointer value")
	return func(fr *Seg) Ptr {
		b := base(fr)
		i := idx(fr)
		mc.chargeInt() // address arithmetic
		return Ptr{seg: b.seg, off: b.off + int(i.ival())*ew}
	}
}

// pointee evaluates x, which must yield a pointer, to the address it holds.
func (mc *Machine) pointee(x minic.Expr, pos minic.Pos, fault string) lval {
	v := mc.lowerExpr(x)
	return func(fr *Seg) Ptr {
		p := v(fr)
		if p.K != KPtr {
			panic(rtErr(pos, "%s", fault))
		}
		return p.ptr()
	}
}

// lowerIncDec lowers ++/-- as an unconverted update by one whose pointer
// stride is the raw element width.
func (mc *Machine) lowerIncDec(e *minic.IncDec) expr {
	b := &binop{op: minic.Plus}
	if e.Op == minic.Dec {
		b.op = minic.Minus
	}
	if el := minic.ElemOf(e.X.Type()); el != nil {
		b.xw = int64(el.Words())
	}
	one := func(*Seg) Value { return IntVal(1) }
	return mc.update(mc.lowerLValue(e.X), one, b, convNone, e.Pos(), e.Post, minic.IsInt(e.X.Type()))
}

// binop is a binary operator with its operands' pointer strides resolved.
type binop struct {
	op     minic.TokKind
	pos    minic.Pos
	xw, yw int64
}

func newBinop(op minic.TokKind, x, y minic.Type, pos minic.Pos) *binop {
	return &binop{op: op, pos: pos, xw: ptrElemWords(x), yw: ptrElemWords(y)}
}

func ptrElemWords(t minic.Type) int64 {
	if elem := minic.ElemOf(t); elem != nil && elem.Words() != 0 {
		return int64(elem.Words())
	}
	return 1
}

func (mc *Machine) lowerBinary(e *minic.Binary) expr {
	x, y := mc.lowerExpr(e.X), mc.lowerExpr(e.Y)
	switch e.Op {
	case minic.AndAnd:
		return func(fr *Seg) Value { mc.chargeBranch(); return boolVal(x(fr).Truthy() && y(fr).Truthy()) }
	case minic.OrOr:
		return func(fr *Seg) Value { mc.chargeBranch(); return boolVal(x(fr).Truthy() || y(fr).Truthy()) }
	}
	b := newBinop(e.Op, e.X.Type(), e.Y.Type(), e.Pos())
	if !minic.IsInt(e.X.Type()) || !minic.IsInt(e.Y.Type()) {
		return func(fr *Seg) Value { return mc.binary(b, x(fr), y(fr)) }
	}
	lit, folded := e.Y.(*minic.IntLit)
	return func(fr *Seg) Value {
		a, c := x(fr), Value{}
		if folded {
			mc.chargeInt() // the literal operand, evaluated in place
			c = IntVal(lit.Val)
		} else {
			c = y(fr)
		}
		if a.K|c.K == KInt {
			return mc.intBinary(b.op, a.n, c.n, b.pos)
		}
		return mc.binary(b, a, c)
	}
}

// binary applies b to evaluated operands by their dynamic kinds.
func (mc *Machine) binary(b *binop, x, y Value) Value {
	if x.K == KPtr || y.K == KPtr {
		return mc.ptrBinary(b, x, y)
	}
	if x.K != KFloat && y.K != KFloat {
		return mc.intBinary(b.op, x.n, y.n, b.pos)
	}
	a, c := x.fval(), y.fval()
	if x.K == KInt {
		a = float64(x.n)
	}
	if y.K == KInt {
		c = float64(y.n)
	}
	switch b.op {
	case minic.Plus:
		mc.chargeFloat(mc.m.FloatAdd)
		return FloatVal(a + c)
	case minic.Minus:
		mc.chargeFloat(mc.m.FloatAdd)
		return FloatVal(a - c)
	case minic.Star:
		mc.chargeFloat(mc.m.FloatMul)
		return FloatVal(a * c)
	case minic.Slash:
		mc.chargeFloat(mc.m.FloatDiv)
		if c == 0 && a < 0 {
			return FloatVal(math.Inf(-1))
		} else if c == 0 {
			return FloatVal(math.Inf(1))
		}
		return FloatVal(a / c)
	case minic.Lt, minic.Gt, minic.Le, minic.Ge, minic.EqEq, minic.NotEq:
		mc.chargeFloat(mc.m.FloatCmp)
		return boolVal(compare(b.op, a, c))
	}
	panic(rtErr(b.pos, "invalid float operation %v", b.op))
}

func (mc *Machine) intBinary(op minic.TokKind, a, b int64, pos minic.Pos) Value {
	switch op {
	case minic.Star:
		mc.chargeMul()
		return IntVal(a * b)
	case minic.Slash, minic.Percent:
		mc.chargeDiv()
		switch {
		case b != 0 && op == minic.Slash:
			return IntVal(a / b)
		case b != 0:
			return IntVal(a % b)
		case op == minic.Slash:
			panic(rtErr(pos, "integer division by zero"))
		}
		panic(rtErr(pos, "integer modulo by zero"))
	}
	mc.chargeInt()
	switch op {
	case minic.Plus:
		return IntVal(a + b)
	case minic.Minus:
		return IntVal(a - b)
	case minic.Shl:
		return IntVal(a << uint(b&63))
	case minic.Shr:
		return IntVal(a >> uint(b&63))
	case minic.Amp:
		return IntVal(a & b)
	case minic.Pipe:
		return IntVal(a | b)
	case minic.Caret:
		return IntVal(a ^ b)
	case minic.Lt, minic.Gt, minic.Le, minic.Ge, minic.EqEq, minic.NotEq:
		return boolVal(compare(op, a, b))
	}
	panic(rtErr(pos, "unhandled binary operator %v", op))
}

func (mc *Machine) ptrBinary(b *binop, x, y Value) Value {
	mc.chargeInt()
	switch b.op {
	case minic.Plus, minic.Minus:
		if x.K == KPtr && y.K == KInt {
			d := y.n * b.xw
			if b.op == minic.Minus {
				d = -d
			}
			return Value{K: KPtr, n: x.n + d, seg: x.seg}
		}
		if y.K == KPtr && x.K == KInt && b.op == minic.Plus {
			return Value{K: KPtr, n: y.n + x.n*b.yw, seg: y.seg}
		}
		if x.K == KPtr && y.K == KPtr && b.op == minic.Minus {
			if x.seg != y.seg {
				panic(rtErr(b.pos, "subtraction of pointers into different objects"))
			}
			return IntVal((x.n - y.n) / b.xw)
		}
	case minic.EqEq, minic.NotEq:
		// A non-pointer operand is the null constant 0.
		if x.K != KPtr {
			x = Value{K: KPtr}
		}
		if y.K != KPtr {
			y = Value{K: KPtr}
		}
		same := x.seg == y.seg && (x.seg == nil || x.n == y.n)
		return boolVal(same == (b.op == minic.EqEq))
	case minic.Lt, minic.Gt, minic.Le, minic.Ge:
		if x.K == KPtr && y.K == KPtr && x.seg == y.seg {
			return boolVal(compare(b.op, x.n, y.n))
		}
		panic(rtErr(b.pos, "relational comparison of unrelated pointers"))
	}
	panic(rtErr(b.pos, "invalid pointer operation %v", b.op))
}

func compare[T int64 | float64](op minic.TokKind, a, b T) bool {
	switch op {
	case minic.Lt:
		return a < b
	case minic.Gt:
		return a > b
	case minic.Le:
		return a <= b
	case minic.Ge:
		return a >= b
	case minic.EqEq:
		return a == b
	}
	return a != b
}

func boolVal(b bool) Value {
	if b {
		return IntVal(1)
	}
	return IntVal(0)
}

var compoundOps = map[minic.TokKind]minic.TokKind{
	minic.PlusEq: minic.Plus, minic.MinusEq: minic.Minus, minic.StarEq: minic.Star,
	minic.SlashEq: minic.Slash, minic.PercentEq: minic.Percent, minic.ShlEq: minic.Shl,
	minic.ShrEq: minic.Shr, minic.AndEq: minic.Amp, minic.OrEq: minic.Pipe, minic.XorEq: minic.Caret,
}

func (mc *Machine) lowerAssign(e *minic.AssignExpr) expr {
	lt, pos := e.LHS.Type(), e.Pos()
	rhs, c := mc.lowerExpr(e.RHS), convOf(lt)
	lv := mc.lowerLValue(e.LHS)
	if e.Op != minic.Assign {
		// A compound assignment faults without a position, like the
		// synthesized l = l op r it stands for.
		b := newBinop(compoundOps[e.Op], lt, e.RHS.Type(), minic.Pos{})
		return mc.update(lv, rhs, b, c, pos, false, minic.IsInt(lt) && minic.IsInt(e.RHS.Type()))
	}
	if st, ok := lt.(*minic.Struct); ok {
		n := st.Words()
		return func(fr *Seg) Value {
			p, r := lv(fr), rhs(fr)
			if r.K != KPtr {
				panic(rtErr(pos, "struct assignment from non-aggregate"))
			}
			for i := 0; i < n; i++ {
				src := mc.load(Ptr{seg: r.seg, off: int(r.n) + i}, pos)
				mc.storePtr(Ptr{seg: p.seg, off: p.off + i}, src, pos)
			}
			return r
		}
	}
	return func(fr *Seg) Value {
		p := lv(fr)
		v := c.do(rhs(fr))
		mc.storePtr(p, v, pos)
		return v
	}
}

// update stores c(*lv op rhs) back into *lv, yielding the old value when
// post is set; ints selects the guarded int/int fast path.
func (mc *Machine) update(lv lval, rhs expr, b *binop, c conv, pos minic.Pos, post, ints bool) expr {
	return func(fr *Seg) Value {
		p := lv(fr)
		old := mc.load(p, pos)
		r := rhs(fr)
		var nv Value
		if ints && old.K|r.K == KInt {
			nv = mc.intBinary(b.op, old.n, r.n, b.pos)
		} else {
			nv = mc.binary(b, old, r)
		}
		nv = c.do(nv)
		mc.storePtr(p, nv, pos)
		if post {
			return old
		}
		return nv
	}
}

func (mc *Machine) lowerCall(e *minic.Call) expr {
	pos := e.Pos()
	id, named := e.Fun.(*minic.Ident)
	if named && id.Sym != nil && id.Sym.Kind == minic.SymFunc && id.Sym.FuncDecl == nil {
		return mc.lowerBuiltin(e, id.Name)
	}
	args := mc.lowerExprs(e.Args)
	if named && id.Sym.Kind == minic.SymFunc {
		// A direct call still charges the IntALU op of its designator.
		f := mc.function(id.Sym.FuncDecl)
		return func(fr *Seg) Value { mc.chargeInt(); return mc.call(f, args, fr, pos) }
	}
	fun := mc.lowerExpr(e.Fun)
	return func(fr *Seg) Value {
		fv := fun(fr)
		if fv.K != KFunc || fv.seg == nil {
			panic(rtErr(pos, "call of non-function value"))
		}
		return mc.call(fv.seg.fn, args, fr, pos)
	}
}

func (mc *Machine) lowerBuiltin(e *minic.Call, name string) expr {
	pos, arg := e.Pos(), mc.lowerExpr(e.Args[0])
	return func(fr *Seg) Value {
		mc.charge(mc.m.Call)
		mc.ops.Calls++
		switch name {
		case "print_int":
			mc.out.WriteString(strconv.FormatInt(convInt.do(arg(fr)).n, 10))
		case "print_float":
			// %.6g keeps output stable across O-levels with differing
			// rounding of the same computation.
			mc.out.WriteString(strconv.FormatFloat(convFloat.do(arg(fr)).float(), 'g', 6, 64))
		case "print_str":
			mc.out.WriteString(e.Args[0].(*minic.StrLit).Val)
		case "__assert":
			if !arg(fr).Truthy() {
				panic(rtErr(pos, "assertion failed"))
			}
			return Value{}
		default:
			panic(rtErr(pos, "unknown builtin %s", name))
		}
		mc.out.WriteByte('\n')
		return Value{}
	}
}
