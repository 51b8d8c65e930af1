package interp

import (
	"math"
	"strconv"

	"compreuse/internal/minic"
)

//go:generate go run gen_ops.go

type (
	expr func(fr *Seg) Value
	stmt func(fr *Seg) ctrl
	// update applies a compound assignment's operator (or ++/--'s) to the
	// value loaded from its target, evaluating the right operand itself.
	update func(fr *Seg, old Value) Value
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
	params  []param
	ret     conv
	recycle bool
	free    []*Seg
}

// param is a parameter's frame slot and assignment conversion.
type param struct {
	slot int
	conv conv
}

func (mc *Machine) function(fd *minic.FuncDecl) *function {
	f := mc.funcs[fd]
	if f == nil {
		f = &function{decl: fd, ret: convOf(fd.Ret)}
		f.code = &Seg{name: fd.Name, fn: f}
		for _, p := range fd.Params {
			f.params = append(f.params, param{slot: p.Sym.Slot, conv: convOf(p.Type)})
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
	p := &f.params[i]
	fr.data[p.slot] = p.conv.do(v)
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

// price is the static charge of lowered code: the cycles and op counts
// it costs on every evaluation, whatever the values. The op counts are
// packed in lanes, one per class, so that paying a price is two
// additions.
type price struct {
	cycles int64
	lanes  uint64
}

// laneBits is the width of one class's lane; the lanes hold IntOps,
// MulOps, DivOps, FloatOps, MemOps and Branches, from the low bits up. A
// lane of the machine's pending counts stays below half its range, as
// does every price paid, so their sum never carries into the next lane.
const laneBits = 10

const (
	laneIntOps uint64 = 1 << (iota * laneBits)
	laneMulOps
	laneDivOps
	laneFloatOps
	laneMemOps
	laneBranches
)

// laneHalf has the top bit of every lane set: a lane at half its range.
// laneFold has the top three bits of every lane set: lowering folds
// prices only below an eighth of the range, so that a statement adding
// a few more units to one still pays less than half.
const (
	laneHalf = (laneIntOps | laneMulOps | laneDivOps | laneFloatOps | laneMemOps | laneBranches) << (laneBits - 1)
	laneFold = laneHalf | laneHalf>>1 | laneHalf>>2
)

func (p *price) add(q price) { p.cycles += q.cycles; p.lanes += q.lanes }

// folds reports whether p is small enough to fold into a larger price.
func (p price) folds() bool { return p.lanes&laneFold == 0 }

// unpack returns the op counts packed in l.
func unpack(l uint64) OpCounts {
	return OpCounts{IntOps: lane(l, 0), MulOps: lane(l, 1), DivOps: lane(l, 2),
		FloatOps: lane(l, 3), MemOps: lane(l, 4), Branches: lane(l, 5)}
}

func lane(l uint64, i int) int64 { return int64(l >> (i * laneBits) & (1<<laneBits - 1)) }

// pay charges p: its op counts go to the pending lanes, which settle
// into mc.ops before a lane reaches half its range.
func (mc *Machine) pay(p *price) {
	mc.cycles += p.cycles
	if mc.pending += p.lanes; mc.pending&laneHalf != 0 {
		mc.settle()
	}
}

// settle adds the pending op counts to mc.ops. A run settles before it
// reports them, and sideRun counts the pending ops of the work it runs.
func (mc *Machine) settle() {
	mc.ops.add(unpack(mc.pending))
	mc.pending = 0
}

// unpay takes back p, which has been paid.
func (mc *Machine) unpay(p *price) {
	mc.cycles -= p.cycles
	mc.ops.sub(unpack(p.lanes))
}

// shape is what an operand is, for consumers that read it in place
// instead of calling its closure.
type shape uint8

const (
	shExpr  shape = iota // any other expression
	shLocal              // the value of scalar frame cell slot
	shLit                // the constant val
	shCell               // the address of frame cell slot
	shElem               // the address of elem: a[i], i a local
	shRow                // the address of elem, an aggregate of a named array
)

// operand is a lowered expression: eval computes it and pays what
// depends on the run, and price is the rest, which whoever evaluates it
// pays once. An operand that holds a call pays its whole price as it
// runs, so that no charge crosses the call, and so does one whose price
// would not fold: its price is zero and inPlace is set. An lvalue lowers
// to the operand of its address.
type operand struct {
	eval    expr
	price   price
	inPlace bool
	shape   shape
	slot    int
	val     Value
	elem    elemRef
}

// elemRef is the element a[i] whose index i is a frame local, and
// whose a is a named array (in seg, or the frame when seg is nil) or, when
// ptr is set, a frame local holding a pointer. When ew2 is not zero the
// element is a row of a named array indexed once more, a[i][j], by the
// frame local idx2.
type elemRef struct {
	base, idx, ew int
	idx2, ew2     int
	seg           *Seg
	ptr           bool
	pos           minic.Pos
}

// at is the address of r in frame fr; it may be null or out of bounds.
func (mc *Machine) at(r *elemRef, fr *Seg) Ptr {
	if r.ptr {
		at, ok := elemAt(mc.read(fr, r.base), mc.read(fr, r.idx).ival(), r.ew)
		if !ok {
			panic(nonPointer(r.pos))
		}
		return at
	}
	off := r.base + int(mc.read(fr, r.idx).ival())*r.ew
	if r.ew2 != 0 {
		off += int(mc.read(fr, r.idx2).ival()) * r.ew2
	}
	return Ptr{seg: r.array(fr), off: off}
}

// elemAt is element i, of ew words, of the array v points at; it reports
// false, and indexing faults (nonPointer), when v is not a pointer.
func elemAt(v Value, i int64, ew int) (Ptr, bool) {
	if v.K != KPtr {
		return Ptr{}, false
	}
	return Ptr{seg: v.seg, off: int(v.n + i*int64(ew))}, true
}

func nonPointer(pos minic.Pos) *RuntimeError {
	return rtErr(pos, "indexing a non-pointer value")
}

// array is the segment of r's named array.
func (r *elemRef) array(fr *Seg) *Seg {
	if r.seg != nil {
		return r.seg
	}
	return fr
}

// node builds an operand that runs kids, in order, through the closure
// build returns, with an own price of pre (charged before the kids run)
// and post (after them). Call-free kids fold their prices into the
// node's. When a kid pays in place, or the sum would not fold, every
// kid pays its own price as it runs and the closure pays pre and post
// around them.
func (mc *Machine) node(pre, post price, build func() expr, kids ...*operand) operand {
	inPlace := false
	sum := pre
	for _, k := range kids {
		inPlace = inPlace || k.inPlace
		sum.add(k.price)
	}
	if sum.add(post); !inPlace && sum.folds() {
		return operand{eval: build(), price: sum}
	}
	for _, k := range kids {
		*k = operand{eval: mc.paid(*k), inPlace: k.inPlace}
	}
	x := build()
	return operand{inPlace: true, eval: func(fr *Seg) Value {
		mc.pay(&pre)
		v := x(fr)
		mc.pay(&post)
		return v
	}}
}

// paid returns o's closure, paying o's price first. It and the other
// constructors of small closures stay out of line: a closure copied into
// an inlining caller does not get its own calls inlined.
//
//go:noinline
func (mc *Machine) paid(o operand) expr {
	if o.price == (price{}) {
		return o.eval
	}
	x, p := o.eval, o.price
	return func(fr *Seg) Value { mc.pay(&p); return x(fr) }
}

// root lowers e for a consumer that may not evaluate it: the operand
// pays its own price as it runs.
func (mc *Machine) root(e minic.Expr) operand {
	x := mc.operand(e)
	return operand{eval: mc.paid(x), inPlace: x.inPlace}
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
		x := mc.operand(s.X)
		eval, p := x.eval, x.price
		return func(fr *Seg) ctrl { mc.step(pos); mc.pay(&p); eval(fr); return cNone }
	case *minic.IfStmt:
		c, then, els := mc.operand(s.Cond), mc.lowerStmt(s.Then), mc.lowerStmt(s.Else)
		cond, p := c.eval, mc.u.branch
		p.add(c.price)
		thenID, elseID := s.Then.ID(), 0
		if els != nil {
			elseID = s.Else.ID()
		}
		return func(fr *Seg) ctrl {
			mc.step(pos)
			mc.pay(&p)
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
		return mc.loop(pos, nil, mc.operand(s.Cond), operand{}, mc.lowerStmt(s.Body), s.ID(), s.DoWhile)
	case *minic.ForStmt:
		init, cond, post := mc.lowerStmt(s.Init), mc.operand(s.Cond), mc.operand(s.Post)
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
		x := mc.operand(s.X)
		eval, p := x.eval, x.price
		return func(fr *Seg) ctrl { mc.step(pos); mc.pay(&p); mc.retVal = eval(fr); return cRet }
	case *minic.ReuseRegion:
		return mc.lowerRegion(s)
	}
	return func(*Seg) ctrl { mc.step(pos); panic(rtErr(pos, "unhandled statement %T", s)) }
}

// loop runs while, do-while and for loops: a do-while skips its first
// test, and a for without a condition (a zero operand) runs until break
// or return. Each test pays a branch and the condition's price.
//
//go:noinline
func (mc *Machine) loop(pos minic.Pos, init stmt, c, p operand, body stmt, id int, doWhile bool) stmt {
	cond, post, cp, pp := c.eval, p.eval, mc.u.branch, p.price
	cp.add(c.price)
	return func(fr *Seg) ctrl {
		mc.step(pos)
		if init != nil {
			init(fr)
		}
		for test := !doWhile; ; test = true {
			if test && cond != nil {
				mc.pay(&cp)
				if !cond(fr).Truthy() {
					return cNone
				}
			}
			mc.countNode(id)
			if c := body(fr); c >= cBreak {
				return exitLoop[c]
			}
			if post != nil {
				mc.pay(&pp)
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
		x, c := mc.operand(d.Init), convOf(d.Type)
		eval, p := x.eval, mc.initPrice(x)
		return func(fr *Seg) { fr.data[base] = c.do(eval(fr)); mc.pay(&p) }
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

// initPrice is the price of a scalar declaration initialized by x: x's
// own and the store into the frame cell, unwatched and paid after x.
func (mc *Machine) initPrice(x operand) price {
	p := x.price
	p.add(mc.u.local)
	return p
}

// hoistedAssignPrice is what the assignment that output-declaration
// hoisting leaves in place of scalar declaration d (x = init, or x = 0
// without an initializer) charges beyond d itself: the price of the
// assignment less that of the declaration, a literal standing in for the
// initializer they share.
func (mc *Machine) hoistedAssignPrice(d *minic.VarDecl) (int64, OpCounts) {
	lit := &minic.IntLit{}
	p := mc.lowerAssign(&minic.AssignExpr{Op: minic.Assign, LHS: minic.Ref(d.Sym, nil), RHS: lit}).price
	cycles, ops := p.cycles, unpack(p.lanes)
	if d.Init != nil {
		decl := mc.initPrice(mc.operand(lit))
		cycles -= decl.cycles
		ops.sub(unpack(decl.lanes))
	}
	return cycles, ops
}

func (mc *Machine) lowerExprs(es []minic.Expr) []expr {
	out := make([]expr, len(es))
	for i, e := range es {
		out[i] = mc.lowerExpr(e)
	}
	return out
}

func (mc *Machine) lowerExpr(e minic.Expr) expr {
	if e == nil {
		return nil
	}
	return mc.paid(mc.operand(e))
}

// lit is a literal-like node: a constant for one IntALU op.
func (mc *Machine) lit(v Value) operand {
	return operand{eval: func(*Seg) Value { return v }, price: mc.u.alu, shape: shLit, val: v}
}

// operand lowers e; an absent node lowers to the zero operand.
func (mc *Machine) operand(e minic.Expr) operand {
	if e == nil {
		return operand{}
	}
	pos := e.Pos()
	switch e := e.(type) {
	case *minic.IntLit:
		return mc.lit(IntVal(e.Val))
	case *minic.FloatLit:
		return mc.lit(FloatVal(e.Val))
	case *minic.StrLit:
		return mc.lit(IntVal(0))
	case *minic.SizeofExpr:
		return mc.lit(IntVal(int64(e.T.Bytes())))
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
		c, t, f := mc.operand(e.Cond), mc.root(e.Then), mc.root(e.Else)
		return mc.node(mc.u.branch, price{}, func() expr {
			cond, then, els := c.eval, t.eval, f.eval
			return func(fr *Seg) Value {
				if cond(fr).Truthy() {
					return then(fr)
				}
				return els(fr)
			}
		}, &c, &t, &f)
	case *minic.Cast:
		x, c, from := mc.operand(e.X), convOf(e.To), e.X.Type()
		var own price
		if minic.IsArith(e.To) && minic.IsArith(from) && !minic.Identical(e.To, from) {
			own = mc.u.conv
		}
		return mc.node(price{}, own, func() expr {
			xe := x.eval
			return func(fr *Seg) Value { return c.do(xe(fr)) }
		}, &x)
	}
	return operand{eval: func(*Seg) Value { panic(rtErr(pos, "unhandled expression %T", e)) }}
}

// lowerIdent reads a variable's slot; an aggregate decays to its address.
func (mc *Machine) lowerIdent(sym *minic.Symbol) operand {
	slot, g := sym.Slot, mc.globals
	switch {
	case sym.Kind == minic.SymFunc && sym.FuncDecl == nil:
		return mc.lit(Value{K: KFunc})
	case sym.Kind == minic.SymFunc:
		return mc.lit(Value{K: KFunc, seg: mc.function(sym.FuncDecl).code})
	case minic.IsAggregate(sym.Type) && sym.Kind == minic.SymGlobal:
		return mc.lit(ptrVal(Ptr{seg: g, off: slot}))
	case minic.IsAggregate(sym.Type):
		return operand{eval: func(fr *Seg) Value { return ptrVal(Ptr{seg: fr, off: slot}) }, price: mc.u.alu}
	case sym.Kind == minic.SymGlobal:
		return operand{eval: func(*Seg) Value { return mc.read(g, slot) }, price: mc.u.load}
	}
	return mc.local(slot, mc.u.local)
}

// local reads frame cell slot for price p.
//
//go:noinline
func (mc *Machine) local(slot int, p price) operand {
	return operand{eval: func(fr *Seg) Value { return mc.read(fr, slot) }, price: p, shape: shLocal, slot: slot}
}

// lowerLoad reads a scalar lvalue; an aggregate decays to its address,
// which is never null inside a frame or the globals.
func (mc *Machine) lowerLoad(e minic.Expr) operand {
	t, pos := mc.place(e), e.Pos()
	if minic.IsAggregate(e.Type()) {
		if t.shape == shCell || t.shape == shElem && !t.elem.ptr {
			t.price.add(mc.u.alu)
			t.shape = shExpr
			if t.elem.ew != 0 {
				t.shape = shRow
			}
			return t
		}
		return mc.node(price{}, mc.u.alu, func() expr {
			te := t.eval
			return func(fr *Seg) Value {
				p := te(fr)
				if p.seg == nil {
					panic(rtErr(pos, "null pointer dereference"))
				}
				return p
			}
		}, &t)
	}
	switch t.shape {
	case shCell:
		t.price.add(mc.u.load)
		return mc.local(t.slot, t.price)
	case shElem:
		r := t.elem
		t.price.add(mc.u.load)
		return operand{price: t.price, eval: func(fr *Seg) Value {
			p := mc.at(&r, fr)
			if p.seg == nil || uint(p.off) >= uint(len(p.seg.data)) {
				panic(loadFault(p, pos))
			}
			return mc.read(p.seg, p.off)
		}}
	}
	return mc.node(price{}, mc.u.load, func() expr {
		te := t.eval
		return func(fr *Seg) Value { return mc.loadAt(te(fr).ptr(), pos) }
	}, &t)
}

func (mc *Machine) lowerUnary(e *minic.Unary) operand {
	pos := e.Pos()
	switch e.Op {
	case minic.Amp:
		// &local lets the frame escape (aggregate locals already do).
		if id, ok := e.X.(*minic.Ident); ok && id.Sym.Kind != minic.SymGlobal {
			mc.escapes = true
		}
		t := mc.place(e.X)
		t.shape = shExpr
		return t
	case minic.Star:
		return mc.lowerLoad(e)
	case minic.Plus:
		return mc.operand(e.X)
	}
	x := mc.operand(e.X)
	switch e.Op {
	case minic.Not:
		return mc.node(price{}, mc.u.alu, func() expr {
			xe := x.eval
			return func(fr *Seg) Value { return boolVal(!xe(fr).Truthy()) }
		}, &x)
	case minic.Tilde:
		return mc.node(price{}, mc.u.alu, func() expr {
			xe := x.eval
			return func(fr *Seg) Value { return IntVal(^xe(fr).ival()) }
		}, &x)
	case minic.Minus:
		// The price follows the static type; an operand of the other
		// kind swaps it for the other one.
		guess, other := mc.u.alu, price{cycles: mc.m.FloatAdd, lanes: laneFloatOps}
		float := minic.IsFloat(e.X.Type())
		if float {
			guess, other = other, guess
		}
		return mc.node(price{}, guess, func() expr {
			xe := x.eval
			return func(fr *Seg) Value {
				v := xe(fr)
				if (v.K == KFloat) != float {
					mc.unpay(&guess)
					mc.pay(&other)
				}
				if v.K == KFloat {
					return FloatVal(-v.float())
				}
				return IntVal(-v.ival())
			}
		}, &x)
	}
	return operand{eval: func(*Seg) Value { panic(rtErr(pos, "unhandled unary %v", e.Op)) }}
}

// read loads an in-bounds cell whose access the caller has charged. A
// segment has covers only while a dependence watcher watches it, so a
// cell no watcher covers costs no call.
func (mc *Machine) read(seg *Seg, off int) Value {
	v := seg.data[off]
	if len(seg.covers) != 0 {
		mc.onRead(seg, off, v)
	}
	return v
}

// write stores v in an in-bounds cell whose store the caller has
// charged.
func (mc *Machine) write(seg *Seg, off int, v Value) {
	if len(seg.covers) != 0 {
		mc.onWrite(seg, off)
	}
	seg.data[off] = v
}

// loadAt reads the scalar at p, whose load the caller has charged.
func (mc *Machine) loadAt(p Ptr, pos minic.Pos) Value {
	if p.seg == nil || uint(p.off) >= uint(len(p.seg.data)) {
		panic(loadFault(p, pos))
	}
	return mc.read(p.seg, p.off)
}

// storeAt stores v at p, whose store the caller has charged.
func (mc *Machine) storeAt(p Ptr, v Value, pos minic.Pos) {
	if p.seg == nil || uint(p.off) >= uint(len(p.seg.data)) {
		panic(storeFault(p, pos))
	}
	mc.write(p.seg, p.off, v)
}

// load and storePtr are loadAt and storeAt, charging the access.
func (mc *Machine) load(p Ptr, pos minic.Pos) Value {
	v := mc.loadAt(p, pos)
	mc.chargeLoad()
	return v
}

func (mc *Machine) storePtr(p Ptr, v Value, pos minic.Pos) {
	mc.storeAt(p, v, pos)
	mc.chargeStore()
}

func loadFault(p Ptr, pos minic.Pos) *RuntimeError {
	if p.seg == nil {
		return rtErr(pos, "null pointer dereference")
	}
	return rtErr(pos, "out-of-bounds access: %s[%d] (size %d)", p.seg.name, p.off, len(p.seg.data))
}

func storeFault(p Ptr, pos minic.Pos) *RuntimeError {
	if p.seg == nil {
		return rtErr(pos, "store through null pointer")
	}
	return rtErr(pos, "out-of-bounds store: %s[%d] (size %d)", p.seg.name, p.off, len(p.seg.data))
}

// place lowers lvalue e to the operand of the cell address it designates.
func (mc *Machine) place(e minic.Expr) operand {
	pos := e.Pos()
	switch e := e.(type) {
	case *minic.Ident:
		slot := e.Sym.Slot
		if e.Sym.Kind == minic.SymGlobal {
			p := ptrVal(Ptr{seg: mc.globals, off: slot})
			return operand{eval: func(*Seg) Value { return p }}
		}
		return mc.cell(slot, price{})
	case *minic.Index:
		return mc.lowerIndex(e)
	case *minic.FieldExpr:
		var base operand
		if e.Arrow {
			base = mc.pointee(mc.operand(e.X), pos, "-> on non-pointer value")
		} else {
			base = mc.place(e.X)
		}
		off := e.Info.WordOff
		if base.shape == shCell && base.price.folds() {
			// A field of a frame struct is a frame cell.
			base.price.add(mc.u.alu)
			return mc.cell(base.slot+off, base.price)
		}
		return mc.node(price{}, mc.u.alu, func() expr {
			be := base.eval
			return func(fr *Seg) Value {
				b := be(fr)
				if b.seg == nil {
					panic(rtErr(pos, "field access through null pointer"))
				}
				return Value{K: KPtr, n: b.n + int64(off), seg: b.seg}
			}
		}, &base)
	case *minic.Unary:
		if e.Op == minic.Star {
			return mc.pointee(mc.operand(e.X), pos, "dereference of non-pointer value")
		}
	}
	return operand{eval: func(*Seg) Value { panic(rtErr(pos, "not an lvalue: %T", e)) }}
}

// cell is the address of frame cell slot, for price p.
//
//go:noinline
func (mc *Machine) cell(slot int, p price) operand {
	return operand{eval: func(fr *Seg) Value { return ptrVal(Ptr{seg: fr, off: slot}) }, price: p, shape: shCell, slot: slot}
}

// lowerIndex addresses x[i]; a named array decays for one IntALU op
// before i runs, and the address arithmetic is one more after it.
func (mc *Machine) lowerIndex(e *minic.Index) operand {
	ew, idx, pos := minic.ElemOf(e.X.Type()).Words(), mc.operand(e.Idx), e.Pos()
	if id, ok := e.X.(*minic.Ident); ok && minic.IsAggregate(id.Sym.Type) {
		r := elemRef{base: id.Sym.Slot, ew: ew}
		if id.Sym.Kind == minic.SymGlobal {
			r.seg = mc.globals
		}
		if idx.shape == shLocal {
			r.idx = idx.slot
			p := mc.u.alu
			p.add(idx.price)
			p.add(mc.u.alu)
			return operand{eval: func(fr *Seg) Value { return ptrVal(mc.at(&r, fr)) }, price: p, shape: shElem, elem: r}
		}
		return mc.node(mc.u.alu, mc.u.alu, func() expr {
			ie := idx.eval
			return func(fr *Seg) Value { return ptrVal(Ptr{seg: r.array(fr), off: r.base + int(ie(fr).ival())*r.ew}) }
		}, &idx)
	}
	if id, ok := e.X.(*minic.Ident); ok && (id.Sym.Kind == minic.SymLocal || id.Sym.Kind == minic.SymParam) && idx.shape == shLocal {
		// p[i] of a pointer local p.
		r := elemRef{base: id.Sym.Slot, idx: idx.slot, ew: ew, ptr: true, pos: pos}
		p := mc.u.local
		p.add(idx.price)
		p.add(mc.u.alu)
		return operand{eval: func(fr *Seg) Value { return ptrVal(mc.at(&r, fr)) }, price: p, shape: shElem, elem: r}
	}
	x := mc.operand(e.X)
	if r := x.elem; x.shape == shRow && r.ew2 == 0 && idx.shape == shLocal {
		// A row of a named array, indexed by a local again.
		r.idx2, r.ew2 = idx.slot, ew
		p := x.price
		p.add(idx.price)
		p.add(mc.u.alu)
		return operand{eval: func(fr *Seg) Value { return ptrVal(mc.at(&r, fr)) }, price: p, shape: shElem, elem: r}
	}
	base := mc.pointee(x, pos, "indexing a non-pointer value")
	stride := int64(ew)
	return mc.node(price{}, mc.u.alu, func() expr {
		be := base.eval
		if idx.shape == shLocal {
			slot := idx.slot
			return func(fr *Seg) Value {
				b := be(fr)
				return Value{K: KPtr, n: b.n + mc.read(fr, slot).ival()*stride, seg: b.seg}
			}
		}
		ie := idx.eval
		return func(fr *Seg) Value {
			b := be(fr)
			return Value{K: KPtr, n: b.n + ie(fr).ival()*stride, seg: b.seg}
		}
	}, &base, &idx)
}

// pointee evaluates v, which must yield a pointer, to the address it holds.
func (mc *Machine) pointee(v operand, pos minic.Pos, fault string) operand {
	return mc.node(price{}, price{}, func() expr {
		ve := v.eval
		return func(fr *Seg) Value {
			p := ve(fr)
			if p.K != KPtr {
				panic(rtErr(pos, "%s", fault))
			}
			return p
		}
	}, &v)
}

// binop is a binary operator with its operands' pointer strides and,
// when a generated closure implements it, the static price it charges.
type binop struct {
	op     minic.TokKind
	pos    minic.Pos
	xw, yw int64
	price  price
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

// family selects the generated operators for static operand types: the
// int ones for two ints, the float ones for two arithmetic types of
// which one is a float, none otherwise (arith false).
func family(x, y minic.Type) (float, arith bool) {
	if !minic.IsArith(x) || !minic.IsArith(y) {
		return false, false
	}
	return minic.IsFloat(x) || minic.IsFloat(y), true
}

// opPair names the shapes of a generated operator closure's operands: X
// any expression, L a frame local, K a literal.
type opPair uint8

const (
	shXX opPair = iota
	shXK
	shXL
	shLK
	shLL
	shLX
)

// opShape is the shape pair of operands x and y for a closure whose
// guard expects kind k; x is nil for an update's loaded value. A
// literal qualifies when its kind is k or, as binary converts it, int.
func opShape(x, y *operand, k Kind) opPair {
	local := x != nil && x.shape == shLocal
	lit := y.shape == shLit && (y.val.K == k || y.val.K == KInt)
	switch {
	case local && y.shape == shLocal:
		return shLL
	case local && lit:
		return shLK
	case local:
		return shLX
	case lit:
		return shXK
	case y.shape == shLocal:
		return shXL
	}
	return shXX
}

func (mc *Machine) lowerBinary(e *minic.Binary) operand {
	x := mc.operand(e.X)
	switch e.Op {
	case minic.AndAnd, minic.OrOr:
		y, and := mc.root(e.Y), e.Op == minic.AndAnd
		return mc.node(mc.u.branch, price{}, func() expr {
			xe, ye := x.eval, y.eval
			if and {
				return func(fr *Seg) Value { return boolVal(xe(fr).Truthy() && ye(fr).Truthy()) }
			}
			return func(fr *Seg) Value { return boolVal(xe(fr).Truthy() || ye(fr).Truthy()) }
		}, &x, &y)
	}
	y := mc.operand(e.Y)
	b := newBinop(e.Op, e.X.Type(), e.Y.Type(), e.Pos())
	float, arith := family(e.X.Type(), e.Y.Type())
	if arith {
		b.price, arith = mc.opPrice(b.op, float)
	}
	return mc.node(price{}, b.price, func() expr {
		switch {
		case arith && float:
			return mc.floatOp(b, &x, &y)
		case arith:
			return mc.intOp(b, &x, &y)
		}
		xe, ye := x.eval, y.eval
		return func(fr *Seg) Value { return mc.binary(b, xe(fr), ye(fr)) }
	}, &x, &y)
}

// miss evaluates b on operands whose kinds failed its closure's guard,
// taking back the static price that the closure's payer charged for b.
func (mc *Machine) miss(b *binop, x, y Value) Value {
	mc.unpay(&b.price)
	return mc.binary(b, x, y)
}

// binary applies b to evaluated operands by their dynamic kinds,
// charging it.
func (mc *Machine) binary(b *binop, x, y Value) Value {
	if x.K == KPtr || y.K == KPtr {
		return mc.ptrBinary(b, x, y)
	}
	if x.K != KFloat && y.K != KFloat {
		return mc.intBinary(b.op, x.n, y.n, b.pos)
	}
	return mc.floatBinary(b.op, num(x), num(y), b.pos)
}

// num reads an int or float operand as a float.
func num(v Value) float64 {
	if v.K == KInt {
		return float64(v.n)
	}
	return v.fval()
}

// fdiv is float division with a zero divisor yielding an infinity of
// the dividend's sign (+Inf for 0/0).
func fdiv(a, c float64) float64 {
	switch {
	case c == 0 && a < 0:
		return math.Inf(-1)
	case c == 0:
		return math.Inf(1)
	}
	return a / c
}

func (mc *Machine) ptrBinary(b *binop, x, y Value) Value {
	if b.op == minic.Lt || b.op == minic.Gt || b.op == minic.Le || b.op == minic.Ge {
		// Offsets into one object compare as ints.
		if x.K == KPtr && y.K == KPtr && x.seg == y.seg {
			return mc.intBinary(b.op, x.n, y.n, b.pos)
		}
		panic(rtErr(b.pos, "relational comparison of unrelated pointers"))
	}
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
	}
	panic(rtErr(b.pos, "invalid pointer operation %v", b.op))
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

func (mc *Machine) lowerAssign(e *minic.AssignExpr) operand {
	lt, pos := e.LHS.Type(), e.Pos()
	t, r, c := mc.place(e.LHS), mc.operand(e.RHS), convOf(lt)
	if e.Op != minic.Assign {
		// A compound assignment faults without a position, like the
		// synthesized l = l op r it stands for.
		b := newBinop(compoundOps[e.Op], lt, e.RHS.Type(), minic.Pos{})
		float, arith := family(lt, e.RHS.Type())
		return mc.lowerUpdate(t, r, b, float, arith, c, pos, false)
	}
	if st, ok := lt.(*minic.Struct); ok {
		// The copy charges a load and a store per word as it goes.
		n := st.Words()
		return mc.node(price{}, price{}, func() expr {
			te, re := t.eval, r.eval
			return func(fr *Seg) Value {
				p, v := te(fr).ptr(), re(fr)
				if v.K != KPtr {
					panic(rtErr(pos, "struct assignment from non-aggregate"))
				}
				for i := 0; i < n; i++ {
					mc.storePtr(Ptr{seg: p.seg, off: p.off + i}, mc.load(Ptr{seg: v.seg, off: int(v.n) + i}, pos), pos)
				}
				return v
			}
		}, &t, &r)
	}
	return mc.node(price{}, mc.u.store, func() expr {
		re := r.eval
		switch t.shape {
		case shCell:
			slot := t.slot
			return func(fr *Seg) Value {
				v := c.do(re(fr))
				mc.write(fr, slot, v)
				return v
			}
		case shElem:
			ref := t.elem
			return func(fr *Seg) Value {
				p := mc.at(&ref, fr)
				v := c.do(re(fr))
				if p.seg == nil || uint(p.off) >= uint(len(p.seg.data)) {
					panic(storeFault(p, pos))
				}
				mc.write(p.seg, p.off, v)
				return v
			}
		}
		te := t.eval
		return func(fr *Seg) Value {
			p := te(fr).ptr()
			v := c.do(re(fr))
			mc.storeAt(p, v, pos)
			return v
		}
	}, &t, &r)
}

// lowerIncDec lowers ++/-- as an unconverted update by an unpriced one
// whose pointer stride is the raw element width.
func (mc *Machine) lowerIncDec(e *minic.IncDec) operand {
	b := &binop{op: minic.Plus}
	if e.Op == minic.Dec {
		b.op = minic.Minus
	}
	if el := minic.ElemOf(e.X.Type()); el != nil {
		b.xw = int64(el.Words())
	}
	one := operand{eval: func(*Seg) Value { return IntVal(1) }, shape: shLit, val: IntVal(1)}
	float, arith := family(e.X.Type(), e.X.Type())
	return mc.lowerUpdate(mc.place(e.X), one, b, float, arith, convNone, e.Pos(), e.Post)
}

// lowerUpdate lowers the update of target t to c(*t op r), yielding the
// old value when post is set. It loads *t (a Load), runs r, applies the
// operator and stores (a Store); with a call in t or r, or a sum too
// large to fold, each piece pays where it runs.
func (mc *Machine) lowerUpdate(t, r operand, b *binop, float, arith bool, c conv, pos minic.Pos, post bool) operand {
	if arith {
		b.price, arith = mc.opPrice(b.op, float)
	}
	load, own := mc.u.load, b.price
	own.add(mc.u.store)
	op := func() update {
		switch {
		case arith && float:
			return mc.floatUpdate(b, &r)
		case arith:
			return mc.intUpdate(b, &r)
		}
		re := r.eval
		return func(fr *Seg, old Value) Value { return mc.binary(b, old, re(fr)) }
	}
	p := t.price
	p.add(load)
	p.add(r.price)
	p.add(own)
	if t.inPlace || r.inPlace || !p.folds() {
		t, r = operand{eval: mc.paid(t)}, operand{eval: mc.paid(r)}
		te, upd := t.eval, op()
		return operand{inPlace: true, eval: func(fr *Seg) Value {
			p := te(fr).ptr()
			old := mc.loadAt(p, pos)
			mc.pay(&load)
			nv := c.do(upd(fr, old))
			mc.pay(&own)
			mc.storeAt(p, nv, pos)
			if post {
				return old
			}
			return nv
		}}
	}
	upd := op()
	switch t.shape {
	case shCell:
		slot := t.slot
		return operand{price: p, eval: func(fr *Seg) Value {
			old := mc.read(fr, slot)
			nv := c.do(upd(fr, old))
			mc.write(fr, slot, nv)
			if post {
				return old
			}
			return nv
		}}
	case shElem:
		ref := t.elem
		return operand{price: p, eval: func(fr *Seg) Value {
			at := mc.at(&ref, fr)
			if at.seg == nil || uint(at.off) >= uint(len(at.seg.data)) {
				panic(loadFault(at, pos))
			}
			old := mc.read(at.seg, at.off)
			nv := c.do(upd(fr, old))
			mc.write(at.seg, at.off, nv)
			if post {
				return old
			}
			return nv
		}}
	}
	te := t.eval
	return operand{price: p, eval: func(fr *Seg) Value {
		at := te(fr).ptr()
		old := mc.loadAt(at, pos)
		nv := c.do(upd(fr, old))
		mc.write(at.seg, at.off, nv)
		if post {
			return old
		}
		return nv
	}}
}

func (mc *Machine) lowerCall(e *minic.Call) operand {
	pos := e.Pos()
	id, named := e.Fun.(*minic.Ident)
	if named && id.Sym != nil && id.Sym.Kind == minic.SymFunc && id.Sym.FuncDecl == nil {
		return operand{eval: mc.lowerBuiltin(e, id.Name), inPlace: true}
	}
	args := mc.lowerExprs(e.Args)
	if named && id.Sym.Kind == minic.SymFunc {
		// A direct call still charges the IntALU op of its designator.
		f := mc.function(id.Sym.FuncDecl)
		return operand{inPlace: true, eval: func(fr *Seg) Value { mc.chargeInt(); return mc.call(f, args, fr, pos) }}
	}
	fun := mc.lowerExpr(e.Fun)
	return operand{inPlace: true, eval: func(fr *Seg) Value {
		fv := fun(fr)
		if fv.K != KFunc || fv.seg == nil {
			panic(rtErr(pos, "call of non-function value"))
		}
		return mc.call(fv.seg.fn, args, fr, pos)
	}}
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
