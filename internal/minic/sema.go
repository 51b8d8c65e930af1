package minic

import "fmt"

// Builtins are the MiniC intrinsic functions serviced directly by the VM.
// They exist as SymFunc symbols with a nil FuncDecl.
var builtinSigs = map[string]*FuncType{
	"print_int":   {Params: []Type{IntType}, Ret: VoidType},
	"print_float": {Params: []Type{FloatType}, Ret: VoidType},
	"print_str":   {Params: nil, Ret: VoidType}, // (string) — special-cased
	"__assert":    {Params: []Type{IntType}, Ret: VoidType},
}

// Checker resolves names and types for a parsed Program. Use Check.
type Checker struct {
	prog     *Program
	scopes   []map[string]*Symbol
	fn       *FuncDecl
	loops    int
	builtins map[string]*Symbol
	// GlobalWords is the total size of global storage in VM words.
	GlobalWords int
}

// Check resolves all identifiers, assigns storage slots, and types every
// expression in prog. It mutates prog in place. On success the program is
// ready for the analyses and the interpreter.
func Check(prog *Program) error {
	c := &Checker{prog: prog, builtins: map[string]*Symbol{}}
	for name, sig := range builtinSigs {
		c.builtins[name] = &Symbol{Name: name, Kind: SymFunc, Type: sig}
	}
	if err := c.checkProgram(); err != nil {
		if e, ok := err.(*Error); ok {
			e.File = prog.Name
		}
		return err
	}
	prog.GlobalWords = c.GlobalWords
	return nil
}

func (c *Checker) push() { c.scopes = append(c.scopes, map[string]*Symbol{}) }
func (c *Checker) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *Checker) declare(pos Pos, sym *Symbol) error {
	top := c.scopes[len(c.scopes)-1]
	if _, exists := top[sym.Name]; exists {
		return errf(pos, "%s redeclared in this scope", sym.Name)
	}
	top[sym.Name] = sym
	return nil
}

func (c *Checker) lookup(name string) *Symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	return c.builtins[name]
}

func (c *Checker) checkProgram() error {
	c.push() // global scope
	defer c.pop()

	// Declare functions first so calls may be forward.
	for _, fn := range c.prog.Funcs {
		sym := &Symbol{Name: fn.Name, Kind: SymFunc, Type: fn.FuncType(), FuncDecl: fn}
		fn.Sym = sym
		if err := c.declare(fn.Pos(), sym); err != nil {
			return err
		}
	}
	// Globals: assign word offsets in declaration order.
	off := 0
	for _, g := range c.prog.Globals {
		if IsVoid(g.Type) {
			return errf(g.Pos(), "variable %s has void type", g.Name)
		}
		sym := &Symbol{Name: g.Name, Kind: SymGlobal, Type: g.Type, Slot: off}
		g.Sym = sym
		off += g.Type.Words()
		if err := c.declare(g.Pos(), sym); err != nil {
			return err
		}
		if err := c.checkVarInit(g); err != nil {
			return err
		}
	}
	c.GlobalWords = off

	for _, fn := range c.prog.Funcs {
		if err := c.checkFunc(fn); err != nil {
			return err
		}
	}
	return nil
}

func (c *Checker) checkVarInit(d *VarDecl) error {
	if d.Init != nil {
		t, err := c.checkExpr(d.Init)
		if err != nil {
			return err
		}
		if !assignable(d.Type, t) {
			return errf(d.Pos(), "cannot initialize %s (%s) with %s", d.Name, d.Type, t)
		}
	}
	if d.InitList != nil {
		at, ok := d.Type.(*Array)
		if !ok {
			return errf(d.Pos(), "brace initializer on non-array %s", d.Name)
		}
		if len(d.InitList) > at.Words() {
			return errf(d.Pos(), "too many initializers for %s (%d > %d)",
				d.Name, len(d.InitList), at.Words())
		}
		for _, e := range d.InitList {
			if _, err := c.checkExpr(e); err != nil {
				return err
			}
		}
	}
	return nil
}

func (c *Checker) checkFunc(fn *FuncDecl) error {
	c.fn = fn
	defer func() { c.fn = nil }()
	c.push()
	defer c.pop()

	off := 0
	for _, p := range fn.Params {
		if IsVoid(p.Type) || IsAggregate(p.Type) {
			return errf(p.Pos(), "parameter %s must have scalar type, has %s", p.Name, p.Type)
		}
		sym := &Symbol{Name: p.Name, Kind: SymParam, Type: p.Type, Slot: off, Func: fn}
		p.Sym = sym
		off += p.Type.Words()
		if err := c.declare(p.Pos(), sym); err != nil {
			return err
		}
	}
	fn.FrameWords = off
	if fn.Body != nil {
		if err := c.checkStmt(fn.Body); err != nil {
			return err
		}
	}
	return nil
}

func (c *Checker) checkStmt(s Stmt) error {
	switch s := s.(type) {
	case *DeclStmt:
		for _, d := range s.Decls {
			if IsVoid(d.Type) {
				return errf(d.Pos(), "variable %s has void type", d.Name)
			}
			sym := &Symbol{Name: d.Name, Kind: SymLocal, Type: d.Type, Slot: c.fn.FrameWords, Func: c.fn}
			d.Sym = sym
			c.fn.FrameWords += d.Type.Words()
			if err := c.declare(d.Pos(), sym); err != nil {
				return err
			}
			if err := c.checkVarInit(d); err != nil {
				return err
			}
		}
		return nil
	case *ExprStmt:
		_, err := c.checkExpr(s.X)
		return err
	case *Block:
		c.push()
		defer c.pop()
		for _, st := range s.Stmts {
			if err := c.checkStmt(st); err != nil {
				return err
			}
		}
		return nil
	case *IfStmt:
		if err := c.checkCond(s.Cond); err != nil {
			return err
		}
		if err := c.checkStmt(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			return c.checkStmt(s.Else)
		}
		return nil
	case *WhileStmt:
		if err := c.checkCond(s.Cond); err != nil {
			return err
		}
		c.loops++
		defer func() { c.loops-- }()
		return c.checkStmt(s.Body)
	case *ForStmt:
		c.push()
		defer c.pop()
		if s.Init != nil {
			if err := c.checkStmt(s.Init); err != nil {
				return err
			}
		}
		if s.Cond != nil {
			if err := c.checkCond(s.Cond); err != nil {
				return err
			}
		}
		if s.Post != nil {
			if _, err := c.checkExpr(s.Post); err != nil {
				return err
			}
		}
		c.loops++
		defer func() { c.loops-- }()
		return c.checkStmt(s.Body)
	case *BreakStmt:
		if c.loops == 0 {
			return errf(s.Pos(), "break outside loop")
		}
		return nil
	case *ContinueStmt:
		if c.loops == 0 {
			return errf(s.Pos(), "continue outside loop")
		}
		return nil
	case *ReturnStmt:
		if s.X == nil {
			if !IsVoid(c.fn.Ret) {
				return errf(s.Pos(), "missing return value in %s", c.fn.Name)
			}
			return nil
		}
		t, err := c.checkExpr(s.X)
		if err != nil {
			return err
		}
		if IsVoid(c.fn.Ret) {
			return errf(s.Pos(), "return with value in void function %s", c.fn.Name)
		}
		if !assignable(c.fn.Ret, t) {
			return errf(s.Pos(), "cannot return %s from %s returning %s", t, c.fn.Name, c.fn.Ret)
		}
		return nil
	case *EmptyStmt:
		return nil
	case *ReuseRegion:
		for _, e := range s.Inputs {
			if _, err := c.checkExpr(e); err != nil {
				return err
			}
		}
		if err := c.checkStmt(s.Body); err != nil {
			return err
		}
		for _, e := range s.Outputs {
			if _, err := c.checkExpr(e); err != nil {
				return err
			}
			if !isLvalue(e) {
				return errf(e.Pos(), "reuse output is not an lvalue")
			}
		}
		return nil
	}
	return errf(s.Pos(), "unhandled statement %T", s)
}

func (c *Checker) checkCond(e Expr) error {
	t, err := c.checkExpr(e)
	if err != nil {
		return err
	}
	if !IsScalar(decay(t)) {
		return errf(e.Pos(), "condition must be scalar, has type %s", t)
	}
	return nil
}

// decay converts array types to pointers for value contexts.
func decay(t Type) Type {
	if at, ok := t.(*Array); ok {
		return &Pointer{Elem: at.Elem}
	}
	return t
}

// assignable reports whether a value of type src may be stored in dst.
// Arrays are not assignable (as in C); structs of identical type are.
func assignable(dst, src Type) bool {
	if _, ok := dst.(*Array); ok {
		return false
	}
	src = decay(src)
	if Identical(dst, src) {
		return true
	}
	if IsArith(dst) && IsArith(src) {
		return true
	}
	dp, dOK := dst.(*Pointer)
	sp, sOK := src.(*Pointer)
	if dOK && sOK {
		// MiniC permits any pointer-to-pointer assignment (C would warn).
		_ = dp
		_ = sp
		return true
	}
	if dOK && IsInt(src) {
		return true // p = 0 and friends
	}
	if IsInt(dst) && sOK {
		return true // hash-key style pointer-to-int
	}
	// Function pointer from function designator.
	if dOK {
		if _, ok := dp.Elem.(*FuncType); ok {
			if _, ok := src.(*FuncType); ok {
				return true
			}
		}
	}
	return false
}

// isLvalue reports whether e designates a storage location.
func isLvalue(e Expr) bool {
	switch e := e.(type) {
	case *Ident:
		return e.Sym != nil && e.Sym.Kind != SymFunc
	case *Index:
		return true
	case *FieldExpr:
		return true
	case *Unary:
		return e.Op == Star
	case *Cast:
		// Not an lvalue in C; MiniC agrees.
		return false
	}
	return false
}

// markAddrTaken records that the storage named at the base of e may be
// aliased through a pointer.
func markAddrTaken(e Expr) {
	switch e := e.(type) {
	case *Ident:
		if e.Sym != nil {
			e.Sym.AddrTaken = true
		}
	case *Index:
		markAddrTaken(e.X)
	case *FieldExpr:
		markAddrTaken(e.X)
	case *Unary:
		// &*p or p[i] via deref: the aliased object is whatever p points
		// to, which pointer analysis tracks; nothing to mark here.
	}
}

func (c *Checker) checkExpr(e Expr) (Type, error) {
	t, err := c.checkExprInner(e)
	if err != nil {
		return nil, err
	}
	e.setType(t)
	return t, nil
}

func (c *Checker) checkExprInner(e Expr) (Type, error) {
	switch e := e.(type) {
	case *IntLit:
		return IntType, nil
	case *FloatLit:
		return FloatType, nil
	case *StrLit:
		// Strings type as int (a degenerate handle); only print_str uses them.
		return IntType, nil
	case *Ident:
		sym := c.lookup(e.Name)
		if sym == nil {
			return nil, errf(e.Pos(), "undefined: %s", e.Name)
		}
		e.Sym = sym
		return sym.Type, nil
	case *SizeofExpr:
		return IntType, nil

	case *Unary:
		xt, err := c.checkExpr(e.X)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case Not:
			if !IsScalar(decay(xt)) {
				return nil, errf(e.Pos(), "operand of ! must be scalar, has %s", xt)
			}
			return IntType, nil
		case Tilde:
			if !IsInt(xt) {
				return nil, errf(e.Pos(), "operand of ~ must be int, has %s", xt)
			}
			return IntType, nil
		case Minus, Plus:
			if !IsArith(xt) {
				return nil, errf(e.Pos(), "operand of unary %s must be arithmetic, has %s", e.Op, xt)
			}
			return xt, nil
		case Star:
			pt := decay(xt)
			p, ok := pt.(*Pointer)
			if !ok {
				return nil, errf(e.Pos(), "cannot dereference %s", xt)
			}
			return p.Elem, nil
		case Amp:
			if !isLvalue(e.X) {
				return nil, errf(e.Pos(), "cannot take address of non-lvalue")
			}
			markAddrTaken(e.X)
			return &Pointer{Elem: xt}, nil
		}
		return nil, errf(e.Pos(), "bad unary operator %s", e.Op)

	case *IncDec:
		xt, err := c.checkExpr(e.X)
		if err != nil {
			return nil, err
		}
		if !isLvalue(e.X) {
			return nil, errf(e.Pos(), "operand of %s must be an lvalue", e.Op)
		}
		if !IsArith(xt) {
			if _, ok := xt.(*Pointer); !ok {
				return nil, errf(e.Pos(), "operand of %s must be arithmetic or pointer, has %s", e.Op, xt)
			}
		}
		return xt, nil

	case *Binary:
		xt, err := c.checkExpr(e.X)
		if err != nil {
			return nil, err
		}
		yt, err := c.checkExpr(e.Y)
		if err != nil {
			return nil, err
		}
		return c.binaryType(e, decay(xt), decay(yt))

	case *AssignExpr:
		lt, err := c.checkExpr(e.LHS)
		if err != nil {
			return nil, err
		}
		if !isLvalue(e.LHS) {
			return nil, errf(e.Pos(), "assignment target is not an lvalue")
		}
		rt, err := c.checkExpr(e.RHS)
		if err != nil {
			return nil, err
		}
		if e.Op == Assign {
			if !assignable(lt, rt) {
				return nil, errf(e.Pos(), "cannot assign %s to %s", rt, lt)
			}
			return lt, nil
		}
		// Compound assignment behaves as l = l op r.
		fake := &Binary{Op: compoundOp(e.Op), X: e.LHS, Y: e.RHS}
		if _, err := c.binaryType(fake, decay(lt), decay(rt)); err != nil {
			return nil, err
		}
		return lt, nil

	case *Cond:
		if err := c.checkCond(e.Cond); err != nil {
			return nil, err
		}
		tt, err := c.checkExpr(e.Then)
		if err != nil {
			return nil, err
		}
		et, err := c.checkExpr(e.Else)
		if err != nil {
			return nil, err
		}
		tt, et = decay(tt), decay(et)
		switch {
		case Identical(tt, et):
			return tt, nil
		case IsArith(tt) && IsArith(et):
			if IsFloat(tt) || IsFloat(et) {
				return FloatType, nil
			}
			return IntType, nil
		case isPtr(tt) && IsInt(et), isPtr(et) && IsInt(tt):
			if isPtr(tt) {
				return tt, nil
			}
			return et, nil
		}
		return nil, errf(e.Pos(), "incompatible ternary branches: %s vs %s", tt, et)

	case *Call:
		return c.checkCall(e)

	case *Index:
		xt, err := c.checkExpr(e.X)
		if err != nil {
			return nil, err
		}
		it, err := c.checkExpr(e.Idx)
		if err != nil {
			return nil, err
		}
		if !IsInt(it) {
			return nil, errf(e.Idx.Pos(), "array index must be int, has %s", it)
		}
		elem := ElemOf(xt)
		if elem == nil {
			return nil, errf(e.Pos(), "cannot index %s", xt)
		}
		return elem, nil

	case *FieldExpr:
		xt, err := c.checkExpr(e.X)
		if err != nil {
			return nil, err
		}
		var st *Struct
		if e.Arrow {
			p, ok := decay(xt).(*Pointer)
			if !ok {
				return nil, errf(e.Pos(), "-> on non-pointer %s", xt)
			}
			st, ok = p.Elem.(*Struct)
			if !ok {
				return nil, errf(e.Pos(), "-> on pointer to non-struct %s", p.Elem)
			}
		} else {
			var ok bool
			st, ok = xt.(*Struct)
			if !ok {
				return nil, errf(e.Pos(), ". on non-struct %s", xt)
			}
		}
		f := st.FieldByName(e.Name)
		if f == nil {
			return nil, errf(e.Pos(), "struct %s has no field %s", st.Name, e.Name)
		}
		e.Info = f
		return f.Type, nil

	case *Cast:
		xt, err := c.checkExpr(e.X)
		if err != nil {
			return nil, err
		}
		xt = decay(xt)
		ok := (IsArith(e.To) && IsArith(xt)) ||
			(isPtr(e.To) && (isPtr(xt) || IsInt(xt))) ||
			(IsInt(e.To) && isPtr(xt))
		if !ok {
			return nil, errf(e.Pos(), "invalid cast from %s to %s", xt, e.To)
		}
		return e.To, nil
	}
	return nil, errf(e.Pos(), "unhandled expression %T", e)
}

func isPtr(t Type) bool { _, ok := t.(*Pointer); return ok }

// compoundOp maps a compound-assignment token to its binary operator.
func compoundOp(op TokKind) TokKind {
	switch op {
	case PlusEq:
		return Plus
	case MinusEq:
		return Minus
	case StarEq:
		return Star
	case SlashEq:
		return Slash
	case PercentEq:
		return Percent
	case ShlEq:
		return Shl
	case ShrEq:
		return Shr
	case AndEq:
		return Amp
	case OrEq:
		return Pipe
	case XorEq:
		return Caret
	}
	panic(fmt.Sprintf("compoundOp: %v is not a compound assignment", op))
}

func (c *Checker) binaryType(e *Binary, xt, yt Type) (Type, error) {
	switch e.Op {
	case AndAnd, OrOr:
		if !IsScalar(xt) || !IsScalar(yt) {
			return nil, errf(e.Pos(), "operands of %s must be scalar", e.Op)
		}
		return IntType, nil
	case EqEq, NotEq, Lt, Gt, Le, Ge:
		if IsArith(xt) && IsArith(yt) {
			return IntType, nil
		}
		if isPtr(xt) && (isPtr(yt) || IsInt(yt)) {
			return IntType, nil
		}
		if isPtr(yt) && IsInt(xt) {
			return IntType, nil
		}
		return nil, errf(e.Pos(), "cannot compare %s with %s", xt, yt)
	case Pipe, Caret, Amp, Shl, Shr, Percent:
		if !IsInt(xt) || !IsInt(yt) {
			return nil, errf(e.Pos(), "operands of %s must be int, have %s and %s", e.Op, xt, yt)
		}
		return IntType, nil
	case Plus:
		if isPtr(xt) && IsInt(yt) {
			return xt, nil
		}
		if isPtr(yt) && IsInt(xt) {
			return yt, nil
		}
	case Minus:
		if isPtr(xt) && IsInt(yt) {
			return xt, nil
		}
		if isPtr(xt) && isPtr(yt) {
			return IntType, nil
		}
	}
	// Remaining: arithmetic + - * /.
	if !IsArith(xt) || !IsArith(yt) {
		return nil, errf(e.Pos(), "invalid operands of %s: %s and %s", e.Op, xt, yt)
	}
	if IsFloat(xt) || IsFloat(yt) {
		if e.Op == Percent {
			return nil, errf(e.Pos(), "%% requires int operands")
		}
		return FloatType, nil
	}
	return IntType, nil
}

func (c *Checker) checkCall(e *Call) (Type, error) {
	// Builtin and direct calls.
	if id, ok := e.Fun.(*Ident); ok {
		sym := c.lookup(id.Name)
		if sym == nil {
			return nil, errf(id.Pos(), "undefined function: %s", id.Name)
		}
		id.Sym = sym
		id.setType(sym.Type)
		if sym.Kind == SymFunc && sym.FuncDecl == nil {
			return c.checkBuiltinCall(e, id.Name, sym.Type.(*FuncType))
		}
	} else {
		if _, err := c.checkExpr(e.Fun); err != nil {
			return nil, err
		}
	}
	ft := funcTypeOf(e.Fun.Type())
	if ft == nil {
		return nil, errf(e.Pos(), "called object is not a function (type %s)", e.Fun.Type())
	}
	if len(e.Args) != len(ft.Params) {
		return nil, errf(e.Pos(), "wrong argument count: have %d, want %d", len(e.Args), len(ft.Params))
	}
	for i, a := range e.Args {
		at, err := c.checkExpr(a)
		if err != nil {
			return nil, err
		}
		if !assignable(ft.Params[i], at) {
			return nil, errf(a.Pos(), "argument %d: cannot pass %s as %s", i+1, at, ft.Params[i])
		}
		// An array argument decays; its storage escapes into the callee.
		if _, ok := at.(*Array); ok {
			markAddrTaken(a)
		}
	}
	return ft.Ret, nil
}

func (c *Checker) checkBuiltinCall(e *Call, name string, sig *FuncType) (Type, error) {
	if name == "print_str" {
		if len(e.Args) != 1 {
			return nil, errf(e.Pos(), "print_str takes one string argument")
		}
		if _, ok := e.Args[0].(*StrLit); !ok {
			return nil, errf(e.Args[0].Pos(), "print_str argument must be a string literal")
		}
		e.Args[0].setType(IntType)
		return VoidType, nil
	}
	if len(e.Args) != len(sig.Params) {
		return nil, errf(e.Pos(), "%s: wrong argument count: have %d, want %d",
			name, len(e.Args), len(sig.Params))
	}
	for i, a := range e.Args {
		at, err := c.checkExpr(a)
		if err != nil {
			return nil, err
		}
		if !assignable(sig.Params[i], at) {
			return nil, errf(a.Pos(), "%s: argument %d: cannot pass %s as %s",
				name, i+1, at, sig.Params[i])
		}
	}
	return sig.Ret, nil
}

// funcTypeOf extracts the function type from a function designator or a
// function pointer type.
func funcTypeOf(t Type) *FuncType {
	switch t := t.(type) {
	case *FuncType:
		return t
	case *Pointer:
		if ft, ok := t.Elem.(*FuncType); ok {
			return ft
		}
	}
	return nil
}
