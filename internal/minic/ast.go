package minic

// This file defines the MiniC abstract syntax tree. Every statement and
// expression carries a program-unique ID (assigned by the parser) so that
// the analyses in internal/{cfg,dataflow,segment,...} can key side tables
// deterministically, and a source position for diagnostics.

// Node is any AST node.
type Node interface {
	Pos() Pos
}

// ---------------------------------------------------------------------------
// Expressions

// Expr is a MiniC expression. After Check, Type returns the expression's
// type (arrays used as values keep their array type; decay to pointer is
// made explicit by the checker only in call arguments and pointer
// arithmetic contexts at evaluation time).
type Expr interface {
	Node
	// ID is a program-unique node id.
	ID() int
	// Type is the checked type (nil before Check).
	Type() Type
	setType(Type)
	exprNode()
}

type exprBase struct {
	pos Pos
	id  int
	typ Type
}

func (b *exprBase) Pos() Pos       { return b.pos }
func (b *exprBase) ID() int        { return b.id }
func (b *exprBase) Type() Type     { return b.typ }
func (b *exprBase) setType(t Type) { b.typ = t }
func (b *exprBase) exprNode()      {}
func (b *exprBase) setID(id int)   { b.id = id }

// IntLit is an integer literal.
type IntLit struct {
	exprBase
	Val int64
}

// FloatLit is a float literal.
type FloatLit struct {
	exprBase
	Val float64
}

// StrLit is a string literal; MiniC permits strings only as arguments to
// the print builtins.
type StrLit struct {
	exprBase
	Val string
}

// Ident is a use of a named variable or function. Sym is resolved by Check.
type Ident struct {
	exprBase
	Name string
	Sym  *Symbol
}

// Unary is a prefix operator: ! ~ - + * (deref) & (address-of).
type Unary struct {
	exprBase
	Op TokKind
	X  Expr
}

// IncDec is ++x, --x, x++ or x--.
type IncDec struct {
	exprBase
	Op   TokKind // Inc or Dec
	Post bool
	X    Expr
}

// Binary is a binary operator (arithmetic, comparison, bitwise, logical).
type Binary struct {
	exprBase
	Op   TokKind
	X, Y Expr
}

// AssignExpr is an assignment or compound assignment expression.
type AssignExpr struct {
	exprBase
	Op  TokKind // Assign, PlusEq, ...
	LHS Expr
	RHS Expr
}

// Cond is the ternary conditional c ? a : b.
type Cond struct {
	exprBase
	Cond, Then, Else Expr
}

// Call is a function call. Fun is an Ident naming a function or a builtin,
// or an expression of function-pointer type.
type Call struct {
	exprBase
	Fun  Expr
	Args []Expr
}

// Index is an array or pointer subscript x[i].
type Index struct {
	exprBase
	X, Idx Expr
}

// FieldExpr is a struct member access x.f or p->f. Info is set by Check.
type FieldExpr struct {
	exprBase
	X     Expr
	Name  string
	Arrow bool
	Info  *Field
}

// Cast is an explicit conversion (int)x or (float)x, and pointer casts.
type Cast struct {
	exprBase
	To Type
	X  Expr
}

// SizeofExpr is sizeof(type); it folds to a constant at check time.
type SizeofExpr struct {
	exprBase
	T Type
}

// ---------------------------------------------------------------------------
// Statements

// Stmt is a MiniC statement.
type Stmt interface {
	Node
	ID() int
	stmtNode()
}

type stmtBase struct {
	pos Pos
	id  int
}

func (b *stmtBase) Pos() Pos     { return b.pos }
func (b *stmtBase) ID() int      { return b.id }
func (b *stmtBase) stmtNode()    {}
func (b *stmtBase) setID(id int) { b.id = id }

// idSetter is implemented by statement and expression bases.
type idSetter interface{ setID(int) }

// DeclStmt declares one or more local variables.
type DeclStmt struct {
	stmtBase
	Decls []*VarDecl
}

// ExprStmt evaluates an expression for its side effects.
type ExprStmt struct {
	stmtBase
	X Expr
}

// Block is a brace-delimited statement list.
type Block struct {
	stmtBase
	Stmts []Stmt
}

// IfStmt is if/else. Else may be nil.
type IfStmt struct {
	stmtBase
	Cond Expr
	Then Stmt
	Else Stmt
}

// WhileStmt is while(cond) body, or do body while(cond) when DoWhile.
type WhileStmt struct {
	stmtBase
	Cond    Expr
	Body    Stmt
	DoWhile bool
}

// ForStmt is for(init; cond; post) body; any clause may be nil.
type ForStmt struct {
	stmtBase
	Init Stmt // DeclStmt or ExprStmt or nil
	Cond Expr
	Post Expr
	Body Stmt
}

// BreakStmt is break.
type BreakStmt struct{ stmtBase }

// ContinueStmt is continue.
type ContinueStmt struct{ stmtBase }

// ReturnStmt is return [expr].
type ReturnStmt struct {
	stmtBase
	X Expr // nil for void return
}

// EmptyStmt is a lone semicolon.
type EmptyStmt struct{ stmtBase }

// ReuseRegion is the computation-reuse construct inserted by the transform
// pass (paper Fig. 2b). It is never produced by the parser. Semantics:
//
//	key := concat(values of Inputs)
//	if probe(TableID, SegBit, key) hits:
//	    copy stored outputs into Outputs
//	else:
//	    run Body; record values of Outputs under key
//
// Inputs are rvalue expressions; Outputs are lvalue expressions. SegBit
// selects this segment's valid bit and output columns in a merged table
// (always 0 for an unmerged table).
type ReuseRegion struct {
	stmtBase
	TableID int
	SegBit  int
	SegName string // diagnostic label, e.g. "quan@body"
	Inputs  []Expr
	Outputs []Expr
	Body    Stmt
	// Dep marks a dependence-tracked region: instead of forming a flat
	// key from all Inputs up front, the probe walks a footprint trie
	// keyed on the locations the body actually reads (internal/depmemo).
	// Inputs then declare the trackable location set, not the key.
	Dep bool
}

// ---------------------------------------------------------------------------
// Declarations

// SymKind classifies symbols.
type SymKind int

// Symbol kinds.
const (
	SymLocal SymKind = iota
	SymParam
	SymGlobal
	SymFunc
)

func (k SymKind) String() string {
	switch k {
	case SymLocal:
		return "local"
	case SymParam:
		return "param"
	case SymGlobal:
		return "global"
	default:
		return "func"
	}
}

// Symbol is a resolved program entity. Every Ident points at exactly one
// Symbol after Check; distinct declarations get distinct Symbols even when
// shadowing reuses a name.
type Symbol struct {
	Name string
	Kind SymKind
	Type Type
	// Slot is the VM storage index: the word offset of this variable in
	// its function frame (locals/params) or in global storage (globals).
	Slot int
	// Func is the declaring function for locals and params, nil otherwise.
	Func *FuncDecl
	// FuncDecl is the declared function when Kind == SymFunc.
	FuncDecl *FuncDecl
	// AddrTaken reports whether &sym occurs anywhere (set by Check) or the
	// symbol is an array/struct whose elements may be aliased via pointers.
	AddrTaken bool
}

func (s *Symbol) String() string { return s.Name }

// VarDecl declares one variable (global, local or parameter).
type VarDecl struct {
	pos  Pos
	id   int
	Name string
	Type Type
	// Init is the scalar initializer expression, or nil.
	Init Expr
	// InitList is the brace initializer for arrays, or nil. Elements are
	// constant expressions; shorter lists zero-fill as in C.
	InitList []Expr
	Sym      *Symbol
}

// Pos returns the declaration position.
func (d *VarDecl) Pos() Pos { return d.pos }

// ID returns the node id.
func (d *VarDecl) ID() int { return d.id }

// FuncDecl declares a function.
type FuncDecl struct {
	pos  Pos
	id   int
	Name string
	// Params are the declared parameters in order.
	Params []*VarDecl
	Ret    Type
	Body   *Block
	Sym    *Symbol
	// FrameWords is the number of VM words in the function frame,
	// set by Check (params first, then locals).
	FrameWords int
}

// Pos returns the declaration position.
func (f *FuncDecl) Pos() Pos { return f.pos }

// ID returns the node id.
func (f *FuncDecl) ID() int { return f.id }

// FuncType returns the function's type.
func (f *FuncDecl) FuncType() *FuncType {
	ps := make([]Type, len(f.Params))
	for i, p := range f.Params {
		ps[i] = p.Type
	}
	return &FuncType{Params: ps, Ret: f.Ret}
}

// Program is a parsed (and, after Check, typed) MiniC translation unit.
type Program struct {
	Name    string // program name for diagnostics
	Structs []*Struct
	Globals []*VarDecl
	Funcs   []*FuncDecl
	// NumNodes is one greater than the largest node ID in the program.
	NumNodes int
	// GlobalWords is the total global storage in VM words, set by Check.
	GlobalWords int

	nextID int
}

// Pos implements Node; a Program has no single source position.
func (p *Program) Pos() Pos { return Pos{} }

// NewID hands out the next node id; used by parser and by passes that
// synthesize nodes (cleanup, specialize, transform).
func (p *Program) NewID() int {
	id := p.nextID
	p.nextID++
	p.NumNodes = p.nextID
	return id
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global returns the global variable declaration with the given name, or nil.
func (p *Program) Global(name string) *VarDecl {
	for _, g := range p.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// StructType returns the struct type with the given name, or nil.
func (p *Program) StructType(name string) *Struct {
	for _, s := range p.Structs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Node construction helpers (used by synthesizing passes)

// NewIdent returns a typed identifier expression bound to sym.
func (p *Program) NewIdent(sym *Symbol) *Ident {
	e := &Ident{Name: sym.Name, Sym: sym}
	e.id = p.NewID()
	e.typ = sym.Type
	return e
}

// Ref returns a typed expression naming sym, or sym[elem] when elem is
// non-nil, that stays outside the program: it takes no node id (its ID
// is -1) and shares elem. An evaluator reads a location through it
// without growing the id space that sizes the frequency profile.
func Ref(sym *Symbol, elem Expr) Expr {
	id := &Ident{Name: sym.Name, Sym: sym}
	id.id, id.typ = -1, sym.Type
	if elem == nil {
		return id
	}
	e := &Index{X: id, Idx: elem}
	e.id = -1
	if el := ElemOf(sym.Type); el != nil {
		e.typ = el
	}
	return e
}

// NewIntLit returns a typed integer literal.
func (p *Program) NewIntLit(v int64) *IntLit {
	e := &IntLit{Val: v}
	e.id = p.NewID()
	e.typ = IntType
	return e
}

// NewFloatLit returns a typed float literal.
func (p *Program) NewFloatLit(v float64) *FloatLit {
	e := &FloatLit{Val: v}
	e.id = p.NewID()
	e.typ = FloatType
	return e
}

// NewBinary returns a typed binary expression. The caller is responsible
// for operand types being sensible; the result type follows usual
// arithmetic conversion (float if either side is float, else int).
func (p *Program) NewBinary(op TokKind, x, y Expr) *Binary {
	e := &Binary{Op: op, X: x, Y: y}
	e.id = p.NewID()
	switch op {
	case Lt, Gt, Le, Ge, EqEq, NotEq, AndAnd, OrOr:
		e.typ = IntType
	default:
		if IsFloat(x.Type()) || IsFloat(y.Type()) {
			e.typ = FloatType
		} else {
			e.typ = IntType
		}
	}
	return e
}

// NewAssign returns a typed simple assignment expression.
func (p *Program) NewAssign(lhs, rhs Expr) *AssignExpr {
	e := &AssignExpr{Op: Assign, LHS: lhs, RHS: rhs}
	e.id = p.NewID()
	e.typ = lhs.Type()
	return e
}

// NewExprStmt wraps an expression in a statement.
func (p *Program) NewExprStmt(x Expr) *ExprStmt {
	s := &ExprStmt{X: x}
	s.id = p.NewID()
	return s
}

// NewBlock returns a block statement.
func (p *Program) NewBlock(stmts ...Stmt) *Block {
	b := &Block{Stmts: stmts}
	b.id = p.NewID()
	return b
}

// NewVarDecl returns a variable declaration node with a fresh id. The
// caller is responsible for creating and attaching the Symbol.
func (p *Program) NewVarDecl(name string, t Type, init Expr) *VarDecl {
	return &VarDecl{id: p.NewID(), Name: name, Type: t, Init: init}
}

// NewDeclStmt wraps declarations in a statement.
func (p *Program) NewDeclStmt(decls ...*VarDecl) *DeclStmt {
	s := &DeclStmt{Decls: decls}
	s.id = p.NewID()
	return s
}

// AssignID gives a synthesized statement or expression a fresh
// program-unique id. Passes that build nodes with struct literals must
// call it before inserting the node into the AST.
func (p *Program) AssignID(n Node) {
	if s, ok := n.(idSetter); ok {
		s.setID(p.NewID())
	}
}

// NewFuncDecl returns an empty function declaration with a fresh id. The
// caller fills Params/Body and attaches the Symbol.
func (p *Program) NewFuncDecl(name string, ret Type) *FuncDecl {
	return &FuncDecl{id: p.NewID(), Name: name, Ret: ret}
}

// NewIndex returns a typed index expression x[idx]; the element type is
// derived from x's type.
func (p *Program) NewIndex(x, idx Expr) *Index {
	e := &Index{X: x, Idx: idx}
	e.id = p.NewID()
	if elem := ElemOf(x.Type()); elem != nil {
		e.typ = elem
	}
	return e
}

// NewReuseRegion returns a ReuseRegion statement with a fresh id. The
// caller fills Inputs/Outputs/Body.
func (p *Program) NewReuseRegion(tableID, segBit int, name string) *ReuseRegion {
	r := &ReuseRegion{TableID: tableID, SegBit: segBit, SegName: name}
	r.id = p.NewID()
	return r
}
