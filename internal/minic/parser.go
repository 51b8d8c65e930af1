package minic

import (
	"fmt"
	"strconv"
)

// Parser is a recursive-descent parser for MiniC. Use Parse.
type Parser struct {
	toks      []Token
	pos       int
	prog      *Program
	err       error
	switchSeq int
}

// Parse lexes and parses src into a Program. name labels diagnostics.
// The returned program is untyped; run Check before using analyses.
func Parse(name, src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		if e, ok := err.(*Error); ok {
			e.File = name
		}
		return nil, err
	}
	p := &Parser{toks: toks, prog: &Program{Name: name}}
	prog, err := p.parseProgram()
	if err != nil {
		if e, ok := err.(*Error); ok {
			e.File = name
		}
		return nil, err
	}
	return prog, nil
}

func (p *Parser) cur() Token { return p.toks[p.pos] }
func (p *Parser) at(k TokKind) bool {
	return p.toks[p.pos].Kind == k
}
func (p *Parser) peekKind(n int) TokKind {
	if p.pos+n >= len(p.toks) {
		return EOF
	}
	return p.toks[p.pos+n].Kind
}

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != EOF {
		p.pos++
	}
	return t
}

func (p *Parser) accept(k TokKind) bool {
	if p.at(k) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expect(k TokKind) (Token, error) {
	if p.at(k) {
		return p.next(), nil
	}
	return Token{}, errf(p.cur().Pos, "expected %s, found %s", k, p.cur())
}

func (p *Parser) newStmtBase(pos Pos) stmtBase {
	return stmtBase{pos: pos, id: p.prog.NewID()}
}

func (p *Parser) newExprBase(pos Pos) exprBase {
	return exprBase{pos: pos, id: p.prog.NewID()}
}

// atTypeStart reports whether the current token can begin a type.
func (p *Parser) atTypeStart() bool {
	switch p.cur().Kind {
	case KwInt, KwFloat, KwVoid, KwStruct:
		return true
	}
	return false
}

func (p *Parser) parseProgram() (*Program, error) {
	for !p.at(EOF) {
		if p.at(KwStruct) && p.peekKind(1) == IDENT && p.peekKind(2) == LBrace {
			if err := p.parseStructDecl(); err != nil {
				return nil, err
			}
			continue
		}
		if err := p.parseTopDecl(); err != nil {
			return nil, err
		}
	}
	return p.prog, nil
}

func (p *Parser) parseStructDecl() error {
	p.next() // struct
	nameTok := p.next()
	st := &Struct{Name: nameTok.Text}
	if p.prog.StructType(st.Name) != nil {
		return errf(nameTok.Pos, "struct %s redeclared", st.Name)
	}
	// Register before parsing fields so self-referential pointers work.
	p.prog.Structs = append(p.prog.Structs, st)
	if _, err := p.expect(LBrace); err != nil {
		return err
	}
	wordOff, byteOff := 0, 0
	for !p.accept(RBrace) {
		base, err := p.parseBaseType()
		if err != nil {
			return err
		}
		for {
			ft, fname, _, err := p.parseDeclarator(base)
			if err != nil {
				return err
			}
			if st.FieldByName(fname) != nil {
				return errf(p.cur().Pos, "duplicate field %s in struct %s", fname, st.Name)
			}
			st.Fields = append(st.Fields, Field{
				Name: fname, Type: ft, WordOff: wordOff, ByteOff: byteOff,
			})
			wordOff += ft.Words()
			byteOff += ft.Bytes()
			if !p.accept(Comma) {
				break
			}
		}
		if _, err := p.expect(Semi); err != nil {
			return err
		}
	}
	_, err := p.expect(Semi)
	return err
}

// parseBaseType parses the leading type keywords of a declaration.
func (p *Parser) parseBaseType() (Type, error) {
	switch p.cur().Kind {
	case KwInt:
		p.next()
		// Coalesce width sequences: "long int", "long long", etc.
		for p.at(KwInt) {
			p.next()
		}
		return IntType, nil
	case KwFloat:
		p.next()
		return FloatType, nil
	case KwVoid:
		p.next()
		return VoidType, nil
	case KwStruct:
		p.next()
		nameTok, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		st := p.prog.StructType(nameTok.Text)
		if st == nil {
			return nil, errf(nameTok.Pos, "undefined struct %s", nameTok.Text)
		}
		return st, nil
	}
	return nil, errf(p.cur().Pos, "expected type, found %s", p.cur())
}

// parseDeclarator parses pointers, a name, array brackets, and the
// function-pointer form (*name)(params). It returns the full type, the
// declared name, and whether the declarator is a plain function signature
// head "name(" (the caller then parses a function definition).
func (p *Parser) parseDeclarator(base Type) (Type, string, bool, error) {
	t := base
	for p.accept(Star) {
		t = &Pointer{Elem: t}
	}
	// Function pointer: ( * name ) ( params )
	if p.at(LParen) && p.peekKind(1) == Star {
		p.next() // (
		p.next() // *
		nameTok, err := p.expect(IDENT)
		if err != nil {
			return nil, "", false, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, "", false, err
		}
		params, err := p.parseParamTypes()
		if err != nil {
			return nil, "", false, err
		}
		ft := &FuncType{Params: params, Ret: t}
		t = &Pointer{Elem: ft}
		return t, nameTok.Text, false, nil
	}
	nameTok, err := p.expect(IDENT)
	if err != nil {
		return nil, "", false, err
	}
	if p.at(LParen) {
		// Function definition head; leave parens for the caller.
		return t, nameTok.Text, true, nil
	}
	// Array suffixes, outermost first: int a[2][3] is array(2, array(3, int)).
	var dims []int
	for p.accept(LBracket) {
		szTok, err := p.expect(INTLIT)
		if err != nil {
			return nil, "", false, err
		}
		n, err := strconv.ParseInt(szTok.Text, 0, 64)
		if err != nil || n <= 0 {
			return nil, "", false, errf(szTok.Pos, "bad array length %q", szTok.Text)
		}
		dims = append(dims, int(n))
		if _, err := p.expect(RBracket); err != nil {
			return nil, "", false, err
		}
	}
	for i := len(dims) - 1; i >= 0; i-- {
		t = &Array{Elem: t, Len: dims[i]}
	}
	return t, nameTok.Text, false, nil
}

// parseParamTypes parses "(type, type, ...)" for function-pointer types.
func (p *Parser) parseParamTypes() ([]Type, error) {
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	var params []Type
	if p.accept(RParen) {
		return params, nil
	}
	if p.at(KwVoid) && p.peekKind(1) == RParen {
		p.next()
		p.next()
		return params, nil
	}
	for {
		base, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		t := base
		for p.accept(Star) {
			t = &Pointer{Elem: t}
		}
		// Optional parameter name in a type list is permitted and ignored.
		if p.at(IDENT) {
			p.next()
		}
		params = append(params, t)
		if p.accept(RParen) {
			return params, nil
		}
		if _, err := p.expect(Comma); err != nil {
			return nil, err
		}
	}
}

func (p *Parser) parseTopDecl() error {
	startPos := p.cur().Pos
	base, err := p.parseBaseType()
	if err != nil {
		return err
	}
	t, name, isFunc, err := p.parseDeclarator(base)
	if err != nil {
		return err
	}
	if isFunc {
		return p.parseFuncDecl(startPos, t, name)
	}
	// Global variable declaration list.
	for {
		g := &VarDecl{pos: startPos, id: p.prog.NewID(), Name: name, Type: t}
		if p.accept(Assign) {
			if p.at(LBrace) {
				list, err := p.parseInitList()
				if err != nil {
					return err
				}
				g.InitList = list
			} else {
				e, err := p.parseAssignExpr()
				if err != nil {
					return err
				}
				g.Init = e
			}
		}
		p.prog.Globals = append(p.prog.Globals, g)
		if !p.accept(Comma) {
			break
		}
		t, name, isFunc, err = p.parseDeclarator(base)
		if err != nil {
			return err
		}
		if isFunc {
			return errf(p.cur().Pos, "function declarator in variable list")
		}
	}
	_, err = p.expect(Semi)
	return err
}

// parseInitList parses a (possibly nested) brace initializer and flattens
// it: {{1,2},{3,4}} yields 1,2,3,4, matching the flattened array storage.
func (p *Parser) parseInitList() ([]Expr, error) {
	if _, err := p.expect(LBrace); err != nil {
		return nil, err
	}
	var out []Expr
	for !p.at(RBrace) {
		if p.at(LBrace) {
			inner, err := p.parseInitList()
			if err != nil {
				return nil, err
			}
			out = append(out, inner...)
		} else {
			e, err := p.parseAssignExpr()
			if err != nil {
				return nil, err
			}
			out = append(out, e)
		}
		if !p.accept(Comma) {
			break
		}
	}
	if _, err := p.expect(RBrace); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *Parser) parseFuncDecl(pos Pos, ret Type, name string) error {
	fd := &FuncDecl{pos: pos, id: p.prog.NewID(), Name: name, Ret: ret}
	if _, err := p.expect(LParen); err != nil {
		return err
	}
	if !p.accept(RParen) {
		if p.at(KwVoid) && p.peekKind(1) == RParen {
			p.next()
			p.next()
		} else {
			for {
				base, err := p.parseBaseType()
				if err != nil {
					return err
				}
				pt, pname, isFn, err := p.parseDeclarator(base)
				if err != nil {
					return err
				}
				if isFn {
					return errf(p.cur().Pos, "bad parameter declarator")
				}
				// Array parameters decay to pointers, as in C.
				if at, ok := pt.(*Array); ok {
					pt = &Pointer{Elem: at.Elem}
				}
				fd.Params = append(fd.Params, &VarDecl{
					pos: p.cur().Pos, id: p.prog.NewID(), Name: pname, Type: pt,
				})
				if p.accept(RParen) {
					break
				}
				if _, err := p.expect(Comma); err != nil {
					return err
				}
			}
		}
	}
	// Prototype (declaration without body) is accepted and discarded;
	// MiniC resolves calls against definitions.
	if p.accept(Semi) {
		return nil
	}
	body, err := p.parseBlock()
	if err != nil {
		return err
	}
	fd.Body = body
	if p.prog.Func(name) != nil {
		return errf(pos, "function %s redefined", name)
	}
	p.prog.Funcs = append(p.prog.Funcs, fd)
	return nil
}

// ---------------------------------------------------------------------------
// Statements

func (p *Parser) parseBlock() (*Block, error) {
	lb, err := p.expect(LBrace)
	if err != nil {
		return nil, err
	}
	b := &Block{stmtBase: p.newStmtBase(lb.Pos)}
	for !p.accept(RBrace) {
		if p.at(EOF) {
			return nil, errf(p.cur().Pos, "unexpected EOF in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	return b, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	pos := p.cur().Pos
	switch p.cur().Kind {
	case LBrace:
		return p.parseBlock()
	case Semi:
		p.next()
		return &EmptyStmt{stmtBase: p.newStmtBase(pos)}, nil
	case KwIf:
		return p.parseIf()
	case KwWhile:
		return p.parseWhile()
	case KwDo:
		return p.parseDoWhile()
	case KwFor:
		return p.parseFor()
	case KwBreak:
		p.next()
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &BreakStmt{stmtBase: p.newStmtBase(pos)}, nil
	case KwContinue:
		p.next()
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &ContinueStmt{stmtBase: p.newStmtBase(pos)}, nil
	case KwSwitch:
		return p.parseSwitch()
	case KwReturn:
		p.next()
		rs := &ReturnStmt{stmtBase: p.newStmtBase(pos)}
		if !p.at(Semi) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			rs.X = e
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return rs, nil
	}
	if p.atTypeStart() {
		ds, err := p.parseDeclStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return ds, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	es := &ExprStmt{stmtBase: p.newStmtBase(pos), X: e}
	return es, nil
}

func (p *Parser) parseDeclStmt() (*DeclStmt, error) {
	pos := p.cur().Pos
	base, err := p.parseBaseType()
	if err != nil {
		return nil, err
	}
	ds := &DeclStmt{stmtBase: p.newStmtBase(pos)}
	for {
		t, name, isFn, err := p.parseDeclarator(base)
		if err != nil {
			return nil, err
		}
		if isFn {
			return nil, errf(p.cur().Pos, "nested function declarations are not supported")
		}
		d := &VarDecl{pos: pos, id: p.prog.NewID(), Name: name, Type: t}
		if p.accept(Assign) {
			if p.at(LBrace) {
				list, err := p.parseInitList()
				if err != nil {
					return nil, err
				}
				d.InitList = list
			} else {
				e, err := p.parseAssignExpr()
				if err != nil {
					return nil, err
				}
				d.Init = e
			}
		}
		ds.Decls = append(ds.Decls, d)
		if !p.accept(Comma) {
			break
		}
	}
	return ds, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	pos := p.next().Pos // if
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	s := &IfStmt{stmtBase: p.newStmtBase(pos), Cond: cond}
	s.Then, err = p.parseStmt()
	if err != nil {
		return nil, err
	}
	if p.accept(KwElse) {
		s.Else, err = p.parseStmt()
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	pos := p.next().Pos // while
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	s := &WhileStmt{stmtBase: p.newStmtBase(pos), Cond: cond}
	s.Body, err = p.parseStmt()
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (p *Parser) parseDoWhile() (Stmt, error) {
	pos := p.next().Pos // do
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(KwWhile); err != nil {
		return nil, err
	}
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	s := &WhileStmt{stmtBase: p.newStmtBase(pos), Cond: cond, Body: body, DoWhile: true}
	return s, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	pos := p.next().Pos // for
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	s := &ForStmt{stmtBase: p.newStmtBase(pos)}
	if !p.at(Semi) {
		if p.atTypeStart() {
			ds, err := p.parseDeclStmt()
			if err != nil {
				return nil, err
			}
			s.Init = ds
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.Init = &ExprStmt{stmtBase: p.newStmtBase(e.Pos()), X: e}
		}
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	if !p.at(Semi) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Cond = e
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	if !p.at(RParen) {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Post = e
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	s.Body = body
	return s, nil
}

// ---------------------------------------------------------------------------
// Expressions

// parseExpr parses a full expression. MiniC has no comma operator; the
// comma only separates arguments and declarators.
func (p *Parser) parseExpr() (Expr, error) { return p.parseAssignExpr() }

var assignOps = map[TokKind]bool{
	Assign: true, PlusEq: true, MinusEq: true, StarEq: true, SlashEq: true,
	PercentEq: true, ShlEq: true, ShrEq: true, AndEq: true, OrEq: true, XorEq: true,
}

func (p *Parser) parseAssignExpr() (Expr, error) {
	lhs, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if assignOps[p.cur().Kind] {
		opTok := p.next()
		rhs, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		a := &AssignExpr{exprBase: p.newExprBase(opTok.Pos), Op: opTok.Kind, LHS: lhs, RHS: rhs}
		return a, nil
	}
	return lhs, nil
}

func (p *Parser) parseTernary() (Expr, error) {
	cond, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.at(Question) {
		return cond, nil
	}
	qTok := p.next()
	thenE, err := p.parseAssignExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(Colon); err != nil {
		return nil, err
	}
	elseE, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	c := &Cond{exprBase: p.newExprBase(qTok.Pos), Cond: cond, Then: thenE, Else: elseE}
	return c, nil
}

// binPrec maps binary operators to precedence levels; higher binds tighter.
var binPrec = map[TokKind]int{
	OrOr:   1,
	AndAnd: 2,
	Pipe:   3,
	Caret:  4,
	Amp:    5,
	EqEq:   6, NotEq: 6,
	Lt: 7, Gt: 7, Le: 7, Ge: 7,
	Shl: 8, Shr: 8,
	Plus: 9, Minus: 9,
	Star: 10, Slash: 10, Percent: 10,
}

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		prec, ok := binPrec[p.cur().Kind]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		opTok := p.next()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		b := &Binary{exprBase: p.newExprBase(opTok.Pos), Op: opTok.Kind, X: lhs, Y: rhs}
		lhs = b
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	pos := p.cur().Pos
	switch p.cur().Kind {
	case Not, Tilde, Minus, Plus, Star, Amp:
		opTok := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		u := &Unary{exprBase: p.newExprBase(opTok.Pos), Op: opTok.Kind, X: x}
		return u, nil
	case Inc, Dec:
		opTok := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		u := &IncDec{exprBase: p.newExprBase(opTok.Pos), Op: opTok.Kind, X: x}
		return u, nil
	case KwSizeof:
		p.next()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		base, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		t := base
		for p.accept(Star) {
			t = &Pointer{Elem: t}
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		s := &SizeofExpr{exprBase: p.newExprBase(pos), T: t}
		return s, nil
	case LParen:
		// Cast or parenthesized expression.
		if k := p.peekKind(1); k == KwInt || k == KwFloat || k == KwVoid || k == KwStruct {
			p.next() // (
			base, err := p.parseBaseType()
			if err != nil {
				return nil, err
			}
			t := base
			for p.accept(Star) {
				t = &Pointer{Elem: t}
			}
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			c := &Cast{exprBase: p.newExprBase(pos), To: t, X: x}
			return c, nil
		}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		pos := p.cur().Pos
		switch p.cur().Kind {
		case LParen:
			p.next()
			call := &Call{exprBase: p.newExprBase(pos), Fun: x}
			if !p.accept(RParen) {
				for {
					arg, err := p.parseAssignExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, arg)
					if p.accept(RParen) {
						break
					}
					if _, err := p.expect(Comma); err != nil {
						return nil, err
					}
				}
			}
			x = call
		case LBracket:
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBracket); err != nil {
				return nil, err
			}
			ix := &Index{exprBase: p.newExprBase(pos), X: x, Idx: idx}
			x = ix
		case Dot, Arrow:
			arrow := p.next().Kind == Arrow
			nameTok, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			f := &FieldExpr{exprBase: p.newExprBase(pos), X: x, Name: nameTok.Text, Arrow: arrow}
			x = f
		case Inc, Dec:
			opTok := p.next()
			u := &IncDec{exprBase: p.newExprBase(pos), Op: opTok.Kind, Post: true, X: x}
			x = u
		default:
			return x, nil
		}
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	tok := p.cur()
	switch tok.Kind {
	case IDENT:
		p.next()
		return &Ident{exprBase: p.newExprBase(tok.Pos), Name: tok.Text}, nil
	case INTLIT:
		p.next()
		v, err := strconv.ParseInt(tok.Text, 0, 64)
		if err != nil {
			// Out-of-range literals saturate rather than failing the parse.
			v = int64(^uint64(0) >> 1)
		}
		return &IntLit{exprBase: p.newExprBase(tok.Pos), Val: v}, nil
	case FLOATLIT:
		p.next()
		v, err := strconv.ParseFloat(tok.Text, 64)
		if err != nil {
			return nil, errf(tok.Pos, "bad float literal %q", tok.Text)
		}
		return &FloatLit{exprBase: p.newExprBase(tok.Pos), Val: v}, nil
	case CHARLIT:
		p.next()
		return &IntLit{exprBase: p.newExprBase(tok.Pos), Val: int64(tok.Text[0])}, nil
	case STRLIT:
		p.next()
		return &StrLit{exprBase: p.newExprBase(tok.Pos), Val: tok.Text}, nil
	case LParen:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, errf(tok.Pos, "unexpected %s in expression", tok)
}

// ---------------------------------------------------------------------------
// switch statements
//
// MiniC supports the common break-terminated form of C's switch and
// desugars it at parse time into a scrutinee temporary plus an if/else
// chain, so every later phase (checking, analyses, the VM) sees only core
// constructs:
//
//	switch (e) {                     {
//	case 1:                              int __switchN = e;
//	case 2: body2; break;     =>         if (__switchN == 1 || __switchN == 2) { body2; }
//	default: bodyD;                      else { bodyD; }
//	}                                }
//
// Restrictions (diagnosed): every non-empty case must end with break or
// return (no fall-through into another case's body), break may not appear
// elsewhere at the top level of a case, and labels must be integer or
// character constants.

func (p *Parser) parseSwitch() (Stmt, error) {
	pos := p.next().Pos // switch
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	scrut, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(LBrace); err != nil {
		return nil, err
	}

	// The scrutinee temporary.
	name := fmt.Sprintf("__switch%d", p.switchSeq)
	p.switchSeq++
	tmp := &VarDecl{pos: pos, id: p.prog.NewID(), Name: name, Type: IntType, Init: scrut}
	decl := &DeclStmt{stmtBase: p.newStmtBase(pos), Decls: []*VarDecl{tmp}}
	tmpRef := func() *Ident {
		return &Ident{exprBase: p.newExprBase(pos), Name: name}
	}

	type arm struct {
		labels []Expr // nil for default
		body   []Stmt
		isDef  bool
		// closed marks an explicitly terminated arm ("case 1: break;"),
		// which must NOT merge its labels into the next arm.
		closed bool
	}
	var arms []arm

	for !p.accept(RBrace) {
		if p.at(EOF) {
			return nil, errf(p.cur().Pos, "unexpected EOF in switch")
		}
		var a arm
		// Collect the (possibly shared) labels.
		for {
			switch {
			case p.accept(KwCase):
				lab, err := p.parseTernary()
				if err != nil {
					return nil, err
				}
				if !isIntConstLabel(lab) {
					return nil, errf(lab.Pos(), "switch case label must be an integer constant")
				}
				a.labels = append(a.labels, lab)
			case p.accept(KwDefault):
				a.isDef = true
			default:
				return nil, errf(p.cur().Pos, "expected case or default in switch, found %s", p.cur())
			}
			if _, err := p.expect(Colon); err != nil {
				return nil, err
			}
			if !p.at(KwCase) && !p.at(KwDefault) {
				break
			}
		}
		// Collect the body up to the next label or the closing brace.
		terminated := false
		for !p.at(KwCase) && !p.at(KwDefault) && !p.at(RBrace) {
			if p.at(KwBreak) {
				brPos := p.next().Pos
				if _, err := p.expect(Semi); err != nil {
					return nil, err
				}
				if !p.at(KwCase) && !p.at(KwDefault) && !p.at(RBrace) {
					return nil, errf(brPos, "break must be the last statement of a switch case")
				}
				terminated = true
				break
			}
			st, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			a.body = append(a.body, st)
			if _, isRet := st.(*ReturnStmt); isRet {
				terminated = true
				break
			}
		}
		if len(a.body) > 0 && !terminated && !p.at(RBrace) {
			return nil, errf(pos, "switch case falls through; end it with break or return")
		}
		a.closed = terminated
		arms = append(arms, a)
	}

	// Merge label-only arms into the following body (case 1: case 2: body).
	// Explicitly closed empty arms ("case 1: break;") stand alone.
	var merged []arm
	for i := 0; i < len(arms); i++ {
		a := arms[i]
		for len(a.body) == 0 && !a.closed && !a.isDef && i+1 < len(arms) {
			next := arms[i+1]
			a.labels = append(a.labels, next.labels...)
			a.body = next.body
			a.isDef = next.isDef
			a.closed = next.closed
			i++
		}
		merged = append(merged, a)
	}

	// Build the if/else chain, last arm first.
	var chain Stmt
	for i := len(merged) - 1; i >= 0; i-- {
		a := merged[i]
		body := &Block{stmtBase: p.newStmtBase(pos), Stmts: a.body}
		if a.isDef {
			if chain != nil {
				return nil, errf(pos, "default must be the last arm of a switch")
			}
			chain = body
			continue
		}
		if len(a.labels) == 0 {
			continue
		}
		var cond Expr
		for _, lab := range a.labels {
			eq := &Binary{exprBase: p.newExprBase(pos), Op: EqEq, X: tmpRef(), Y: lab}
			if cond == nil {
				cond = eq
			} else {
				cond = &Binary{exprBase: p.newExprBase(pos), Op: OrOr, X: cond, Y: eq}
			}
		}
		ifs := &IfStmt{stmtBase: p.newStmtBase(pos), Cond: cond, Then: body, Else: chain}
		chain = ifs
	}
	out := &Block{stmtBase: p.newStmtBase(pos), Stmts: []Stmt{decl}}
	if chain != nil {
		out.Stmts = append(out.Stmts, chain)
	}
	return out, nil
}

// isIntConstLabel accepts integer and (negated) integer constants as
// switch labels.
func isIntConstLabel(e Expr) bool {
	switch x := e.(type) {
	case *IntLit:
		return true
	case *Unary:
		if x.Op == Minus {
			_, ok := x.X.(*IntLit)
			return ok
		}
	}
	return false
}
