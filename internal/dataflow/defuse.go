package dataflow

import "compreuse/internal/minic"

// GlobalDefUse is the interprocedural layer: for every global (or
// escaping) symbol it lists the functions that may define it and the
// functions that may use it, so a def in one procedure can be linked to a
// use in another.
type GlobalDefUse struct {
	// DefFns maps a symbol to the functions that may write it.
	DefFns map[*minic.Symbol][]*minic.FuncDecl
	// UseFns maps a symbol to the functions that may read it.
	UseFns map[*minic.Symbol][]*minic.FuncDecl
}

// BuildGlobalDefUse derives the program-wide def-use summary from the
// mod/ref sets.
func (e *Effects) BuildGlobalDefUse() *GlobalDefUse {
	g := &GlobalDefUse{
		DefFns: map[*minic.Symbol][]*minic.FuncDecl{},
		UseFns: map[*minic.Symbol][]*minic.FuncDecl{},
	}
	for _, fn := range e.Prog.Funcs {
		mr := e.FuncModRef(fn)
		for _, sym := range mr.Mod.Sorted() {
			g.DefFns[sym] = append(g.DefFns[sym], fn)
		}
		for _, sym := range mr.Ref.Sorted() {
			g.UseFns[sym] = append(g.UseFns[sym], fn)
		}
	}
	return g
}

// WritersOf returns the functions that may write sym.
func (g *GlobalDefUse) WritersOf(sym *minic.Symbol) []*minic.FuncDecl { return g.DefFns[sym] }
