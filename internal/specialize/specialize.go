// Package specialize implements the paper's code specialization (§2.4):
// "to reduce the hashing overhead, we apply code specialization to reduce
// the number of inputs and/or outputs of the candidate code segments.
// Specialization makes multiple versions of a code segment. In certain
// versions, some input variables become invariants."
//
// The motivating case is G721's quan(val, table, size): most call sites
// pass size == 15 and table == power2 (an invariant array), so a
// specialized quan with a single input val is created and those call sites
// are redirected to it (paper Fig. 2a vs Fig. 4).
//
// A parameter is specialized away when every targeted call site passes
// the same integer literal, or the same invariant global (an array or
// scalar never written after the program's initialization phase). Call
// sites that disagree keep calling the original function.
package specialize

import (
	"fmt"
	"sort"

	"compreuse/internal/callgraph"
	"compreuse/internal/dataflow"
	"compreuse/internal/minic"
	"compreuse/internal/pointer"
)

// Result reports what the pass did.
type Result struct {
	// Created lists the specialized functions, in creation order.
	Created []*minic.FuncDecl
	// Redirected counts rewritten call sites.
	Redirected int
}

// Options tunes the pass.
type Options struct {
	// MinSites is the minimum number of agreeing call sites required
	// before a specialization is created (default 1).
	MinSites int
}

// Run specializes functions of prog in place. It needs the pointer
// analysis and call graph to identify invariant globals and call sites.
func Run(prog *minic.Program, pts *pointer.Analysis, cg *callgraph.Graph,
	eff *dataflow.Effects, opts Options) *Result {
	if opts.MinSites == 0 {
		opts.MinSites = 1
	}
	sp := &specializer{prog: prog, pts: pts, cg: cg, eff: eff, opts: opts}
	sp.findInvariantGlobals()
	res := &Result{}
	// Iterate over a snapshot: created functions are not re-specialized.
	fns := append([]*minic.FuncDecl(nil), prog.Funcs...)
	for _, fn := range fns {
		sp.specializeFunc(fn, res)
	}
	return res
}

type specializer struct {
	prog *minic.Program
	pts  *pointer.Analysis
	cg   *callgraph.Graph
	eff  *dataflow.Effects
	opts Options
	// invGlobal marks globals never written by any function (only global
	// initializers or nothing touch them), the conservative core of the
	// code coverage analysis used here.
	invGlobal map[*minic.Symbol]bool
	seq       int
}

func (sp *specializer) findInvariantGlobals() {
	sp.invGlobal = map[*minic.Symbol]bool{}
	gdu := sp.eff.BuildGlobalDefUse()
	for _, g := range sp.prog.Globals {
		if len(gdu.WritersOf(g.Sym)) == 0 {
			sp.invGlobal[g.Sym] = true
		}
	}
}

// argSpec describes a specializable argument value.
type argSpec struct {
	lit    *minic.IntLit // same integer literal at every site
	global *minic.Symbol // same invariant global at every site
}

func (a argSpec) key() string {
	if a.lit != nil {
		return fmt.Sprintf("#%d", a.lit.Val)
	}
	if a.global != nil {
		return "@" + a.global.Name
	}
	return "?"
}

// classifyArg recognizes a specializable argument expression.
func (sp *specializer) classifyArg(e minic.Expr) (argSpec, bool) {
	switch e := e.(type) {
	case *minic.IntLit:
		return argSpec{lit: e}, true
	case *minic.Ident:
		if e.Sym != nil && e.Sym.Kind == minic.SymGlobal && sp.invGlobal[e.Sym] {
			return argSpec{global: e.Sym}, true
		}
	}
	return argSpec{}, false
}

func (sp *specializer) specializeFunc(fn *minic.FuncDecl, res *Result) {
	if fn.Body == nil || len(fn.Params) < 2 {
		return
	}
	// Collect direct call sites.
	type site struct {
		call *minic.Call
	}
	var sites []site
	for _, e := range sp.cg.Edges {
		if e.Callee == fn && !e.Indirect && e.Site != nil {
			sites = append(sites, site{call: e.Site})
		}
	}
	if len(sites) < sp.opts.MinSites {
		return
	}
	// Recursive functions are not specialized (their self-calls would need
	// rewriting inside the clone).
	if sp.cg.InCycle(fn) {
		return
	}

	// Group call sites by their specializable argument tuple; specialize
	// for the largest group.
	groups := map[string][]*minic.Call{}
	groupSpec := map[string]map[int]argSpec{}
	for _, st := range sites {
		specs := map[int]argSpec{}
		var key string
		for i := range fn.Params {
			if i >= len(st.call.Args) {
				break
			}
			if as, ok := sp.classifyArg(st.call.Args[i]); ok {
				specs[i] = as
				key += fmt.Sprintf("%d=%s;", i, as.key())
			}
		}
		if len(specs) == 0 {
			continue
		}
		// At least one parameter must remain live (the paper's quan keeps
		// val). When every argument is specializable, keep the first
		// literal-valued parameter — literals at one site typically vary
		// across sites, as quan's val does — falling back to the first
		// parameter.
		if len(specs) == len(fn.Params) {
			drop := -1
			for i := range fn.Params {
				if specs[i].lit != nil {
					drop = i
					break
				}
			}
			if drop == -1 {
				drop = 0
			}
			delete(specs, drop)
			key = ""
			for i := range fn.Params {
				if as, ok := specs[i]; ok {
					key += fmt.Sprintf("%d=%s;", i, as.key())
				}
			}
		}
		groups[key] = append(groups[key], st.call)
		groupSpec[key] = specs
	}
	var bestKey string
	for k, calls := range groups {
		if bestKey == "" || len(calls) > len(groups[bestKey]) ||
			(len(calls) == len(groups[bestKey]) && k < bestKey) {
			bestKey = k
		}
	}
	if bestKey == "" || len(groups[bestKey]) < sp.opts.MinSites {
		return
	}
	specs := groupSpec[bestKey]

	clone := sp.cloneSpecialized(fn, specs)
	sp.prog.Funcs = append(sp.prog.Funcs, clone)
	res.Created = append(res.Created, clone)

	// Redirect the agreeing call sites.
	kept := keptParams(fn, specs)
	for _, call := range groups[bestKey] {
		var args []minic.Expr
		for _, i := range kept {
			args = append(args, call.Args[i])
		}
		call.Fun = sp.prog.NewIdent(clone.Sym)
		call.Args = args
		res.Redirected++
	}
}

func keptParams(fn *minic.FuncDecl, specs map[int]argSpec) []int {
	var kept []int
	for i := range fn.Params {
		if _, ok := specs[i]; !ok {
			kept = append(kept, i)
		}
	}
	sort.Ints(kept)
	return kept
}

// cloneSpecialized builds the specialized clone of fn: dropped parameters
// are substituted by their literal or invariant-global expression.
func (sp *specializer) cloneSpecialized(fn *minic.FuncDecl, specs map[int]argSpec) *minic.FuncDecl {
	sp.seq++
	name := fmt.Sprintf("%s__spec%d", fn.Name, sp.seq)

	c := &cloner{prog: sp.prog, symMap: map[*minic.Symbol]*minic.Symbol{}, subst: map[*minic.Symbol]func() minic.Expr{}}
	nf := sp.prog.NewFuncDecl(name, fn.Ret)

	for i, p := range fn.Params {
		if as, ok := specs[i]; ok {
			old := p.Sym
			switch {
			case as.lit != nil:
				v := as.lit.Val
				c.subst[old] = func() minic.Expr { return sp.prog.NewIntLit(v) }
			case as.global != nil:
				g := as.global
				c.subst[old] = func() minic.Expr { return sp.prog.NewIdent(g) }
			}
			continue
		}
		np := sp.prog.NewVarDecl(p.Name, p.Type, nil)
		np.Sym = &minic.Symbol{
			Name: p.Name, Kind: minic.SymParam, Type: p.Type,
			Slot: nf.FrameWords, Func: nf,
			AddrTaken: p.Sym.AddrTaken,
		}
		c.symMap[p.Sym] = np.Sym
		nf.FrameWords += p.Type.Words()
		nf.Params = append(nf.Params, np)
	}
	c.fn = nf
	nf.Body = c.cloneStmt(fn.Body).(*minic.Block)

	nf.Sym = &minic.Symbol{Name: name, Kind: minic.SymFunc, Type: nf.FuncType(), FuncDecl: nf}
	return nf
}
