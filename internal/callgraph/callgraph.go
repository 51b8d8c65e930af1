// Package callgraph builds the interprocedural call graph of a MiniC
// program, resolving function pointers through the points-to analysis, and
// computes its strongly connected components (recursive function groups)
// with Tarjan's algorithm — the paper's "call graph construction" module
// (§3.1: "we take into account function pointers and recursive functions;
// for recursive functions we compute their SCC").
package callgraph

import (
	"sort"

	"compreuse/internal/minic"
	"compreuse/internal/pointer"
)

// Edge is one call site.
type Edge struct {
	Caller *minic.FuncDecl
	Callee *minic.FuncDecl
	// Site is the call expression (nil for synthesized edges).
	Site *minic.Call
	// Indirect marks calls through function pointers.
	Indirect bool
}

// Graph is a program call graph.
type Graph struct {
	Prog  *minic.Program
	Edges []Edge
	// calleesOf is the adjacency map (deduplicated, determinate order).
	calleesOf map[*minic.FuncDecl][]*minic.FuncDecl
	// SCCs lists the strongly connected components in reverse topological
	// order (callees before callers), each sorted by name.
	SCCs [][]*minic.FuncDecl
	// sccIndex maps a function to its component index in SCCs.
	sccIndex map[*minic.FuncDecl]int
}

// Build constructs the call graph using pts to resolve indirect calls.
func Build(prog *minic.Program, pts *pointer.Analysis) *Graph {
	g := &Graph{
		Prog:      prog,
		calleesOf: map[*minic.FuncDecl][]*minic.FuncDecl{},
		sccIndex:  map[*minic.FuncDecl]int{},
	}
	seen := map[[2]*minic.FuncDecl]bool{}
	addEdge := func(e Edge) {
		g.Edges = append(g.Edges, e)
		k := [2]*minic.FuncDecl{e.Caller, e.Callee}
		if !seen[k] {
			seen[k] = true
			g.calleesOf[e.Caller] = append(g.calleesOf[e.Caller], e.Callee)
		}
	}
	for _, fn := range prog.Funcs {
		if fn.Body == nil {
			continue
		}
		caller := fn
		minic.InspectExprs(fn.Body, func(e minic.Expr) bool {
			c, ok := e.(*minic.Call)
			if !ok {
				return true
			}
			indirect := true
			if id, ok := c.Fun.(*minic.Ident); ok && id.Sym != nil && id.Sym.Kind == minic.SymFunc {
				indirect = false
				if id.Sym.FuncDecl == nil {
					return true // builtin
				}
			}
			for _, callee := range pts.CallTargets(c) {
				addEdge(Edge{Caller: caller, Callee: callee, Site: c, Indirect: indirect})
			}
			return true
		})
	}
	g.computeSCCs()
	return g
}

// Callees returns fn's unique callees in first-seen order.
func (g *Graph) Callees(fn *minic.FuncDecl) []*minic.FuncDecl { return g.calleesOf[fn] }

// InCycle reports whether fn is (mutually) recursive: its SCC has more than
// one member, or it calls itself directly.
func (g *Graph) InCycle(fn *minic.FuncDecl) bool {
	idx, ok := g.sccIndex[fn]
	if !ok {
		return false
	}
	if len(g.SCCs[idx]) > 1 {
		return true
	}
	for _, c := range g.calleesOf[fn] {
		if c == fn {
			return true
		}
	}
	return false
}

// computeSCCs runs Tarjan's algorithm over the program's functions.
// Iteration order is the declaration order, so output is deterministic.
func (g *Graph) computeSCCs() {
	index := map[*minic.FuncDecl]int{}
	low := map[*minic.FuncDecl]int{}
	onStack := map[*minic.FuncDecl]bool{}
	var stack []*minic.FuncDecl
	next := 0

	var strongconnect func(v *minic.FuncDecl)
	strongconnect = func(v *minic.FuncDecl) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range g.calleesOf[v] {
			if _, visited := index[w]; !visited {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []*minic.FuncDecl
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Slice(comp, func(i, j int) bool { return comp[i].Name < comp[j].Name })
			for _, f := range comp {
				g.sccIndex[f] = len(g.SCCs)
			}
			g.SCCs = append(g.SCCs, comp)
		}
	}
	for _, fn := range g.Prog.Funcs {
		if _, visited := index[fn]; !visited {
			strongconnect(fn)
		}
	}
}

// Reachable returns the set of functions reachable from root (inclusive).
func (g *Graph) Reachable(root *minic.FuncDecl) map[*minic.FuncDecl]bool {
	seen := map[*minic.FuncDecl]bool{}
	var visit func(fn *minic.FuncDecl)
	visit = func(fn *minic.FuncDecl) {
		if seen[fn] {
			return
		}
		seen[fn] = true
		for _, c := range g.calleesOf[fn] {
			visit(c)
		}
	}
	visit(root)
	return seen
}
