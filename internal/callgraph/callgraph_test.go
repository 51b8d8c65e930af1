package callgraph

import (
	"testing"

	"compreuse/internal/minic"
	"compreuse/internal/pointer"
)

func build(t *testing.T, src string) (*minic.Program, *Graph) {
	t.Helper()
	prog, err := minic.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := minic.Check(prog); err != nil {
		t.Fatal(err)
	}
	return prog, Build(prog, pointer.Analyze(prog))
}

func names(fns []*minic.FuncDecl) map[string]bool {
	m := map[string]bool{}
	for _, f := range fns {
		m[f.Name] = true
	}
	return m
}

// sccOf returns the index of fn's component in g.SCCs, or -1.
func sccOf(g *Graph, fn *minic.FuncDecl) int {
	for i, comp := range g.SCCs {
		for _, f := range comp {
			if f == fn {
				return i
			}
		}
	}
	return -1
}

func TestDirectEdges(t *testing.T) {
	prog, g := build(t, `
int a(void) { return 1; }
int b(void) { return a(); }
int main(void) { return a() + b(); }`)
	m := names(g.Callees(prog.Func("main")))
	if !m["a"] || !m["b"] || len(m) != 2 {
		t.Fatalf("main callees: %v", m)
	}
	cb := map[string]bool{}
	for _, e := range g.Edges {
		if e.Callee == prog.Func("a") {
			cb[e.Caller.Name] = true
		}
	}
	if !cb["main"] || !cb["b"] || len(cb) != 2 {
		t.Fatalf("a callers: %v", cb)
	}
}

func TestBuiltinsExcluded(t *testing.T) {
	prog, g := build(t, `int main(void) { print_int(1); return 0; }`)
	if len(g.Callees(prog.Func("main"))) != 0 {
		t.Fatal("builtins must not appear in the call graph")
	}
}

func TestIndirectEdges(t *testing.T) {
	prog, g := build(t, `
int f1(int v) { return v; }
int f2(int v) { return v + 1; }
int main(void) {
    int (*op)(int) = f1;
    op = f2;
    return op(3);
}`)
	m := names(g.Callees(prog.Func("main")))
	if !m["f1"] || !m["f2"] {
		t.Fatalf("indirect callees: %v", m)
	}
	// Edges for indirect calls carry the flag.
	found := false
	for _, e := range g.Edges {
		if e.Indirect {
			found = true
		}
	}
	if !found {
		t.Fatal("no indirect edge recorded")
	}
}

func TestSelfRecursionSCC(t *testing.T) {
	prog, g := build(t, `
int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }
int main(void) { return fact(5); }`)
	if !g.InCycle(prog.Func("fact")) {
		t.Fatal("fact is recursive")
	}
	if g.InCycle(prog.Func("main")) {
		t.Fatal("main is not recursive")
	}
}

func TestMutualRecursionSCC(t *testing.T) {
	prog, g := build(t, `
int isOdd(int n);
int isEven(int n) { if (n == 0) return 1; return isOdd(n - 1); }
int isOdd(int n) { if (n == 0) return 0; return isEven(n - 1); }
int standalone(void) { return 7; }
int main(void) { return isEven(10) + standalone(); }`)
	e, o := prog.Func("isEven"), prog.Func("isOdd")
	if sccOf(g, e) < 0 || sccOf(g, e) != sccOf(g, o) {
		t.Fatal("mutually recursive functions must share an SCC")
	}
	if len(g.SCCs[sccOf(g, e)]) != 2 {
		t.Fatalf("SCC size = %d, want 2", len(g.SCCs[sccOf(g, e)]))
	}
	if sccOf(g, prog.Func("standalone")) == sccOf(g, e) {
		t.Fatal("standalone must be in its own SCC")
	}
	if !g.InCycle(e) || !g.InCycle(o) {
		t.Fatal("InCycle must be true for both")
	}
}

func TestSCCReverseTopologicalOrder(t *testing.T) {
	prog, g := build(t, `
int leaf(void) { return 1; }
int mid(void) { return leaf(); }
int main(void) { return mid(); }`)
	// Callees must appear before callers.
	leafIdx := sccOf(g, prog.Func("leaf"))
	midIdx := sccOf(g, prog.Func("mid"))
	mainIdx := sccOf(g, prog.Func("main"))
	if !(0 <= leafIdx && leafIdx < midIdx && midIdx < mainIdx) {
		t.Fatalf("SCC order: leaf=%d mid=%d main=%d", leafIdx, midIdx, mainIdx)
	}
}

func TestReachable(t *testing.T) {
	prog, g := build(t, `
int used(void) { return 1; }
int dead(void) { return 2; }
int main(void) { return used(); }`)
	r := g.Reachable(prog.Func("main"))
	if !r[prog.Func("used")] || r[prog.Func("dead")] {
		t.Fatalf("reachability wrong: %v", r)
	}
}

func TestDedupEdges(t *testing.T) {
	prog, g := build(t, `
int f(void) { return 1; }
int main(void) { return f() + f() + f(); }`)
	if len(g.Edges) != 3 {
		t.Fatalf("edges (per site) = %d, want 3", len(g.Edges))
	}
	if len(g.Callees(prog.Func("main"))) != 1 {
		t.Fatal("adjacency must be deduplicated")
	}
}
