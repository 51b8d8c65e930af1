package pointer

import (
	"testing"

	"compreuse/internal/minic"
)

func analyze(t *testing.T, src string) (*minic.Program, *Analysis) {
	t.Helper()
	prog, err := minic.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := minic.Check(prog); err != nil {
		t.Fatal(err)
	}
	return prog, Analyze(prog)
}

func symOf(t *testing.T, prog *minic.Program, fn, name string) *minic.Symbol {
	t.Helper()
	if fn == "" {
		if g := prog.Global(name); g != nil {
			return g.Sym
		}
		t.Fatalf("no global %s", name)
	}
	f := prog.Func(fn)
	for _, p := range f.Params {
		if p.Name == name {
			return p.Sym
		}
	}
	for _, id := range minic.Idents(f.Body) {
		if id.Name == name && id.Sym != nil {
			return id.Sym
		}
	}
	t.Fatalf("no symbol %s in %s", name, fn)
	return nil
}

func hasSym(syms []*minic.Symbol, name string) bool {
	for _, s := range syms {
		if s.Name == name {
			return true
		}
	}
	return false
}

func TestAddressOf(t *testing.T) {
	prog, a := analyze(t, `
int x;
int y;
int *p;
int main(void) { p = &x; return *p; }`)
	pts := a.PointsTo(symOf(t, prog, "", "p"))
	if !hasSym(pts, "x") {
		t.Fatalf("p points to %v, want x", pts)
	}
	if hasSym(pts, "y") {
		t.Fatalf("p must not point to y: %v", pts)
	}
}

func TestCopyPropagation(t *testing.T) {
	prog, a := analyze(t, `
int x;
int *p;
int *q;
int main(void) { p = &x; q = p; return *q; }`)
	if !hasSym(a.PointsTo(symOf(t, prog, "", "q")), "x") {
		t.Fatal("q = p must propagate the points-to set")
	}
}

func TestInterproceduralFlow(t *testing.T) {
	// The paper's requirement: "a local pointer in one procedure which
	// points to a local variable in another procedure".
	prog, a := analyze(t, `
int use(int *ptr) { return *ptr; }
int main(void) {
    int local;
    return use(&local);
}`)
	pts := a.PointsTo(symOf(t, prog, "use", "ptr"))
	if !hasSym(pts, "local") {
		t.Fatalf("parameter binding lost: ptr -> %v", pts)
	}
}

func TestReturnFlow(t *testing.T) {
	prog, a := analyze(t, `
int g;
int *getp(void) { return &g; }
int main(void) {
    int *p = getp();
    return *p;
}`)
	if !hasSym(a.PointsTo(symOf(t, prog, "main", "p")), "g") {
		t.Fatal("return value flow lost")
	}
}

func TestFunctionPointerTargets(t *testing.T) {
	prog, a := analyze(t, `
int inc(int v) { return v + 1; }
int dec(int v) { return v - 1; }
int other(int v) { return v; }
int main(void) {
    int (*op)(int);
    int sel = 1;
    if (sel) op = inc;
    else op = dec;
    return op(5);
}`)
	var call *minic.Call
	minic.InspectExprs(prog.Func("main").Body, func(e minic.Expr) bool {
		if c, ok := e.(*minic.Call); ok {
			call = c
		}
		return true
	})
	targets := a.CallTargets(call)
	names := map[string]bool{}
	for _, f := range targets {
		names[f.Name] = true
	}
	if !names["inc"] || !names["dec"] {
		t.Fatalf("op targets %v, want inc and dec", names)
	}
	if names["other"] {
		t.Fatal("op must not target other (address never taken into op)")
	}
}

func TestCallTargetsIndirect(t *testing.T) {
	prog, a := analyze(t, `
int f1(int v) { return v; }
int f2(int v) { return v * 2; }
int dispatch(int (*h)(int), int v) { return h(v); }
int main(void) { return dispatch(f1, 1) + dispatch(f2, 2); }`)
	var call *minic.Call
	minic.InspectExprs(prog.Func("dispatch").Body, func(e minic.Expr) bool {
		if c, ok := e.(*minic.Call); ok {
			call = c
		}
		return true
	})
	targets := a.CallTargets(call)
	if len(targets) != 2 {
		t.Fatalf("indirect call targets: %v", targets)
	}
}

func TestCallTargetsDirect(t *testing.T) {
	prog, a := analyze(t, `
int leaf(int v) { return v; }
int main(void) { return leaf(3); }`)
	var call *minic.Call
	minic.InspectExprs(prog.Func("main").Body, func(e minic.Expr) bool {
		if c, ok := e.(*minic.Call); ok {
			call = c
		}
		return true
	})
	targets := a.CallTargets(call)
	if len(targets) != 1 || targets[0].Name != "leaf" {
		t.Fatalf("direct call targets: %v", targets)
	}
}

func TestArrayDecayFlow(t *testing.T) {
	prog, a := analyze(t, `
int table[8];
int sum(int *p, int n) {
    int s = 0;
    int i;
    for (i = 0; i < n; i++) s += p[i];
    return s;
}
int main(void) { return sum(table, 8); }`)
	if !hasSym(a.PointsTo(symOf(t, prog, "sum", "p")), "table") {
		t.Fatal("array argument decay lost")
	}
}

func TestStoreThroughPointer(t *testing.T) {
	prog, a := analyze(t, `
int x;
int *gp;
int main(void) {
    int *local = &x;
    gp = local;
    *gp = 3;
    return x;
}`)
	if !hasSym(a.PointsTo(symOf(t, prog, "", "gp")), "x") {
		t.Fatal("gp must point to x")
	}
}

func TestDoubleIndirection(t *testing.T) {
	prog, a := analyze(t, `
int x;
int main(void) {
    int *p = &x;
    int **pp = &p;
    int *q = *pp;
    return *q;
}`)
	if !hasSym(a.PointsTo(symOf(t, prog, "main", "pp")), "p") {
		t.Fatal("pp must point to p")
	}
	if !hasSym(a.PointsTo(symOf(t, prog, "main", "q")), "x") {
		t.Fatal("q = *pp must point to x")
	}
}

func TestStructFieldInsensitive(t *testing.T) {
	// Field-insensitive: a pointer stored in any field aliases the struct
	// object as a whole.
	prog, a := analyze(t, `
struct holder { int *ptr; int pad; };
int x;
struct holder h;
int main(void) {
    h.ptr = &x;
    return *h.ptr;
}`)
	// The struct object's class must contain x in its points-to set.
	h := symOf(t, prog, "", "h")
	pts := a.PointsTo(h)
	if !hasSym(pts, "x") {
		t.Fatalf("h's object must point to x, got %v", pts)
	}
}

func TestPointerArithPreservesTarget(t *testing.T) {
	prog, a := analyze(t, `
int arr[10];
int main(void) {
    int *p = arr;
    int *q = p + 3;
    return *q;
}`)
	if !hasSym(a.PointsTo(symOf(t, prog, "main", "q")), "arr") {
		t.Fatal("q = p + 3 must still point at arr")
	}
}
