package dataflow

import (
	"testing"

	"compreuse/internal/callgraph"
	"compreuse/internal/cfg"
	"compreuse/internal/minic"
	"compreuse/internal/pointer"
)

func setup(t *testing.T, src string) (*minic.Program, *Effects) {
	t.Helper()
	prog, err := minic.Parse("t.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := minic.Check(prog); err != nil {
		t.Fatal(err)
	}
	pts := pointer.Analyze(prog)
	cg := callgraph.Build(prog, pts)
	return prog, ComputeEffects(prog, pts, cg)
}

func symNames(s SymSet) map[string]bool {
	m := map[string]bool{}
	for sym := range s {
		m[sym.Name] = true
	}
	return m
}

const quanSrc = `
int power2[15] = {1,2,4,8,16,32,64,128,256,512,1024,2048,4096,8192,16384};
int quan(int val) {
    int i;
    for (i = 0; i < 15; i++)
        if (val < power2[i])
            break;
    return (i);
}
int main(void) { return quan(100); }
`

func TestUpwardExposedQuan(t *testing.T) {
	// The paper's running example: quan's inputs are val and power2
	// (power2 is later filtered as invariant; that is §2.4's job, not
	// upward-exposure's).
	prog, eff := setup(t, quanSrc)
	fn := prog.Func("quan")
	g := cfg.Build(fn)
	ue := eff.UpwardExposed(g)
	m := symNames(ue)
	if !m["val"] {
		t.Fatalf("val must be upward-exposed: %v", m)
	}
	if !m["power2"] {
		t.Fatalf("power2 must be upward-exposed: %v", m)
	}
	if m["i"] {
		t.Fatalf("i is defined before use, must not be exposed: %v", m)
	}
}

func TestUpwardExposedUseBeforeDef(t *testing.T) {
	prog, eff := setup(t, `
int f(int a) {
    int x;
    x = a + 1;     // a exposed, x defined
    int y = x + x; // x not exposed (defined above)
    return y;
}
int main(void) { return f(1); }`)
	g := cfg.Build(prog.Func("f"))
	m := symNames(eff.UpwardExposed(g))
	if !m["a"] || m["x"] || m["y"] {
		t.Fatalf("exposed = %v, want only a", m)
	}
}

func TestUpwardExposedSelfIncrement(t *testing.T) {
	prog, eff := setup(t, `
int f(int n) {
    n = n + 1;  // reads n before writing: exposed
    return n;
}
int main(void) { return f(1); }`)
	g := cfg.Build(prog.Func("f"))
	if !symNames(eff.UpwardExposed(g))["n"] {
		t.Fatal("n must be exposed (read before write in same statement)")
	}
}

func TestUpwardExposedBranchPaths(t *testing.T) {
	prog, eff := setup(t, `
int f(int c, int v) {
    int x;
    if (c)
        x = 1;     // defines x on one path only
    return x + v;  // x exposed via the else path
}
int main(void) { return f(1, 2); }`)
	g := cfg.Build(prog.Func("f"))
	m := symNames(eff.UpwardExposed(g))
	if !m["x"] || !m["c"] || !m["v"] {
		t.Fatalf("exposed = %v, want c, v, x", m)
	}
}

func TestUpwardExposedThroughPointer(t *testing.T) {
	prog, eff := setup(t, `
int g;
int f(int *p) {
    return *p + 1;
}
int main(void) { return f(&g); }`)
	fn := prog.Func("f")
	gr := cfg.Build(fn)
	m := symNames(eff.UpwardExposed(gr))
	if !m["p"] || !m["g"] {
		t.Fatalf("exposed = %v, want p and g (pointee)", m)
	}
}

func TestLivenessBasic(t *testing.T) {
	prog, eff := setup(t, `
int f(int a, int b) {
    int x = a + b;
    int y = x * 2;   // x dies here
    return y;
}
int main(void) { return f(1, 2); }`)
	fn := prog.Func("f")
	g := cfg.Build(fn)
	live := eff.Liveness(g, nil)
	// At entry, a and b are live (used before def), x and y are not.
	m := symNames(live[g.Entry].In)
	if !m["a"] || !m["b"] || m["x"] || m["y"] {
		t.Fatalf("live-in at entry = %v", m)
	}
}

func TestLivenessExternSeed(t *testing.T) {
	prog, eff := setup(t, `
int g;
int f(void) {
    g = 42;      // dead unless g is live-out of the function
    return 0;
}
int main(void) { f(); return g; }`)
	fn := prog.Func("f")
	gr := cfg.Build(fn)
	gSym := prog.Global("g").Sym

	noSeed := eff.Liveness(gr, nil)
	var assignNode *cfg.Node
	for _, n := range gr.Nodes {
		if n.Kind == cfg.NStmt {
			if es, ok := n.Stmt.(*minic.ExprStmt); ok {
				if _, isAssign := es.X.(*minic.AssignExpr); isAssign {
					assignNode = n
				}
			}
		}
	}
	if assignNode == nil {
		t.Fatal("no assignment node")
	}
	if noSeed[assignNode].Out[gSym] {
		t.Fatal("without extern seed, g must be dead after the store")
	}
	seeded := eff.Liveness(gr, SymSet{gSym: true})
	if !seeded[assignNode].Out[gSym] {
		t.Fatal("with extern seed, g must be live after the store")
	}
}

func TestSegmentOutputs(t *testing.T) {
	prog, eff := setup(t, `
int f(int v) {
    int i = 0;
    int scratch = 0;
    while (v > 1) { v /= 2; i++; scratch = v; }
    return i;
}
int main(void) { return f(100); }`)
	fn := prog.Func("f")
	var loop *minic.WhileStmt
	minic.InspectStmts(fn.Body, func(s minic.Stmt) bool {
		if w, ok := s.(*minic.WhileStmt); ok {
			loop = w
		}
		return true
	})
	// Segment = the while loop. Its outputs among {v, i, scratch} with
	// live-after = {i} (only i is used by the return).
	segG := cfg.BuildStmt(loop)
	iSym := findSym(t, prog, "f", "i")
	outs := eff.SegmentOutputs(segG, SymSet{iSym: true})
	m := symNames(outs)
	if !m["i"] || m["scratch"] || m["v"] {
		t.Fatalf("segment outputs = %v, want only i", m)
	}
}

func findSym(t *testing.T, prog *minic.Program, fn, name string) *minic.Symbol {
	t.Helper()
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
	t.Fatalf("symbol %s not found in %s", name, fn)
	return nil
}

func TestModRefTransitive(t *testing.T) {
	prog, eff := setup(t, `
int g1;
int g2;
int leaf(void) { g1 = 1; return g2; }
int mid(void) { return leaf(); }
int main(void) { return mid(); }`)
	mr := eff.FuncModRef(prog.Func("mid"))
	if !symNames(mr.Mod)["g1"] {
		t.Fatalf("mid must transitively mod g1: %v", symNames(mr.Mod))
	}
	if !symNames(mr.Ref)["g2"] {
		t.Fatalf("mid must transitively ref g2: %v", symNames(mr.Ref))
	}
}

func TestModRefExcludesPrivateLocals(t *testing.T) {
	prog, eff := setup(t, `
int f(void) {
    int private = 3;
    private++;
    return private;
}
int main(void) { return f(); }`)
	mr := eff.FuncModRef(prog.Func("f"))
	if symNames(mr.Mod)["private"] {
		t.Fatal("non-escaping locals must not appear in Mod")
	}
}

func TestModRefIncludesEscapedLocals(t *testing.T) {
	prog, eff := setup(t, `
int writer(int *p) { *p = 9; return 0; }
int main(void) {
    int mine = 0;
    writer(&mine);
    return mine;
}`)
	mr := eff.FuncModRef(prog.Func("writer"))
	if !symNames(mr.Mod)["mine"] {
		t.Fatalf("writer must mod the caller's local: %v", symNames(mr.Mod))
	}
}

func TestModRefThroughFunctionPointer(t *testing.T) {
	prog, eff := setup(t, `
int g;
int setter(int v) { g = v; return 0; }
int noop(int v) { return v; }
int main(void) {
    int (*op)(int) = setter;
    op(3);
    return g;
}`)
	mr := eff.FuncModRef(prog.Func("main"))
	if !symNames(mr.Mod)["g"] {
		t.Fatal("indirect call effects must propagate")
	}
}

func TestCallNodeEffects(t *testing.T) {
	prog, eff := setup(t, `
int g;
int touch(void) { g++; return g; }
int main(void) { return touch(); }`)
	g := cfg.Build(prog.Func("main"))
	var retNode *cfg.Node
	for _, n := range g.Nodes {
		if n.Kind == cfg.NStmt {
			if _, ok := n.Stmt.(*minic.ReturnStmt); ok {
				retNode = n
			}
		}
	}
	ne := eff.NodeEffectsOf(retNode)
	if !symNames(ne.Use)["g"] {
		t.Fatal("call must use callee's refs")
	}
	if !symNames(ne.MayDef)["g"] {
		t.Fatal("call must may-def callee's mods")
	}
}

func TestGlobalDefUse(t *testing.T) {
	prog, eff := setup(t, `
int shared;
int producer(void) { shared = 5; return 0; }
int consumer(void) { return shared; }
int main(void) { producer(); return consumer(); }`)
	gdu := eff.BuildGlobalDefUse()
	shared := prog.Global("shared").Sym
	writers := map[string]bool{}
	for _, f := range gdu.WritersOf(shared) {
		writers[f.Name] = true
	}
	readers := map[string]bool{}
	for _, f := range gdu.UseFns[shared] {
		readers[f.Name] = true
	}
	if !writers["producer"] {
		t.Fatalf("writers: %v", writers)
	}
	if !readers["consumer"] {
		t.Fatalf("readers: %v", readers)
	}
	// The def-use chain crosses procedures: producer defs reach consumer.
	if writers["consumer"] {
		t.Fatal("consumer does not write shared")
	}
}

func TestArrayElementWriteIsMayDef(t *testing.T) {
	prog, eff := setup(t, `
int a[10];
int f(int i) {
    a[i] = 1;
    return a[0];  // still exposed: element write does not kill the array
}
int main(void) { return f(3); }`)
	fn := prog.Func("f")
	g := cfg.Build(fn)
	ue := eff.UpwardExposed(g)
	if !symNames(ue)["a"] {
		t.Fatal("array must stay upward-exposed after an element write")
	}
}

func TestMultiDimStoreAddressIsNotARead(t *testing.T) {
	// Writing m[i][j] must not make m upward-exposed: the inner index is
	// address arithmetic, not a load (this is what keeps an IDCT's output
	// block out of its input key).
	prog, eff := setup(t, `
int m[4][4];
int fill(int v) {
    int i;
    int j;
    for (i = 0; i < 4; i++)
        for (j = 0; j < 4; j++)
            m[i][j] = v * i + j;
    return 0;
}
int main(void) { fill(3); return m[1][2]; }`)
	g := cfg.Build(prog.Func("fill"))
	ue := eff.UpwardExposed(g)
	if symNames(ue)["m"] {
		t.Fatalf("m must not be upward-exposed: %v", symNames(ue))
	}
	if !symNames(ue)["v"] {
		t.Fatal("v must be exposed")
	}
}
