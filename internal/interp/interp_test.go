package interp

import (
	"strings"
	"testing"

	"compreuse/internal/cost"
	"compreuse/internal/minic"
	"compreuse/internal/reusetab"
)

func compile(t *testing.T, src string) *minic.Program {
	t.Helper()
	prog, err := minic.Parse("test.c", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := minic.Check(prog); err != nil {
		t.Fatal(err)
	}
	return prog
}

func run(t *testing.T, src string) *Result {
	t.Helper()
	res, err := Run(compile(t, src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestReturnValue(t *testing.T) {
	res := run(t, `int main(void) { return 6 * 7; }`)
	if res.Ret != 42 {
		t.Fatalf("ret = %d", res.Ret)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles charged")
	}
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		expr string
		want int64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"17 / 5", 3},
		{"17 % 5", 2},
		{"-17 / 5", -3}, // C truncates toward zero
		{"1 << 10", 1024},
		{"1024 >> 3", 128},
		{"0xF0 & 0x1F", 0x10},
		{"0xF0 | 0x0F", 0xFF},
		{"0xFF ^ 0x0F", 0xF0},
		{"~0", -1},
		{"!5", 0},
		{"!0", 1},
		{"3 < 5", 1},
		{"5 <= 5", 1},
		{"3 > 5", 0},
		{"5 >= 6", 0},
		{"4 == 4", 1},
		{"4 != 4", 0},
		{"1 && 0", 0},
		{"1 && 2", 1},
		{"0 || 0", 0},
		{"0 || 7", 1},
		{"1 ? 10 : 20", 10},
		{"0 ? 10 : 20", 20},
		{"-(3 - 8)", 5},
	}
	for _, c := range cases {
		res := run(t, "int main(void) { return "+c.expr+"; }")
		if res.Ret != c.want {
			t.Errorf("%s = %d, want %d", c.expr, res.Ret, c.want)
		}
	}
}

func TestFloatArithmetic(t *testing.T) {
	res := run(t, `
int main(void) {
    float a = 1.5;
    float b = 2.0;
    float c = a * b + a / b - 0.25;
    print_float(c);
    return (int)(c * 100.0);
}`)
	if res.Ret != 350 {
		t.Fatalf("ret = %d, want 350", res.Ret)
	}
	if !strings.Contains(res.Output, "3.5") {
		t.Fatalf("output: %q", res.Output)
	}
}

func TestIntFloatConversions(t *testing.T) {
	res := run(t, `
int main(void) {
    float f = 7;        // int -> float on assignment
    int i = 2.9;        // float -> int truncates
    int j = (int)(f / 2.0);  // 3.5 -> 3
    return i * 10 + j;
}`)
	if res.Ret != 23 {
		t.Fatalf("ret = %d, want 23", res.Ret)
	}
}

func TestQuanExecution(t *testing.T) {
	res := run(t, `
int power2[15] = {1,2,4,8,16,32,64,128,256,512,1024,2048,4096,8192,16384};
int quan(int val) {
    int i;
    for (i = 0; i < 15; i++)
        if (val < power2[i])
            break;
    return (i);
}
int main(void) {
    __assert(quan(0) == 0);
    __assert(quan(1) == 1);
    __assert(quan(2) == 2);
    __assert(quan(3) == 2);
    __assert(quan(4) == 3);
    __assert(quan(100) == 7);
    __assert(quan(16383) == 14);
    __assert(quan(16384) == 15);
    __assert(quan(99999) == 15);
    return quan(1000);
}`)
	if res.Ret != 10 {
		t.Fatalf("quan(1000) = %d, want 10", res.Ret)
	}
}

func TestLoops(t *testing.T) {
	res := run(t, `
int main(void) {
    int s = 0;
    int i;
    for (i = 1; i <= 10; i++) s += i;      // 55
    int j = 0;
    while (j < 5) { s += 2; j++; }          // +10
    int k = 0;
    do { s++; k++; } while (k < 3);         // +3
    for (i = 0; i < 10; i++) {
        if (i == 2) continue;
        if (i == 5) break;
        s += 100;                            // i = 0,1,3,4 -> +400
    }
    return s;
}`)
	if res.Ret != 468 {
		t.Fatalf("ret = %d, want 468", res.Ret)
	}
}

func TestPointers(t *testing.T) {
	res := run(t, `
int swap(int *a, int *b) {
    int t = *a;
    *a = *b;
    *b = t;
    return 0;
}
int main(void) {
    int x = 3;
    int y = 9;
    swap(&x, &y);
    int *p = &x;
    *p += 1;
    int **pp = &p;
    **pp *= 2;
    return x * 100 + y;  // x = (9+1)*2 = 20, y = 3
}`)
	if res.Ret != 2003 {
		t.Fatalf("ret = %d, want 2003", res.Ret)
	}
}

func TestPointerArithmeticAndArrays(t *testing.T) {
	res := run(t, `
int a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
int sum(int *p, int n) {
    int s = 0;
    while (n > 0) { s += *p++; n--; }
    return s;
}
int main(void) {
    int *p = a + 2;
    int d = p - a;              // 2
    __assert(*(a + 7) == 8);
    __assert(p[1] == 4);
    __assert(a < p);
    __assert(sum(a, 8) == 36);
    __assert(sum(a + 4, 2) == 11);
    return d;
}`)
	if res.Ret != 2 {
		t.Fatalf("ret = %d", res.Ret)
	}
}

func TestMultiDimArray(t *testing.T) {
	res := run(t, `
int m[3][4];
int main(void) {
    int i;
    int j;
    for (i = 0; i < 3; i++)
        for (j = 0; j < 4; j++)
            m[i][j] = i * 10 + j;
    return m[2][3] + m[0][1] * 100;
}`)
	if res.Ret != 123 {
		t.Fatalf("ret = %d, want 123", res.Ret)
	}
}

func TestStructs(t *testing.T) {
	res := run(t, `
struct point { int x; int y; };
struct rect { struct point lo; struct point hi; };
struct rect r;
int area(struct rect *p) {
    return (p->hi.x - p->lo.x) * (p->hi.y - p->lo.y);
}
int main(void) {
    r.lo.x = 1; r.lo.y = 2;
    r.hi.x = 5; r.hi.y = 6;
    struct point q;
    q = r.hi;            // struct copy
    __assert(q.x == 5);
    q.x = 100;
    __assert(r.hi.x == 5);  // copy, not alias
    return area(&r);
}`)
	if res.Ret != 16 {
		t.Fatalf("ret = %d, want 16", res.Ret)
	}
}

func TestFunctionPointers(t *testing.T) {
	res := run(t, `
int inc(int x) { return x + 1; }
int twice(int x) { return x * 2; }
int apply(int (*f)(int), int v) { return f(v); }
int main(void) {
    int (*op)(int);
    op = inc;
    int a = apply(op, 10);  // 11
    op = twice;
    return a + op(a);       // 11 + 22
}`)
	if res.Ret != 33 {
		t.Fatalf("ret = %d, want 33", res.Ret)
	}
}

func TestRecursion(t *testing.T) {
	res := run(t, `
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main(void) { return fib(15); }`)
	if res.Ret != 610 {
		t.Fatalf("fib(15) = %d", res.Ret)
	}
}

func TestGlobalInitOrder(t *testing.T) {
	res := run(t, `
int a = 5;
int b = 37;
int main(void) { return a + b; }`)
	if res.Ret != 42 {
		t.Fatalf("ret = %d", res.Ret)
	}
}

func TestOutput(t *testing.T) {
	res := run(t, `
int main(void) {
    print_str("hello");
    print_int(42);
    print_float(2.5);
    return 0;
}`)
	want := "hello\n42\n2.5\n"
	if res.Output != want {
		t.Fatalf("output = %q, want %q", res.Output, want)
	}
}

// TestRuntimeErrors pins the full RuntimeError text — message and
// source position — of every fault the VM raises.
func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name, src string
		opts      Options
		// edit, when set, rewrites the checked program before the run.
		edit func(*minic.Program)
		want string
	}{
		{name: "div by zero", src: "int main(void) { int z = 0; return 1 / z; }",
			want: "runtime error at 1:38: integer division by zero"},
		{name: "mod by zero", src: "int main(void) { int z = 0; return 1 % z; }",
			want: "runtime error at 1:38: integer modulo by zero"},
		{name: "compound div by zero", src: "int main(void) { int z = 0; int x = 5; x /= z; return x; }",
			// A compound assignment reports its fault without a position.
			want: "runtime error: integer division by zero"},
		{name: "null deref", src: "int main(void) { int *p = 0; return *p; }",
			want: "runtime error at 1:37: null pointer dereference"},
		{name: "store through null", src: "int main(void) { int *p = 0; *p = 1; return 0; }",
			want: "runtime error at 1:33: store through null pointer"},
		{name: "field through null", src: "struct s { int a; int b; };\nint main(void) { struct s *p = 0; return p->b; }",
			want: "runtime error at 2:43: field access through null pointer"},
		{name: "deref of non-pointer", src: "int main(void) { int *p; return *p; }",
			want: "runtime error at 1:33: dereference of non-pointer value"},
		{name: "index of non-pointer", src: "int main(void) { int *p; return p[1]; }",
			want: "runtime error at 1:34: indexing a non-pointer value"},
		{name: "arrow on non-pointer", src: "struct s { int a; int b; };\nint main(void) { struct s *p; return p->b; }",
			want: "runtime error at 2:39: -> on non-pointer value"},
		{name: "oob", src: "int a[3]; int main(void) { int i = 5; int g[1]; return a[i+100000]; }",
			want: "runtime error at 1:57: out-of-bounds access: globals[100005] (size 3)"},
		{name: "oob store", src: "int main(void) { int g[4]; int i = 40; g[i] = 7; return 0; }",
			want: "runtime error at 1:45: out-of-bounds store: main[40] (size 5)"},
		{name: "assert", src: "int main(void) { __assert(0); return 0; }",
			want: "runtime error at 1:26: assertion failed"},
		{name: "stack overflow", src: "int f(int x) { return f(x + 1); } int main(void) { return f(0); }",
			opts: Options{MaxDepth: 50}, want: "runtime error at 1:24: call stack overflow in f (depth 50)"},
		{name: "step limit", src: "int main(void) {\n int s = 0;\n while (s < 3) { s = s + 1; }\n return s;\n}",
			opts: Options{MaxSteps: 9}, want: "runtime error at 4:2: step limit exceeded (9 statements)"},
		{name: "undefined function", src: "int f(int x) { return x; } int main(void) { return f(1); }",
			edit: func(p *minic.Program) { p.Func("f").Body = nil }, want: "runtime error at 1:53: call of undefined function f"},
		{name: "non-function call", src: "int main(void) { int (*op)(int); return op(1); }",
			want: "runtime error at 1:43: call of non-function value"},
		{name: "pointer difference", src: "int a[2]; int main(void) { int b[2]; int *p = a; int *q = b; return p - q; }",
			want: "runtime error at 1:71: subtraction of pointers into different objects"},
		{name: "unrelated pointer compare", src: "int a[2]; int main(void) { int b[2]; int *p = a; int *q = b; return p < q; }",
			want: "runtime error at 1:71: relational comparison of unrelated pointers"},
		{name: "unknown table", src: "int main(void) { int x = 1; int y = 0; y = x + 1; return y; }",
			edit: func(p *minic.Program) {
				fn := p.Func("main")
				rr := &minic.ReuseRegion{TableID: 7, SegName: "main@y", Body: fn.Body.Stmts[2],
					Inputs: []minic.Expr{p.NewIdent(fn.Body.Stmts[0].(*minic.DeclStmt).Decls[0].Sym)}}
				fn.Body.Stmts[2] = rr
			},
			want: "runtime error: reuse region \"main@y\" references unknown table 7"},
		{name: "unknown dep table", src: "int main(void) { int x = 1; int y = 0; y = x + 1; return y; }",
			edit: func(p *minic.Program) {
				fn := p.Func("main")
				rr := &minic.ReuseRegion{TableID: 3, SegName: "main@y", Dep: true, Body: fn.Body.Stmts[2],
					Inputs: []minic.Expr{p.NewIdent(fn.Body.Stmts[0].(*minic.DeclStmt).Decls[0].Sym)}}
				fn.Body.Stmts[2] = rr
			},
			want: "runtime error: dep reuse region \"main@y\" references unknown dep table 3"},
		{name: "main arity", src: "int main(int a) { return a; }",
			want: "runtime error at 1:1: main takes 1 arguments, got 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := compile(t, c.src)
			if c.edit != nil {
				c.edit(prog)
			}
			_, err := Run(prog, c.opts)
			if _, ok := err.(*RuntimeError); !ok {
				t.Fatalf("err = %v (%T), want *RuntimeError", err, err)
			}
			if err.Error() != c.want {
				t.Errorf("error\n got  %q\n want %q", err, c.want)
			}
		})
	}
}

func TestStepLimit(t *testing.T) {
	// The program above executes exactly 10 statements: 10 steps pass,
	// 9 fault on the return.
	src := "int main(void) {\n int s = 0;\n while (s < 3) { s = s + 1; }\n return s;\n}"
	if res, err := Run(compile(t, src), Options{MaxSteps: 10}); err != nil || res.Ret != 3 {
		t.Fatalf("MaxSteps 10: ret %v, err %v", res, err)
	}
	_, err := Run(compile(t, `int main(void) { while (1) {} return 0; }`), Options{MaxSteps: 1000})
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("err = %v", err)
	}
}

func TestO3CheaperThanO0(t *testing.T) {
	src := `
int main(void) {
    int s = 0;
    int i;
    for (i = 0; i < 1000; i++) s += i * 3;
    return s & 0xFF;
}`
	prog := compile(t, src)
	r0, err := Run(prog, Options{Model: cost.O0()})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Run(prog, Options{Model: cost.O3()})
	if err != nil {
		t.Fatal(err)
	}
	if r0.Ret != r3.Ret {
		t.Fatalf("results differ: %d vs %d", r0.Ret, r3.Ret)
	}
	if r3.Cycles >= r0.Cycles {
		t.Fatalf("O3 (%d) not cheaper than O0 (%d)", r3.Cycles, r0.Cycles)
	}
}

func TestFloatDominatesCycleCost(t *testing.T) {
	intProg := compile(t, `int main(void) { int s = 0; int i; for (i=0;i<100;i++) s += i*i; return 0; }`)
	fltProg := compile(t, `int main(void) { float s = 0.0; float x = 1.5; int i; for (i=0;i<100;i++) s += x*x; return 0; }`)
	ri, err := Run(intProg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Run(fltProg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rf.Cycles < ri.Cycles*3 {
		t.Fatalf("soft-float not dominant: int=%d float=%d", ri.Cycles, rf.Cycles)
	}
	if rf.Ops.FloatOps == 0 || ri.Ops.FloatOps != 0 {
		t.Fatalf("float op counts wrong: %+v vs %+v", rf.Ops, ri.Ops)
	}
}

func TestFreqProfiling(t *testing.T) {
	prog := compile(t, `
int leaf(int x) { return x + 1; }
int main(void) {
    int s = 0;
    int i;
    for (i = 0; i < 10; i++)
        s += leaf(i);
    return s;
}`)
	res, err := Run(prog, Options{CollectFreq: true})
	if err != nil {
		t.Fatal(err)
	}
	leaf := prog.Func("leaf")
	if res.Freq[leaf.ID()] != 10 {
		t.Fatalf("leaf count = %d, want 10", res.Freq[leaf.ID()])
	}
	var forID int
	minic.InspectStmts(prog.Func("main").Body, func(s minic.Stmt) bool {
		if f, ok := s.(*minic.ForStmt); ok {
			forID = f.ID()
		}
		return true
	})
	if res.Freq[forID] != 10 {
		t.Fatalf("loop iterations = %d, want 10", res.Freq[forID])
	}
}

func TestMainWithArgs(t *testing.T) {
	prog := compile(t, `int main(int a, int b) { return a * b; }`)
	res, err := Run(prog, Options{Args: []int64{6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 42 {
		t.Fatalf("ret = %d", res.Ret)
	}
}

// ---------------------------------------------------------------------------
// ReuseRegion semantics

// wrapQuan builds the quan program with its function body wrapped in a
// ReuseRegion on table 0, keyed by val, producing i.
func wrapQuan(t *testing.T, mode reusetab.Mode) (*minic.Program, map[int]*reusetab.Table, *minic.ReuseRegion) {
	t.Helper()
	prog := compile(t, `
int power2[15] = {1,2,4,8,16,32,64,128,256,512,1024,2048,4096,8192,16384};
int quan(int val) {
    int i;
    for (i = 0; i < 15; i++)
        if (val < power2[i])
            break;
    return (i);
}
int main(void) {
    int s = 0;
    int v;
    for (v = 0; v < 300; v++)
        s += quan(v % 30);
    return s;
}`)
	fn := prog.Func("quan")
	valSym := fn.Params[0].Sym
	var iSym *minic.Symbol
	for _, id := range minic.Idents(fn.Body) {
		if id.Name == "i" {
			iSym = id.Sym
			break
		}
	}
	// Wrap the for loop (stmt 1) in a reuse region.
	rr := &minic.ReuseRegion{
		TableID: 0, SegBit: 0, SegName: "quan@body",
		Inputs:  []minic.Expr{prog.NewIdent(valSym)},
		Outputs: []minic.Expr{prog.NewIdent(iSym)},
		Body:    fn.Body.Stmts[1],
	}
	fn.Body.Stmts[1] = rr
	tab := reusetab.New(reusetab.Config{
		Name: "quan", Segs: 1, KeyBytes: 4,
		OutWords: []int{1}, OutBytes: []int{4},
		Mode: mode,
	})
	return prog, map[int]*reusetab.Table{0: tab}, rr
}

func TestReuseRegionCorrectness(t *testing.T) {
	// The transformed program must compute the same result as the original.
	orig := run(t, `
int power2[15] = {1,2,4,8,16,32,64,128,256,512,1024,2048,4096,8192,16384};
int quan(int val) {
    int i;
    for (i = 0; i < 15; i++)
        if (val < power2[i])
            break;
    return (i);
}
int main(void) {
    int s = 0;
    int v;
    for (v = 0; v < 300; v++)
        s += quan(v % 30);
    return s;
}`)
	prog, tabs, rr := wrapQuan(t, reusetab.ModeReuse)
	res, err := Run(prog, Options{Tables: tabs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != orig.Ret {
		t.Fatalf("transformed result %d != original %d", res.Ret, orig.Ret)
	}
	st := res.Segs[rr.ID()]
	if st == nil {
		t.Fatal("no segment stats")
	}
	// 300 calls, 30 distinct inputs: 270 hits, 30 body runs.
	if st.Instances != 300 || st.Hits != 270 || st.BodyRuns != 30 {
		t.Fatalf("stats: %+v", st)
	}
	ts := tabs[0].Stats(0)
	if ts.Hits != 270 || ts.Misses != 30 {
		t.Fatalf("table stats: %+v", ts)
	}
}

func TestReuseRegionSavesCycles(t *testing.T) {
	progPlain, tabsOff, _ := wrapQuan(t, reusetab.ModeProfile)
	rPlain, err := Run(progPlain, Options{Tables: tabsOff})
	if err != nil {
		t.Fatal(err)
	}
	progReuse, tabs, _ := wrapQuan(t, reusetab.ModeReuse)
	rReuse, err := Run(progReuse, Options{Tables: tabs})
	if err != nil {
		t.Fatal(err)
	}
	// R = 1 - 30/300 = 0.9; C ~ hundreds of cycles, O ~ tens: must win.
	if rReuse.Cycles >= rPlain.Cycles {
		t.Fatalf("reuse (%d cycles) did not beat original (%d cycles)", rReuse.Cycles, rPlain.Cycles)
	}
}

func TestProfileModeMeasures(t *testing.T) {
	prog, tabs, rr := wrapQuan(t, reusetab.ModeProfile)
	res, err := Run(prog, Options{Tables: tabs})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Segs[rr.ID()]
	if st.Instances != 300 || st.BodyRuns != 300 || st.Hits != 0 {
		t.Fatalf("profile stats: %+v", st)
	}
	if st.OverheadCycles != 0 {
		t.Fatal("profile mode must not charge hashing overhead")
	}
	if tabs[0].Distinct() != 30 {
		t.Fatalf("distinct inputs = %d, want 30", tabs[0].Distinct())
	}
	if st.MeasuredC() <= 0 {
		t.Fatal("measured granularity must be positive")
	}
	// Census counts: every key seen 10 times.
	for _, kc := range tabs[0].SortedCensus() {
		if kc.Count != 10 {
			t.Fatalf("census count = %d, want 10", kc.Count)
		}
	}
}

func TestReuseRegionFloatAndArrayOutputs(t *testing.T) {
	prog := compile(t, `
float fsrc[4];
float fdst[4];
float extra;
int compute(int k) {
    int i;
    for (i = 0; i < 4; i++)
        fdst[i] = fsrc[i] * 2.0 + (float)k;
    extra = fdst[0] + fdst[3];
    return 0;
}
int main(void) {
    int i;
    for (i = 0; i < 4; i++) fsrc[i] = (float)i * 0.5;
    int r;
    for (r = 0; r < 6; r++)
        compute(r % 2);
    float want0 = 0.0 * 2.0 + 1.0;
    __assert(fdst[0] == want0);
    return (int)(extra * 10.0);
}`)
	fn := prog.Func("compute")
	fsrc := prog.Global("fsrc").Sym
	fdst := prog.Global("fdst").Sym
	extra := prog.Global("extra").Sym
	k := fn.Params[0].Sym
	ret := fn.Body.Stmts[len(fn.Body.Stmts)-1]
	rr := &minic.ReuseRegion{
		TableID: 0, SegBit: 0, SegName: "compute@body",
		Inputs:  []minic.Expr{prog.NewIdent(k), prog.NewIdent(fsrc)},
		Outputs: []minic.Expr{prog.NewIdent(fdst), prog.NewIdent(extra)},
		// The region body excludes the trailing return: regions wrap
		// single-entry single-exit code.
		Body: prog.NewBlock(fn.Body.Stmts[:len(fn.Body.Stmts)-1]...),
	}
	fn.Body.Stmts = []minic.Stmt{rr, ret}
	tab := reusetab.New(reusetab.Config{
		Name: "compute", Segs: 1,
		KeyBytes: 4 + 4*8,
		OutWords: []int{5}, OutBytes: []int{4*8 + 8},
	})
	res, err := Run(prog, Options{Tables: map[int]*reusetab.Table{0: tab}})
	if err != nil {
		t.Fatal(err)
	}
	// extra = fdst[0] + fdst[3] with k=1 on the last call:
	// fdst = {1, 2, 3, 4} (i*0.5*2 + 1) -> extra = 5 -> ret 50
	if res.Ret != 50 {
		t.Fatalf("ret = %d, want 50", res.Ret)
	}
	st := tab.Stats(0)
	if st.Hits != 4 || st.Misses != 2 {
		t.Fatalf("table stats: %+v (want 2 distinct keys, 4 hits)", st)
	}
}

func TestReuseRegionReturnBodyNotRecorded(t *testing.T) {
	// A body that returns out of the region must not record (defensive).
	prog := compile(t, `
int f(int x) {
    int out = 0;
    if (x > 0) return 99;
    out = x * 2;
    return out;
}
int main(void) { return f(1) + f(1); }`)
	fn := prog.Func("f")
	x := fn.Params[0].Sym
	var outSym *minic.Symbol
	for _, id := range minic.Idents(fn.Body) {
		if id.Name == "out" {
			outSym = id.Sym
			break
		}
	}
	rr := &minic.ReuseRegion{
		TableID: 0, SegBit: 0, SegName: "f@body",
		Inputs:  []minic.Expr{prog.NewIdent(x)},
		Outputs: []minic.Expr{prog.NewIdent(outSym)},
		Body:    prog.NewBlock(fn.Body.Stmts...),
	}
	fn.Body.Stmts = []minic.Stmt{rr}
	tab := reusetab.New(reusetab.Config{
		Name: "f", Segs: 1, KeyBytes: 4, OutWords: []int{1}, OutBytes: []int{4},
	})
	res, err := Run(prog, Options{Tables: map[int]*reusetab.Table{0: tab}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 198 {
		t.Fatalf("ret = %d, want 198", res.Ret)
	}
	if tab.Stats(0).Records != 0 {
		t.Fatal("escaping body must not record")
	}
}

func TestSwitchSemantics(t *testing.T) {
	res := run(t, `
int classify(int x) {
    int r;
    switch (x) {
    case 0:
        r = 100;
        break;
    case 1:
    case 2:
        r = 200;
        break;
    case -3:
        r = 300;
        break;
    case 7:
        return 777;
    default:
        r = 999;
    }
    return r;
}
int main(void) {
    __assert(classify(0) == 100);
    __assert(classify(1) == 200);
    __assert(classify(2) == 200);
    __assert(classify(0 - 3) == 300);
    __assert(classify(7) == 777);
    __assert(classify(42) == 999);
    return 0;
}`)
	if res.Ret != 0 {
		t.Fatalf("ret = %d", res.Ret)
	}
}

func TestSwitchScrutineeEvaluatedOnce(t *testing.T) {
	run(t, `
int calls;
int next(void) { calls++; return 2; }
int main(void) {
    int r;
    switch (next()) {
    case 1:
        r = 10;
        break;
    case 2:
        r = 20;
        break;
    default:
        r = 30;
    }
    __assert(calls == 1);
    __assert(r == 20);
    return 0;
}`)
}

func TestSwitchInsideLoopBreak(t *testing.T) {
	// A switch's own break terminates the case, not the loop.
	res := run(t, `
int main(void) {
    int s = 0;
    int i;
    for (i = 0; i < 6; i++) {
        switch (i & 1) {
        case 0:
            s += 10;
            break;
        default:
            s += 1;
        }
    }
    return s;
}`)
	if res.Ret != 33 {
		t.Fatalf("ret = %d, want 33", res.Ret)
	}
}

func TestSwitchEmptyClosedCase(t *testing.T) {
	// "case 1: break;" is a standalone no-op arm, not shared labels.
	res := run(t, `
int main(void) {
    int r = 0;
    switch (1) {
    case 1:
        break;
    case 2:
        r = 5;
        break;
    }
    return r;
}`)
	if res.Ret != 0 {
		t.Fatalf("ret = %d, want 0 (case 1 is a no-op)", res.Ret)
	}
}

func TestNegativeDivisionAndModulo(t *testing.T) {
	// C semantics: truncation toward zero; (a/b)*b + a%b == a.
	res := run(t, `
int main(void) {
    __assert(-7 / 2 == -3);
    __assert(-7 % 2 == -1);
    __assert(7 / -2 == -3);
    __assert(7 % -2 == 1);
    __assert((-9 / 4) * 4 + (-9 % 4) == -9);
    return 0;
}`)
	if res.Ret != 0 {
		t.Fatal("bad ret")
	}
}

func TestShiftMasking(t *testing.T) {
	// Shift counts are masked to 6 bits (defined behavior in MiniC, where
	// C leaves it undefined).
	run(t, `
int main(void) {
    __assert((1 << 64) == 1);
    __assert((1 << 65) == 2);
    __assert((256 >> 64) == 256);
    return 0;
}`)
}

func TestArrayOfStructs(t *testing.T) {
	res := run(t, `
struct cell { int v; float w; };
struct cell grid[6];
int main(void) {
    int i;
    for (i = 0; i < 6; i++) {
        grid[i].v = i * i;
        grid[i].w = (float)i * 0.5;
    }
    struct cell *p = &grid[3];
    __assert(p->v == 9);
    __assert(grid[5].v == 25);
    float sum = 0.0;
    for (i = 0; i < 6; i++)
        sum = sum + grid[i].w;
    return (int)(sum * 2.0);   // 2*(0+0.5+1+1.5+2+2.5) = 15
}`)
	if res.Ret != 15 {
		t.Fatalf("ret = %d, want 15", res.Ret)
	}
}

func TestPointerIntoStructField(t *testing.T) {
	res := run(t, `
struct pair { int a; int b; };
struct pair p;
int main(void) {
    p.a = 1;
    p.b = 2;
    int *q = &p.b;
    *q = 42;
    return p.b;
}`)
	if res.Ret != 42 {
		t.Fatalf("ret = %d", res.Ret)
	}
}

func TestShadowingInLoops(t *testing.T) {
	res := run(t, `
int main(void) {
    int x = 1;
    int s = 0;
    int i;
    for (i = 0; i < 3; i++) {
        int x = 10;   // shadows; fresh per iteration
        x += i;
        s += x;
    }
    return s * 100 + x;   // (10+11+12)*100 + 1
}`)
	if res.Ret != 3301 {
		t.Fatalf("ret = %d, want 3301", res.Ret)
	}
}

func TestUninitializedLocalsAreZero(t *testing.T) {
	// MiniC defines uninitialized locals as zero (stricter than C), and
	// re-zeroes them each time the declaration executes.
	res := run(t, `
int main(void) {
    int s = 0;
    int i;
    for (i = 0; i < 3; i++) {
        int fresh;
        fresh = fresh + 5;   // always 0 + 5
        s += fresh;
    }
    return s;
}`)
	if res.Ret != 15 {
		t.Fatalf("ret = %d, want 15", res.Ret)
	}
}

func TestCompoundAssignOnArrayElem(t *testing.T) {
	res := run(t, `
int a[4] = {1, 2, 3, 4};
int main(void) {
    a[1] += 10;
    a[2] <<= 2;
    a[3] %= 3;
    return a[1] * 100 + a[2] * 10 + a[3];
}`)
	if res.Ret != 1321 {
		t.Fatalf("ret = %d, want 1321 (12,12,1)", res.Ret)
	}
}

func TestPrePostIncrementSemantics(t *testing.T) {
	res := run(t, `
int main(void) {
    int x = 5;
    int a = x++;   // a=5 x=6
    int b = ++x;   // b=7 x=7
    int c = x--;   // c=7 x=6
    int d = --x;   // d=5 x=5
    return a * 1000 + b * 100 + c * 10 + d;
}`)
	if res.Ret != 5775 {
		t.Fatalf("ret = %d, want 5775", res.Ret)
	}
}

func TestFloatPrecisionAcrossCalls(t *testing.T) {
	res := run(t, `
float half(float x) { return x / 2.0; }
int main(void) {
    float v = 1.0;
    int i;
    for (i = 0; i < 10; i++)
        v = half(v);
    /* v = 2^-10 */
    return (int)(v * 1048576.0);   // 1024
}`)
	if res.Ret != 1024 {
		t.Fatalf("ret = %d, want 1024", res.Ret)
	}
}

func TestSizeofValues(t *testing.T) {
	run(t, `
struct s { int a; float b; int c[3]; };
int main(void) {
    __assert(sizeof(int) == 4);
    __assert(sizeof(float) == 8);
    __assert(sizeof(int*) == 4);
    __assert(sizeof(struct s) == 4 + 8 + 12);
    return 0;
}`)
}

func TestCyclesMonotoneInWork(t *testing.T) {
	small := run(t, `int main(void) { int s = 0; int i; for (i = 0; i < 10; i++) s += i; return s & 7; }`)
	large := run(t, `int main(void) { int s = 0; int i; for (i = 0; i < 1000; i++) s += i; return s & 7; }`)
	if large.Cycles <= small.Cycles {
		t.Fatal("cycles must grow with work")
	}
	ratio := float64(large.Cycles) / float64(small.Cycles)
	if ratio < 50 || ratio > 130 {
		t.Fatalf("100x loop scaled cycles by %.1fx", ratio)
	}
}

// TestEscapedFramePointerStaysValid pins the frame-escape rule: a
// pointer into a returned frame (via &local or a decayed local array)
// keeps reading that frame's values after later calls, including calls
// to functions whose frames are recycled.
func TestEscapedFramePointerStaysValid(t *testing.T) {
	res := run(t, `
int *leak(int v) { int x; x = v; return &x; }
int *leakArr(int v) { int a[2]; a[1] = v; return a; }
int plain(int v) { int y = v * 3; return y; }
int main(void) {
    int *p = leak(11);
    int *r = leakArr(33);
    int s = plain(5) + plain(6);
    int *q = leak(22);
    int *w = leakArr(44);
    s = s + plain(7);
    return *p * 1000000 + *q * 10000 + r[1] * 100 + w[1] + s * 0;
}`)
	if want := int64(11*1000000 + 22*10000 + 33*100 + 44); res.Ret != want {
		t.Fatalf("ret = %d, want %d", res.Ret, want)
	}
}

// TestRecursiveReuseRegion runs a region whose body re-enters the same
// region through recursion: each instance must keep its own key and
// outputs, so every recorded entry maps fib(n) under n.
func TestRecursiveReuseRegion(t *testing.T) {
	src := `
int fib(int n) {
    int r;
    if (n < 2) { r = n; } else { r = fib(n - 1) + fib(n - 2); }
    return r;
}
int main(void) {
    int s = 0;
    int i;
    for (i = 0; i < 15; i++)
        s = s * 3 + fib(i);
    return s;
}`
	want := run(t, src).Ret
	prog := compile(t, src)
	fn := prog.Func("fib")
	var rSym *minic.Symbol
	for _, id := range minic.Idents(fn.Body) {
		if id.Name == "r" {
			rSym = id.Sym
			break
		}
	}
	fn.Body.Stmts[1] = &minic.ReuseRegion{
		SegName: "fib@body",
		Inputs:  []minic.Expr{prog.NewIdent(fn.Params[0].Sym)},
		Outputs: []minic.Expr{prog.NewIdent(rSym)},
		Body:    fn.Body.Stmts[1],
	}
	tab := reusetab.New(reusetab.Config{
		Name: "fib", Segs: 1, KeyBytes: 4, OutWords: []int{1}, OutBytes: []int{4},
	})
	res, err := Run(prog, Options{Tables: map[int]*reusetab.Table{0: tab}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != want {
		t.Fatalf("ret = %d, want %d", res.Ret, want)
	}
	if st := tab.Stats(0); st.Hits == 0 || st.Records != 15 {
		t.Fatalf("table stats %+v, want hits and one record per distinct n", st)
	}
}
