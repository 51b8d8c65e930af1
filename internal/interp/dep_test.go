package interp

import (
	"testing"

	"compreuse/internal/depmemo"
	"compreuse/internal/minic"
)

// wrapPick builds a program whose pick function reads one element of a
// global table selected by its argument, with the computing statement
// wrapped in a dependence-tracked ReuseRegion over (j, tbl). main churns
// an element pick never reads on every iteration, so a flat key over
// the declared inputs would never hit while the dependence footprint
// (j, tbl[j]) stays constant.
func wrapPick(t *testing.T, profile bool) (*minic.Program, map[int]*depmemo.Table, *minic.ReuseRegion) {
	t.Helper()
	prog := compile(t, `
int tbl[8] = {1,2,3,4,5,6,7,8};
int pick(int j) {
    int r;
    r = tbl[j] * 2;
    return r;
}
int main(void) {
    int s = 0;
    int k;
    for (k = 0; k < 100; k++) {
        tbl[5] = k;
        s += pick(2);
    }
    return s;
}`)
	fn := prog.Func("pick")
	jSym := fn.Params[0].Sym
	var rSym, tblSym *minic.Symbol
	for _, id := range minic.Idents(fn.Body) {
		switch id.Name {
		case "r":
			rSym = id.Sym
		case "tbl":
			tblSym = id.Sym
		}
	}
	if rSym == nil || tblSym == nil {
		t.Fatal("missing symbols")
	}
	rr := &minic.ReuseRegion{
		TableID: 0, SegBit: 0, SegName: "pick@body", Dep: true,
		Inputs:  []minic.Expr{prog.NewIdent(jSym), prog.NewIdent(tblSym)},
		Outputs: []minic.Expr{prog.NewIdent(rSym)},
		Body:    fn.Body.Stmts[1],
	}
	fn.Body.Stmts[1] = rr
	tab := depmemo.New(depmemo.Config{Name: "pick", Profile: profile})
	return prog, map[int]*depmemo.Table{0: tab}, rr
}

func TestDepReuseRegionNarrowKey(t *testing.T) {
	orig := run(t, `
int tbl[8] = {1,2,3,4,5,6,7,8};
int pick(int j) {
    int r;
    r = tbl[j] * 2;
    return r;
}
int main(void) {
    int s = 0;
    int k;
    for (k = 0; k < 100; k++) {
        tbl[5] = k;
        s += pick(2);
    }
    return s;
}`)
	prog, tabs, rr := wrapPick(t, false)
	res, err := Run(prog, Options{DepTables: tabs})
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
	// tbl[5] differs on every call, but the body reads only j and
	// tbl[2]: one body run, 99 footprint hits. A flat key over (j, tbl)
	// would hit zero times.
	if st.Instances != 100 || st.Hits != 99 || st.BodyRuns != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.OverheadCycles == 0 {
		t.Fatal("reuse mode must charge dep overhead")
	}
	ts := tabs[0].Stats()
	if ts.Distinct != 1 || ts.MaxFootprint != 2 {
		t.Fatalf("table stats: %+v", ts)
	}
}

func TestDepReuseRegionMissOnReadCell(t *testing.T) {
	// Same shape, but main also rewrites the cell pick DOES read, so
	// each distinct tbl[2] value is a distinct footprint.
	prog := compile(t, `
int tbl[8] = {1,2,3,4,5,6,7,8};
int pick(int j) {
    int r;
    r = tbl[j] * 2;
    return r;
}
int main(void) {
    int s = 0;
    int k;
    for (k = 0; k < 90; k++) {
        tbl[2] = k % 3;
        s += pick(2);
    }
    return s;
}`)
	fn := prog.Func("pick")
	jSym := fn.Params[0].Sym
	var rSym, tblSym *minic.Symbol
	for _, id := range minic.Idents(fn.Body) {
		switch id.Name {
		case "r":
			rSym = id.Sym
		case "tbl":
			tblSym = id.Sym
		}
	}
	rr := &minic.ReuseRegion{
		TableID: 0, SegBit: 0, SegName: "pick@body", Dep: true,
		Inputs:  []minic.Expr{prog.NewIdent(jSym), prog.NewIdent(tblSym)},
		Outputs: []minic.Expr{prog.NewIdent(rSym)},
		Body:    fn.Body.Stmts[1],
	}
	fn.Body.Stmts[1] = rr
	tab := depmemo.New(depmemo.Config{Name: "pick"})
	res, err := Run(prog, Options{DepTables: map[int]*depmemo.Table{0: tab}})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for k := 0; k < 90; k++ {
		want += int64(k%3) * 2
	}
	if res.Ret != want {
		t.Fatalf("result %d, want %d", res.Ret, want)
	}
	st := res.Segs[rr.ID()]
	if st.BodyRuns != 3 || st.Hits != 87 {
		t.Fatalf("stats: %+v", st)
	}
	if tab.Stats().Distinct != 3 {
		t.Fatalf("table stats: %+v", tab.Stats())
	}
}

func TestDepProfileModeCensus(t *testing.T) {
	prog, tabs, rr := wrapPick(t, true)
	res, err := Run(prog, Options{DepTables: tabs})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Segs[rr.ID()]
	if st.Instances != 100 || st.BodyRuns != 100 || st.Hits != 0 {
		t.Fatalf("profile stats: %+v", st)
	}
	if st.OverheadCycles != 0 {
		t.Fatal("profile mode must not charge dep overhead")
	}
	ts := tabs[0].Stats()
	if ts.Records != 100 || ts.Distinct != 1 {
		t.Fatalf("census: %+v", ts)
	}
	if ts.MeanFootprint() != 2 || ts.MaxFootprint != 2 {
		t.Fatalf("footprint: %+v", ts)
	}
	if st.MeasuredC() <= 0 {
		t.Fatal("measured granularity must be positive")
	}
}

// TestDepWriteThenReadNotRecorded pins first-read-before-write: a
// watched location the body writes before reading is a derived value,
// not an input dependence.
func TestDepWriteThenReadNotRecorded(t *testing.T) {
	prog := compile(t, `
int scratch[4];
int f(int x) {
    int r;
    scratch[0] = x * 2;
    r = scratch[0] + 1;
    return r;
}
int main(void) {
    int s = 0;
    int k;
    for (k = 0; k < 10; k++) {
        scratch[0] = k;
        s += f(3);
    }
    return s;
}`)
	fn := prog.Func("f")
	xSym := fn.Params[0].Sym
	var rSym, scSym *minic.Symbol
	for _, id := range minic.Idents(fn.Body) {
		switch id.Name {
		case "r":
			rSym = id.Sym
		case "scratch":
			scSym = id.Sym
		}
	}
	// Wrap the two computing statements in a block-bodied dep region.
	body := &minic.Block{Stmts: []minic.Stmt{fn.Body.Stmts[1], fn.Body.Stmts[2]}}
	rr := &minic.ReuseRegion{
		TableID: 0, SegBit: 0, SegName: "f@body", Dep: true,
		Inputs:  []minic.Expr{prog.NewIdent(xSym), prog.NewIdent(scSym)},
		Outputs: []minic.Expr{prog.NewIdent(rSym)},
		Body:    body,
	}
	fn.Body.Stmts = []minic.Stmt{fn.Body.Stmts[0], rr, fn.Body.Stmts[3]}
	tab := depmemo.New(depmemo.Config{Name: "f"})
	res, err := Run(prog, Options{DepTables: map[int]*depmemo.Table{0: tab}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 70 {
		t.Fatalf("result %d, want 70", res.Ret)
	}
	// scratch[0] differs at entry on every call, but f writes it before
	// reading it: the only dependence is x, so everything after the
	// first call hits.
	st := res.Segs[rr.ID()]
	if st.BodyRuns != 1 || st.Hits != 9 {
		t.Fatalf("stats: %+v", st)
	}
	if ts := tab.Stats(); ts.MaxFootprint != 1 {
		t.Fatalf("footprint should be x only: %+v", ts)
	}
}

// TestDepNestedRegions nests a dep region dynamically inside another
// (callee wrapped, caller wrapped): the outer footprint must include
// the locations the inner body read on the outer's behalf.
func TestDepNestedRegions(t *testing.T) {
	prog := compile(t, `
int tbl[4] = {10, 20, 30, 40};
int inner(int j) {
    int r;
    r = tbl[j];
    return r;
}
int outer(int j) {
    int s;
    s = inner(j) + 1;
    return s;
}
int main(void) {
    int s = 0;
    int k;
    for (k = 0; k < 20; k++)
        s += outer(k % 2);
    return s;
}`)
	wrap := func(name string, inputs func(fn *minic.FuncDecl) []minic.Expr, outName string, tableID int) *minic.ReuseRegion {
		fn := prog.Func(name)
		var out *minic.Symbol
		for _, id := range minic.Idents(fn.Body) {
			if id.Name == outName {
				out = id.Sym
				break
			}
		}
		rr := prog.NewReuseRegion(tableID, 0, name+"@body")
		rr.Dep = true
		rr.Inputs = inputs(fn)
		rr.Outputs = []minic.Expr{prog.NewIdent(out)}
		rr.Body = fn.Body.Stmts[1]
		fn.Body.Stmts[1] = rr
		return rr
	}
	var tblSym *minic.Symbol
	for _, id := range minic.Idents(prog.Func("inner").Body) {
		if id.Name == "tbl" {
			tblSym = id.Sym
			break
		}
	}
	innerRR := wrap("inner", func(fn *minic.FuncDecl) []minic.Expr {
		return []minic.Expr{prog.NewIdent(fn.Params[0].Sym), prog.NewIdent(tblSym)}
	}, "r", 0)
	outerRR := wrap("outer", func(fn *minic.FuncDecl) []minic.Expr {
		return []minic.Expr{prog.NewIdent(fn.Params[0].Sym), prog.NewIdent(tblSym)}
	}, "s", 1)
	tabs := map[int]*depmemo.Table{
		0: depmemo.New(depmemo.Config{Name: "inner"}),
		1: depmemo.New(depmemo.Config{Name: "outer"}),
	}
	res, err := Run(prog, Options{DepTables: tabs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 10*(11+21) {
		t.Fatalf("result %d", res.Ret)
	}
	// Outer: 2 distinct (j, tbl[j]) footprints, 18 hits. Inner's body
	// only runs when outer misses: 2 runs.
	if st := res.Segs[outerRR.ID()]; st.BodyRuns != 2 || st.Hits != 18 {
		t.Fatalf("outer stats: %+v", st)
	}
	if st := res.Segs[innerRR.ID()]; st.BodyRuns != 2 {
		t.Fatalf("inner stats: %+v", st)
	}
	// The outer footprint saw tbl[j] through the nested call: its own
	// param plus the element inner read.
	if ts := tabs[1].Stats(); ts.MaxFootprint != 2 {
		t.Fatalf("outer footprint: %+v", ts)
	}
}

// TestDepNullPointerInput pins the label of a null pointer input apart
// from a pointer to cell 0: get(0) and get(arr) read p alike up to its
// label, and only get(arr) goes on to read p[0]. Sharing a label, one
// call's record served the other, or the probe fetched p[0] through a
// null pointer.
func TestDepNullPointerInput(t *testing.T) {
	const src = `
int arr[2] = {1, 2};
int get(int *p) {
    int r;
    r = 0;
    if (p != 0) r = p[0] * 2;
    return r;
}
int main(int nullFirst) {
    int a, b;
    if (nullFirst) { a = get(0); b = get(arr); } else { b = get(arr); a = get(0); }
    return a * 10 + b;
}`
	for _, nullFirst := range []int64{1, 0} {
		plain, err := Run(compile(t, src), Options{Args: []int64{nullFirst}})
		if err != nil {
			t.Fatal(err)
		}
		prog := compile(t, src)
		fn := prog.Func("get")
		pSym := fn.Params[0].Sym
		var rSym *minic.Symbol
		for _, id := range minic.Idents(fn.Body) {
			if id.Name == "r" {
				rSym = id.Sym
			}
		}
		rr := prog.NewReuseRegion(0, 0, "get@body")
		rr.Dep = true
		rr.Inputs = []minic.Expr{prog.NewIdent(pSym), prog.NewIndex(prog.NewIdent(pSym), prog.NewIntLit(0))}
		rr.Outputs = []minic.Expr{prog.NewIdent(rSym)}
		rr.Body = &minic.Block{Stmts: fn.Body.Stmts[1:3]}
		fn.Body.Stmts = []minic.Stmt{fn.Body.Stmts[0], rr, fn.Body.Stmts[3]}
		tab := depmemo.New(depmemo.Config{Name: "get"})
		res, err := Run(prog, Options{Args: []int64{nullFirst}, DepTables: map[int]*depmemo.Table{0: tab}})
		if err != nil {
			t.Fatalf("nullFirst=%d: %v", nullFirst, err)
		}
		if res.Ret != plain.Ret || plain.Ret != 2 {
			t.Errorf("nullFirst=%d: memoized run returned %d, plain run %d", nullFirst, res.Ret, plain.Ret)
		}
		if st := res.Segs[rr.ID()]; st.Hits != 0 || st.BodyRuns != 2 {
			t.Errorf("nullFirst=%d: stats %+v, want two body runs and no hit", nullFirst, st)
		}
	}
}

// TestDepProbeThroughNullRange pins the probe of a watched pointee whose
// pointer is now null: the body reads arr[0] before p, so a recorded
// path starts at the input p[0], and a later instance with p null has
// no cell there. The probe must miss rather than fetch through null.
func TestDepProbeThroughNullRange(t *testing.T) {
	const src = `
int arr[2] = {1, 2};
int get(int *p) {
    int r;
    r = arr[0] + (p != 0);
    return r;
}
int main(void) { return get(arr) * 10 + get(0); }`
	prog := compile(t, src)
	fn := prog.Func("get")
	pSym := fn.Params[0].Sym
	var rSym *minic.Symbol
	for _, id := range minic.Idents(fn.Body) {
		if id.Name == "r" {
			rSym = id.Sym
		}
	}
	rr := prog.NewReuseRegion(0, 0, "get@body")
	rr.Dep = true
	rr.Inputs = []minic.Expr{prog.NewIdent(pSym), prog.NewIndex(prog.NewIdent(pSym), prog.NewIntLit(0))}
	rr.Outputs = []minic.Expr{prog.NewIdent(rSym)}
	rr.Body = fn.Body.Stmts[1]
	fn.Body.Stmts[1] = rr
	res, err := Run(prog, Options{DepTables: map[int]*depmemo.Table{0: depmemo.New(depmemo.Config{Name: "get"})}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 21 {
		t.Fatalf("returned %d, want 21", res.Ret)
	}
	if st := res.Segs[rr.ID()]; st.Hits != 0 || st.BodyRuns != 2 {
		t.Fatalf("stats %+v, want two body runs and no hit", st)
	}
}
