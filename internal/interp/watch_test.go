package interp

import (
	"fmt"
	"testing"

	"compreuse/internal/minic"
)

// A watch whose key building faults stops profiling that segment, but
// the program — which never executes the instrumentation — runs on to a
// plain run's result.
func TestWatchFaultDisablesOnlyTheWatch(t *testing.T) {
	const src = `
int a[4] = {1, 2, 3, 4};
int main() {
    int i;
    int s = 0;
    for (i = 0; i < 8; i++) {
        if (i < 4) s += a[i];
    }
    return s;
}`
	plain := run(t, src)
	prog := compile(t, src)
	loop := prog.Func("main").Body.Stmts[2].(*minic.ForStmt)
	var a, i *minic.Symbol
	for _, g := range prog.Globals {
		a = g.Sym
	}
	minic.Inspect(loop.Init, func(n minic.Node) bool {
		if id, ok := n.(*minic.Ident); ok {
			i = id.Sym
		}
		return true
	})
	// The body's key a[i] reads past the array from i = 4 on.
	w := &Watch{Body: loop.Body, Inputs: []minic.Expr{minic.Ref(a, minic.Ref(i, nil))}}
	res, err := RunWatched(prog, Options{}, []*Watch{w})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != plain.Ret || res.Cycles != plain.Cycles || res.Ops != plain.Ops {
		t.Errorf("watched run ret=%d cycles=%d ops=%+v, plain ret=%d cycles=%d ops=%+v",
			res.Ret, res.Cycles, res.Ops, plain.Ret, plain.Cycles, plain.Ops)
	}
	st := res.Watched[0]
	if st.Err == nil || st.Run.Instances != 4 || len(st.Census) != 4 {
		t.Errorf("watch stats %+v, want a fault after 4 profiled instances", st)
	}
	// Four key builds of one index load and one array load each.
	if res.Side <= 0 || res.SideOps.MemOps != 8 {
		t.Errorf("side cycles %d, ops %+v", res.Side, res.SideOps)
	}
}

// TestWatchInstrumentationHiddenFromDepWatchers checks that a footprint
// census records the plain run's reads whatever else is watched: the
// flat and dep watches inside the loop body read g[2], both to build
// their keys and as their output, but the body itself never reads g, so
// the loop's footprints must not contain it.
func TestWatchInstrumentationHiddenFromDepWatchers(t *testing.T) {
	const src = `
int g[4] = {5, 6, 7, 8};
int main() {
    int s = 0;
    int k;
    for (k = 0; k < 6; k++) {
        if (k >= 0) s += k % 2;
    }
    return s;
}`
	prog := compile(t, src)
	loop := prog.Func("main").Body.Stmts[2].(*minic.ForStmt)
	branch := loop.Body.(*minic.Block).Stmts[0].(*minic.IfStmt)
	syms := map[string]*minic.Symbol{}
	for _, g := range prog.Globals {
		syms[g.Sym.Name] = g.Sym
	}
	for _, id := range minic.Idents(loop) {
		syms[id.Name] = id.Sym
	}
	g2 := minic.Ref(syms["g"], prog.NewIntLit(2))
	// footprints lists the outer watch's census keys with their counts.
	type footprints struct {
		keys string
		sum  int64
	}
	census := func(inner ...*Watch) footprints {
		outer := &Watch{Body: loop.Body, Dep: true,
			Inputs:  []minic.Expr{minic.Ref(syms["g"], nil), minic.Ref(syms["k"], nil), minic.Ref(syms["s"], nil)},
			Outputs: []minic.Expr{minic.Ref(syms["s"], nil)}}
		res, err := RunWatched(prog, Options{}, append([]*Watch{outer}, inner...))
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range res.Watched {
			if st.Err != nil || st.Run.Instances != 6 {
				t.Fatalf("watch %d: %+v", i, st)
			}
		}
		var fp footprints
		for _, k := range res.Watched[0].Census {
			fp.keys += fmt.Sprintf("%x:%d;", k.Key, k.Count)
		}
		fp.sum = res.Watched[0].FootprintSum
		return fp
	}
	alone := census()
	flat := &Watch{Body: branch.Then, Inputs: []minic.Expr{g2}, Outputs: []minic.Expr{g2}}
	dep := &Watch{Body: branch.Then, Dep: true,
		Inputs: []minic.Expr{minic.Ref(syms["s"], nil)}, Outputs: []minic.Expr{g2}}
	if got := census(flat, dep); got != alone {
		t.Errorf("footprint census with watches inside %+v, alone %+v", got, alone)
	}
	// k and s: the loop body reads nothing else.
	if alone.sum != 2*6 {
		t.Errorf("footprint length sum %d, want two reads per instance", alone.sum)
	}
}
