package interp

import (
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
