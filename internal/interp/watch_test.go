package interp

import (
	"fmt"
	"hash/maphash"
	"strings"
	"testing"

	"compreuse/internal/minic"
	"compreuse/internal/reusetab"
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
	if st.Err == nil || st.Run.Instances != 4 || st.Census.Len() != 4 {
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
		c := &res.Watched[0].Census
		for i := range c.Len() {
			fp.keys += fmt.Sprintf("%x:%d;", c.Key(i), c.At(i).Count)
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

// faultProgram's branch reads a[j], always in range, and a[i], past the
// array from i = 4 on; a is the only global, so a[4] is out of bounds.
const faultProgram = `
int a[4] = {1, 2, 3, 4};
int main() {
    int i;
    int j;
    int s = 0;
    for (i = 0; i < 8; i++) {
        j = i & 3;
        if (i >= 0) s += a[j];
    }
    return s;
}`

// faultWatches returns faultProgram with the loop body watched by outer
// (keyed on s and i, recording s) and refs building the branch's
// references: a[i], a[j] and j.
func faultWatches(t *testing.T) (prog *minic.Program, outer *Watch, branch minic.Stmt, ai, aj, j minic.Expr) {
	t.Helper()
	prog = compile(t, faultProgram)
	loop := prog.Func("main").Body.Stmts[3].(*minic.ForStmt)
	branch = loop.Body.(*minic.Block).Stmts[1].(*minic.IfStmt).Then
	syms := map[string]*minic.Symbol{}
	for _, g := range prog.Globals {
		syms[g.Sym.Name] = g.Sym
	}
	for _, id := range minic.Idents(loop) {
		syms[id.Name] = id.Sym
	}
	outer = &Watch{Body: loop.Body,
		Inputs:  []minic.Expr{minic.Ref(syms["s"], nil), minic.Ref(syms["i"], nil)},
		Outputs: []minic.Expr{minic.Ref(syms["s"], nil)}}
	ai = minic.Ref(syms["a"], minic.Ref(syms["i"], nil))
	aj = minic.Ref(syms["a"], minic.Ref(syms["j"], nil))
	return prog, outer, branch, ai, aj, minic.Ref(syms["j"], nil)
}

// TestWatchReadFaultStopsOnlyItsWatch runs a branch watch whose input
// read, or whose output read, faults from the fifth instance on, inside
// a loop-body watch. The faulting watch stops at that instance, as a
// region there would fault: before it counts the instance when the key
// faults, after it when the outputs do. The enclosing watch, and the
// run's own books, are what they are without the faulting watch, and
// the side counter holds exactly the faulting watch's completed
// instrumentation, priced as the same references that do not fault.
func TestWatchReadFaultStopsOnlyItsWatch(t *testing.T) {
	prog, outer, branch, ai, aj, j := faultWatches(t)
	plain, err := Run(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	alone, err := RunWatched(prog, Options{}, []*Watch{outer})
	if err != nil {
		t.Fatal(err)
	}
	// side runs the branch watch w alongside outer and returns w's
	// statistics and what w charged to the loop body's instances.
	side := func(w *Watch) (WatchStats, int64) {
		t.Helper()
		res, err := RunWatched(prog, Options{}, []*Watch{outer, w})
		if err != nil {
			t.Fatal(err)
		}
		if res.Ret != plain.Ret || res.Cycles != plain.Cycles || res.Ops != plain.Ops {
			t.Errorf("watched run ret=%d cycles=%d ops=%+v, plain ret=%d cycles=%d ops=%+v",
				res.Ret, res.Cycles, res.Ops, plain.Ret, plain.Cycles, plain.Ops)
		}
		o := res.Watched[0]
		if o.Err != nil || o.Run != alone.Watched[0].Run || o.Nested[0] != alone.Watched[0].Nested[0] ||
			o.Census.Len() != alone.Watched[0].Census.Len() {
			t.Errorf("the loop body's watch changed beside %v: %+v, alone %+v", w.Inputs, o, alone.Watched[0])
		}
		if res.Side-alone.Side != o.Nested[1] {
			t.Errorf("side %d, %d alone: the branch watch's %d is not all of the difference", res.Side, alone.Side, o.Nested[1])
		}
		return res.Watched[1], o.Nested[1]
	}

	// Prices per instance: a key of one element, and one more output
	// element (j reads a frame cell).
	keyed, keyCharged := side(&Watch{Body: branch, Inputs: []minic.Expr{aj}})
	both, bothCharged := side(&Watch{Body: branch, Inputs: []minic.Expr{j}, Outputs: []minic.Expr{aj}})
	jonly, jCharged := side(&Watch{Body: branch, Inputs: []minic.Expr{j}})
	for _, st := range []WatchStats{keyed, both, jonly} {
		if st.Err != nil || st.Run.Instances != 8 {
			t.Fatalf("a watch that cannot fault: %+v", st)
		}
	}
	keyPrice := keyCharged / 8
	enterPrice, exitPrice := jCharged/8, (bothCharged-jCharged)/8
	if keyPrice <= 0 || exitPrice <= 0 {
		t.Fatalf("prices: key %d, output %d", keyPrice, exitPrice)
	}

	in, charged := side(&Watch{Body: branch, Inputs: []minic.Expr{ai}})
	if in.Err == nil || in.Run.Instances != 4 || in.Run.BodyRuns != 4 || in.Census.Len() != 4 {
		t.Errorf("input fault: %+v, want a fault after 4 instances", in)
	}
	if charged != 4*keyPrice {
		t.Errorf("input fault: the branch watch charged %d, want 4 keys of %d", charged, keyPrice)
	}

	out, charged := side(&Watch{Body: branch, Inputs: []minic.Expr{j}, Outputs: []minic.Expr{ai}})
	if out.Err == nil || out.Run.Instances != 5 || out.Run.BodyRuns != 5 || out.Census.Len() != 4 {
		t.Errorf("output fault: %+v, want a fault at the exit of the fifth instance", out)
	}
	if want := 5*enterPrice + 4*exitPrice; charged != want {
		t.Errorf("output fault: the branch watch charged %d, want 5 keys and 4 output reads, %d", charged, want)
	}
}

// TestWatchCensusKeyPastMaxChunk counts keys longer than an arena chunk
// between short ones: each long key takes a chunk of its own, and every
// key reads back byte for byte, with its count and first sighting.
func TestWatchCensusKeyPastMaxChunk(t *testing.T) {
	w := &watch{seed: maphash.MakeSeed()}
	long := func(b byte) []byte {
		k := make([]byte, maxChunk+100)
		for i := range k {
			k[i] = b + byte(i%251)
		}
		return k
	}
	keys := [][]byte{[]byte("short"), long(1), []byte("tiny"), long(2), long(1), []byte("short")}
	for seq, k := range keys {
		w.count(k, maphash.Bytes(w.seed, k), int64(seq))
	}
	c := &w.stats.Census
	want := []struct {
		key          []byte
		count, first int64
	}{{keys[0], 2, 0}, {keys[1], 2, 1}, {keys[2], 1, 2}, {keys[3], 1, 3}}
	if c.Len() != len(want) {
		t.Fatalf("census holds %d keys, want %d", c.Len(), len(want))
	}
	for i, k := range want {
		if got := c.At(i); c.Key(i) != string(k.key) || got.Count != k.count || got.First != k.first {
			t.Errorf("key %d: %d bytes seen %d times from %d, want %d bytes seen %d times from %d",
				i, len(c.Key(i)), got.Count, got.First, len(k.key), k.count, k.first)
		}
	}
}

// priceProgram's loops read scalars, floats, elements indexed by a
// variable, a literal and an expression, whole arrays, and the elements
// of a pointer parameter.
const priceProgram = `
int g[8] = {3, 1, 4, 1, 5, 9, 2, 6};
float f[4] = {0.5, 1.5, 2.5, 3.5};
int gs;
int sum(int *p) {
    int k;
    int t = 0;
    for (k = 0; k < 4; k++) {
        t = t + p[k] * k;
    }
    return t;
}
int main() {
    int i;
    int s = 0;
    int a[3];
    float x = 0.25;
    a[0] = 1; a[1] = 2; a[2] = 3;
    for (i = 0; i < 6; i++) {
        s = s + g[i] + g[i + 1] + a[i % 3] + sum(g);
        x = x + f[i % 4];
        gs = s;
    }
    return s + gs + (int)x;
}`

// TestWatchPricesAsRegion checks, for each shape of input and output,
// that a watch's census and instrumentation price are a profile-mode
// region's: wrapping the loop body in the region adds exactly the
// watch's side cycles and ops to the run, and the region's table lists
// the watch's census keys with the same counts in the same order. A
// reference whose index is an expression is read through the region's
// own code; the others are read in place.
func TestWatchPricesAsRegion(t *testing.T) {
	// refs resolves the named references on prog: a name, name[var],
	// name[3] or g[i + 1].
	refs := func(prog *minic.Program, fn string, names ...string) []minic.Expr {
		syms := map[string]*minic.Symbol{}
		for _, g := range prog.Globals {
			syms[g.Sym.Name] = g.Sym
		}
		for _, id := range minic.Idents(prog.Func(fn).Body) {
			syms[id.Name] = id.Sym
		}
		for _, p := range prog.Func(fn).Params {
			syms[p.Sym.Name] = p.Sym
		}
		var out []minic.Expr
		for _, n := range names {
			arr, idx, ok := strings.Cut(strings.TrimSuffix(n, "]"), "[")
			switch {
			case !ok:
				out = append(out, minic.Ref(syms[n], nil))
			case idx == "3":
				out = append(out, minic.Ref(syms[arr], prog.NewIntLit(3)))
			case idx == "i + 1":
				out = append(out, minic.Ref(syms[arr], prog.NewBinary(minic.Plus, minic.Ref(syms["i"], nil), prog.NewIntLit(1))))
			default:
				out = append(out, minic.Ref(syms[arr], minic.Ref(syms[idx], nil)))
			}
		}
		return out
	}
	// body is fn's loop body.
	body := func(prog *minic.Program, fn string) (*minic.Block, int) {
		for k, st := range prog.Func(fn).Body.Stmts {
			if loop, ok := st.(*minic.ForStmt); ok {
				return loop.Body.(*minic.Block), k
			}
		}
		t.Fatalf("%s has no loop", fn)
		return nil, 0
	}
	plain := run(t, priceProgram)
	for _, c := range []struct {
		fn       string
		ins, out []string
	}{
		{"main", []string{"s", "i", "x"}, []string{"s", "x"}},
		{"main", []string{"g[i]", "gs", "f"}, []string{"gs"}},
		{"main", []string{"g", "a", "i"}, []string{"a", "g[3]", "g[i]"}},
		{"main", []string{"g[i + 1]", "i"}, []string{"g[i + 1]"}},
		{"sum", []string{"p[k]", "k", "t"}, []string{"t"}},
		{"sum", []string{"p", "k"}, []string{"p[k]"}},
	} {
		name := fmt.Sprintf("%s %v -> %v", c.fn, c.ins, c.out)
		prog := compile(t, priceProgram)
		blk, _ := body(prog, c.fn)
		res, err := RunWatched(prog, Options{}, []*Watch{{Body: blk, Inputs: refs(prog, c.fn, c.ins...), Outputs: refs(prog, c.fn, c.out...)}})
		if err != nil || res.Watched[0].Err != nil {
			t.Fatalf("%s: %v %v", name, err, res.Watched[0].Err)
		}

		prog = compile(t, priceProgram)
		blk, k := body(prog, c.fn)
		loop := prog.Func(c.fn).Body.Stmts[k].(*minic.ForStmt)
		rr := prog.NewReuseRegion(0, 0, name)
		rr.Inputs, rr.Outputs, rr.Body = refs(prog, c.fn, c.ins...), refs(prog, c.fn, c.out...), blk
		loop.Body = rr
		outWords := 0
		for _, o := range rr.Outputs {
			outWords += o.Type().Words()
		}
		tab := reusetab.New(reusetab.Config{Name: name, Segs: 1, OutWords: []int{outWords}, OutBytes: []int{4 * outWords}, Mode: reusetab.ModeProfile})
		ref, err := Run(prog, Options{Tables: map[int]*reusetab.Table{0: tab}})
		if err != nil {
			t.Fatalf("%s: region run: %v", name, err)
		}
		ops := ref.Ops
		ops.sub(plain.Ops)
		if ref.Cycles-plain.Cycles != res.Side || ops != res.SideOps {
			t.Errorf("%s: the region adds %d cycles and ops %+v, the watch's side is %d cycles and ops %+v",
				name, ref.Cycles-plain.Cycles, ops, res.Side, res.SideOps)
		}
		census, want := &res.Watched[0].Census, tab.SortedCensus()
		if census.Len() != len(want) || len(want) == 0 {
			t.Fatalf("%s: the watch counts %d distinct keys, the region's table %d", name, census.Len(), len(want))
		}
		for i, kc := range want {
			if k := census.At(i); census.Key(i) != kc.Key || k.Count != kc.Count {
				t.Errorf("%s: census entry %d is %x ×%d, the region's table has %x ×%d", name, i, census.Key(i), k.Count, kc.Key, kc.Count)
				break
			}
		}
	}
}
