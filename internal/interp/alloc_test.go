package interp

import (
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"slices"
	"testing"

	"compreuse/internal/depmemo"
	"compreuse/internal/minic"
)

// The profiling census and dependence-tracked regions allocate once per
// distinct result, never once per instance. These tests pin the steady
// state: a run of many instances allocates exactly what a run of a few
// does.

// steadyAllocs reports the allocations of a run over n instances beyond
// those of a run over a handful.
func steadyAllocs(t *testing.T, run func(n int64)) float64 {
	t.Helper()
	few := testing.AllocsPerRun(5, func() { run(8) })
	many := testing.AllocsPerRun(5, func() { run(2000) })
	return many - few
}

// TestDepRegionZeroAllocSteadyState runs a dependence-tracked region
// over a one-entry table on alternating footprints: every other instance
// misses (watcher open, watched reads, record over the evicted result's
// nodes, reset) and the one after it hits.
func TestDepRegionZeroAllocSteadyState(t *testing.T) {
	prog := compile(t, `
int tbl[4] = {1, 2, 3, 4};
int pick(int j) {
    int r;
    r = tbl[j] * 2 + tbl[j + 2];
    return r;
}
int main(int n) {
    int s = 0;
    int k;
    for (k = 0; k < n; k++)
        s += pick(k / 2 % 2);
    return s;
}`)
	fn := prog.Func("pick")
	var rSym, tblSym *minic.Symbol
	for _, id := range minic.Idents(fn.Body) {
		switch id.Name {
		case "r":
			rSym = id.Sym
		case "tbl":
			tblSym = id.Sym
		}
	}
	rr := prog.NewReuseRegion(0, 0, "pick@body")
	rr.Dep = true
	rr.Inputs = []minic.Expr{prog.NewIdent(fn.Params[0].Sym), prog.NewIdent(tblSym)}
	rr.Outputs = []minic.Expr{prog.NewIdent(rSym)}
	rr.Body = fn.Body.Stmts[1]
	fn.Body.Stmts[1] = rr
	tabs := map[int]*depmemo.Table{0: depmemo.New(depmemo.Config{Name: "pick", Entries: 1})}
	var last *SegRunStats
	run := func(n int64) {
		res, err := Run(prog, Options{Args: []int64{n}, DepTables: tabs})
		if err != nil {
			t.Fatal(err)
		}
		last = res.Segs[rr.ID()]
	}
	if n := steadyAllocs(t, run); n != 0 {
		t.Errorf("dep region instances allocate: %v allocs beyond a short run, want 0", n)
	}
	if last.Hits != 1000 || last.BodyRuns != 1000 {
		t.Errorf("stats %+v, want alternating misses and hits", last)
	}
}

// TestWatchCensusZeroAllocSteadyState takes a flat census of a branch
// keyed on tbl[j], whose keys repeat: after the first sightings, each
// instance is a census hit.
func TestWatchCensusZeroAllocSteadyState(t *testing.T) {
	prog := compile(t, `
int tbl[8] = {1, 2, 3, 4, 5, 6, 7, 8};
int main(int n) {
    int s = 0;
    int j;
    int k;
    for (k = 0; k < n; k++) {
        j = k % 8;
        if (j >= 0) s += tbl[j] * 3;
    }
    return s;
}`)
	loop := prog.Func("main").Body.Stmts[3].(*minic.ForStmt)
	branch := loop.Body.(*minic.Block).Stmts[1].(*minic.IfStmt)
	var tbl, j *minic.Symbol
	for _, id := range minic.Idents(branch.Then) {
		switch id.Name {
		case "tbl":
			tbl = id.Sym
		case "j":
			j = id.Sym
		}
	}
	w := &Watch{Body: branch.Then, Inputs: []minic.Expr{minic.Ref(tbl, minic.Ref(j, nil))}}
	var last WatchStats
	run := func(n int64) {
		res, err := RunWatched(prog, Options{Args: []int64{n}}, []*Watch{w})
		if err != nil {
			t.Fatal(err)
		}
		last = res.Watched[0]
	}
	if n := steadyAllocs(t, run); n != 0 {
		t.Errorf("census hits allocate: %v allocs beyond a short run, want 0", n)
	}
	if last.Census.Len() != 8 || last.Census.At(3).Count != 250 || last.Err != nil {
		t.Errorf("census of %d keys (err %v), want 8 keys seen 250 times each", last.Census.Len(), last.Err)
	}
}

// TestWatchCensusCollisionHitZeroAlloc forces two keys onto one hash:
// each keeps its own census entry, in first-seen order, and a hit on the
// second key of the chain allocates nothing.
func TestWatchCensusCollisionHitZeroAlloc(t *testing.T) {
	w := &watch{seed: maphash.MakeSeed()}
	a, b := []byte("key-a"), []byte("key-b")
	h := maphash.Bytes(w.seed, a)
	w.count(a, h, 0)
	w.count(b, h, 1) // collides with a
	w.count(a, h, 2)
	w.count(b, h, 3)
	w.count(b, h, 4)
	type seen struct {
		key          string
		count, first int64
	}
	want := []seen{{"key-a", 2, 0}, {"key-b", 3, 1}}
	var got []seen
	for i := range w.stats.Census.Len() {
		k := w.stats.Census.At(i)
		got = append(got, seen{w.stats.Census.Key(i), k.Count, k.First})
	}
	if !slices.Equal(got, want) {
		t.Fatalf("census %+v, want %+v", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { w.count(b, h, 5) }); n != 0 {
		t.Errorf("a census hit allocates %v times, want 0", n)
	}
}

// TestWatchCensusAllocsPerChunk pins what a census of n distinct keys
// allocates: the keys go back to back into chunked arenas, the entries
// into chunks of entryChunk, and the index doubles, so a census
// allocates per chunk and per doubling, never per key.
func TestWatchCensusAllocsPerChunk(t *testing.T) {
	const keyLen = 16
	census := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			w := &watch{seed: maphash.MakeSeed()}
			key := make([]byte, keyLen)
			for i := range n {
				binary.LittleEndian.PutUint64(key, uint64(i))
				w.count(key, maphash.Bytes(w.seed, key), int64(i))
			}
			if w.stats.Census.Len() != n {
				t.Fatalf("census holds %d keys, want %d", w.stats.Census.Len(), n)
			}
		})
	}
	for _, n := range []int{1 << 10, 1 << 14, 1 << 17} {
		doublings, chunks := censusAllocs(n, keyLen)
		// A few more for the index's first table and the race
		// detector's own bookkeeping.
		const slack = 8
		got := census(n)
		t.Logf("%d keys: %v allocations", n, got)
		if got > float64(doublings+chunks+slack) {
			t.Errorf("a census of %d keys allocates %v times, want at most %d doublings, %d chunks and %d more",
				n, got, doublings, chunks, slack)
		}
	}
}

// censusAllocs bounds the doublings and the chunks of a census of n
// distinct keys of keyLen bytes: the index and the list of entry chunks
// double, entries take chunks of entryChunk, and the arena's chunks
// double up to maxChunk bytes.
func censusAllocs(n, keyLen int) (doublings, chunks int) {
	doublings = bits.Len(uint(n)) + bits.Len(uint(n/entryChunk))
	chunks = n/entryChunk + 1 + bits.Len(maxChunk/minChunk) + n*keyLen/maxChunk
	return doublings, chunks
}

// depCensusProgram's branch computes r from j and one cell of tbl, so
// its footprint is those two reads: m distinct footprints over n
// instances. depCensusWatch watches the branch with a footprint census.
const depCensusProgram = `
int tbl[8] = {1, 2, 3, 4, 5, 6, 7, 8};
int main(int n, int m) {
    int s = 0;
    int j;
    int k;
    int r;
    for (k = 0; k < n; k++) {
        j = k % m;
        if (j >= 0) r = tbl[j & 7] * 3 + j;
        s += r;
    }
    return s;
}`

func depCensusWatch(t *testing.T) (*minic.Program, *Watch) {
	t.Helper()
	prog := compile(t, depCensusProgram)
	var loop *minic.ForStmt
	for _, st := range prog.Func("main").Body.Stmts {
		if f, ok := st.(*minic.ForStmt); ok {
			loop = f
		}
	}
	branch := loop.Body.(*minic.Block).Stmts[1].(*minic.IfStmt)
	syms := map[string]*minic.Symbol{}
	for _, id := range minic.Idents(loop) {
		syms[id.Name] = id.Sym
	}
	return prog, &Watch{Body: branch.Then, Dep: true,
		Inputs:  []minic.Expr{minic.Ref(syms["j"], nil), minic.Ref(syms["tbl"], nil)},
		Outputs: []minic.Expr{minic.Ref(syms["r"], nil)}}
}

// TestDepWatchCensusZeroAllocSteadyState takes a footprint census whose
// 8 footprints repeat: after the first sightings, each instance opens
// the watcher, records two reads, encodes them and finds the key in the
// census, allocating nothing.
func TestDepWatchCensusZeroAllocSteadyState(t *testing.T) {
	prog, w := depCensusWatch(t)
	var last WatchStats
	run := func(n int64) {
		res, err := RunWatched(prog, Options{Args: []int64{n, 8}}, []*Watch{w})
		if err != nil {
			t.Fatal(err)
		}
		last = res.Watched[0]
	}
	if n := steadyAllocs(t, run); n != 0 {
		t.Errorf("footprint census hits allocate: %v allocs beyond a short run, want 0", n)
	}
	if last.Census.Len() != 8 || last.Census.At(3).Count != 250 || last.FootprintSum != 2*2000 ||
		last.MaxFootprint != 2 || last.Err != nil {
		t.Errorf("census %+v, want 8 two-read footprints seen 250 times each", last)
	}
}

// TestDepWatchCensusAllocsPerChunk pins what a footprint census of n
// distinct footprints allocates beyond a census of one over as many
// instances: its keys share the flat census's arena and index, so it
// allocates per chunk and per doubling, never per footprint.
func TestDepWatchCensusAllocsPerChunk(t *testing.T) {
	const keyLen = 2 * 8 // two labels
	prog, w := depCensusWatch(t)
	census := func(n, m int64) float64 {
		return testing.AllocsPerRun(3, func() {
			res, err := RunWatched(prog, Options{Args: []int64{n, m}}, []*Watch{w})
			if err != nil {
				t.Fatal(err)
			}
			if st := res.Watched[0]; int64(st.Census.Len()) != m || st.FootprintSum != 2*n {
				t.Fatalf("census of %d footprints over %d instances, want %d", st.Census.Len(), n, m)
			}
		})
	}
	for _, n := range []int{1 << 10, 1 << 14, 1 << 17} {
		doublings, chunks := censusAllocs(n, keyLen)
		const slack = 8
		got := census(int64(n), int64(n)) - census(int64(n), 1)
		t.Logf("%d footprints: %v allocations", n, got)
		if got > float64(doublings+chunks+slack) {
			t.Errorf("a census of %d footprints allocates %v times more than one of a single footprint, want at most %d doublings, %d chunks and %d more",
				n, got, doublings, chunks, slack)
		}
	}
}
