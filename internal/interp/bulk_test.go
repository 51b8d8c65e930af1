package interp

import (
	"fmt"
	"slices"
	"testing"

	"compreuse/internal/cost"
	"compreuse/internal/depmemo"
	"compreuse/internal/minic"
)

// Region and watch parts read and write an aggregate in one bounds check
// and one summed charge (span). TestBulkPartsExact runs each part shape
// through that path and through the per-cell path (keyCells, readCells,
// writeCells, which fault where a load or store would) and requires the
// same key bytes, output words, memory, cycles, every OpCounts class and
// fault, with and without a dependence watcher over the parts.

const bulkSrc = `
struct P { int a; float b; int c[3]; };
int arr[5] = {3, -1, 4, 1, -5};
float farr[3] = {1.5, -2.25, 9.0};
struct P gs;
int mat[3][4] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
int rows(int m[3][4], int n[3][4], int i, int k) {
    struct P ls;
    int la[4];
    return m[i][0] + n[k][0] + ls.a + la[0];
}
int main(void) { return rows(mat, mat, 0, 0); }
`

// bulkFrame is a machine with initialized globals and a frame of rows
// whose m is mat, n null, i row index i and k row index k.
func bulkFrame(t *testing.T, prog *minic.Program, model *cost.Model, i, k int64) (*Machine, *Seg, map[string]*minic.Symbol) {
	t.Helper()
	mc := newMachine(prog, Options{Model: model})
	mc.initGlobals(prog)
	fn := prog.Func("rows")
	syms := map[string]*minic.Symbol{}
	for _, g := range prog.Globals {
		syms[g.Sym.Name] = g.Sym
	}
	for _, id := range minic.Idents(fn.Body) {
		syms[id.Name] = id.Sym
	}
	f := mc.function(fn)
	fr := f.frame()
	mc.param(f, fr, 0, ptrVal(Ptr{seg: mc.globals, off: syms["mat"].Slot}))
	mc.param(f, fr, 1, Value{K: KPtr})
	mc.param(f, fr, 2, IntVal(i))
	mc.param(f, fr, 3, IntVal(k))
	// Locals with values of mixed kinds, a float in an int cell included.
	ls, la := syms["ls"].Slot, syms["la"].Slot
	fr.data[ls], fr.data[ls+1], fr.data[ls+2] = IntVal(7), FloatVal(0.5), FloatVal(3.75)
	for j := range 4 {
		fr.data[la+j] = IntVal(int64(10*j - 15))
	}
	return mc, fr, syms
}

// bulkOutcome is what one path did: its result, the memory after it, its
// charges and its fault.
type bulkOutcome struct {
	key     []byte
	words   []uint64
	globals []Value
	frame   []Value
	cycles  int64
	ops     OpCounts
	path    []depmemo.Step
	stamps  []uint32
	fault   string
}

// bulkRun resets mc's charges, optionally opens a dependence watcher over
// watched, runs f and records the outcome.
func bulkRun(mc *Machine, fr *Seg, watched []part, f func() ([]byte, []uint64)) (o bulkOutcome) {
	mc.cycles, mc.ops, mc.pending = 0, OpCounts{}, 0
	var w depWatcher
	if watched != nil {
		w.open(watched, fr)
		mc.pushDep(&w)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				re, ok := r.(*RuntimeError)
				if !ok {
					panic(r)
				}
				o.fault = re.Error()
			}
		}()
		o.key, o.words = f()
	}()
	if watched != nil {
		mc.popDep(&w)
		o.path, o.stamps = slices.Clone(w.path), slices.Clone(w.stamps)
	}
	o.globals, o.frame = slices.Clone(mc.globals.data), slices.Clone(fr.data)
	o.cycles, o.ops = mc.cycles, mc.ops
	o.ops.add(unpack(mc.pending))
	return o
}

func TestBulkPartsExact(t *testing.T) {
	prog := compile(t, bulkSrc)
	ref := func(name string, syms map[string]*minic.Symbol) minic.Expr {
		switch name {
		case "m[i]", "n[i]", "n[k]", "m[k]":
			return minic.Ref(syms[name[:1]], minic.Ref(syms[name[2:3]], nil))
		}
		return minic.Ref(syms[name], nil)
	}
	cases := []struct {
		name  string
		parts []string
		i, k  int64
		fault bool
	}{
		{name: "int array", parts: []string{"arr"}},
		{name: "float array", parts: []string{"farr"}},
		{name: "global struct", parts: []string{"gs"}},
		{name: "2-D array", parts: []string{"mat"}},
		{name: "local struct and array", parts: []string{"ls", "la"}},
		{name: "pointer row", parts: []string{"m[i]"}, i: 2},
		{name: "scalars between aggregates", parts: []string{"i", "arr", "k", "m[i]", "farr"}, i: 1, k: 2},
		{name: "null pointer row", parts: []string{"arr", "n[k]"}, k: 1, fault: true},
		{name: "row past the array", parts: []string{"arr", "m[i]"}, i: 3, fault: true},
		{name: "row before the array", parts: []string{"la", "m[i]"}, i: -4, fault: true},
	}
	for _, level := range []string{"O0", "O3"} {
		model := cost.ModelFor(level)
		for _, c := range cases {
			for _, dep := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/dep=%v", level, c.name, dep), func(t *testing.T) {
					// Each path gets a fresh machine, so writes start alike.
					setup := func() (*Machine, *Seg, []part) {
						mc, fr, syms := bulkFrame(t, prog, model, c.i, c.k)
						var es []minic.Expr
						for _, p := range c.parts {
							es = append(es, ref(p, syms))
						}
						return mc, fr, mc.lowerParts(es, true)
					}
					// The watcher covers the in-range parts.
					watchedOf := func(mc *Machine, fr *Seg, ps []part) []part {
						if !dep {
							return nil
						}
						var in []part
						for _, p := range ps {
							if b := p.addr(fr).ptr(); b.seg != nil && b.off >= 0 && b.off+p.hi <= len(b.seg.data) {
								in = append(in, p)
							}
						}
						return in
					}
					ops := []struct {
						name      string
						bulk, one func(mc *Machine, fr *Seg, ps []part) ([]byte, []uint64)
					}{
						{"key",
							func(mc *Machine, fr *Seg, ps []part) ([]byte, []uint64) {
								return mc.appendKey(nil, ps, fr), nil
							},
							func(mc *Machine, fr *Seg, ps []part) ([]byte, []uint64) {
								var key []byte
								for i := range ps {
									if ps[i].val != nil {
										key = mc.appendKey(key, ps[i:i+1], fr)
										continue
									}
									key = mc.keyCells(key, &ps[i], ps[i].addr(fr).ptr())
								}
								return key, nil
							}},
						{"outputs",
							func(mc *Machine, fr *Seg, ps []part) ([]byte, []uint64) {
								return nil, mc.readOutputs(nil, ps, fr)
							},
							func(mc *Machine, fr *Seg, ps []part) ([]byte, []uint64) {
								var out []uint64
								for i := range ps {
									if ps[i].val != nil {
										out = mc.readOutputs(out, ps[i:i+1], fr)
										continue
									}
									out = mc.readCells(out, &ps[i], ps[i].addr(fr).ptr())
								}
								return nil, out
							}},
						{"write",
							func(mc *Machine, fr *Seg, ps []part) ([]byte, []uint64) {
								r := &region{s: &minic.ReuseRegion{SegName: "bulk"}, outs: ps}
								mc.writeOutputs(r, bulkWords(ps), fr)
								return nil, nil
							},
							func(mc *Machine, fr *Seg, ps []part) ([]byte, []uint64) {
								ws, i := bulkWords(ps), 0
								for j := range ps {
									i = mc.writeCells(&ps[j], ps[j].addr(fr).ptr(), ws, i)
								}
								return nil, nil
							}},
					}
					for _, op := range ops {
						mc, fr, ps := setup()
						got := bulkRun(mc, fr, watchedOf(mc, fr, ps), func() ([]byte, []uint64) { return op.bulk(mc, fr, ps) })
						mc, fr, ps = setup()
						want := bulkRun(mc, fr, watchedOf(mc, fr, ps), func() ([]byte, []uint64) { return op.one(mc, fr, ps) })
						if (want.fault != "") != c.fault {
							t.Fatalf("%s: per-cell fault %q, want a fault: %v", op.name, want.fault, c.fault)
						}
						if got.fault != want.fault {
							t.Errorf("%s: fault %q, per-cell %q", op.name, got.fault, want.fault)
						}
						if !slices.Equal(got.key, want.key) || !slices.Equal(got.words, want.words) {
							t.Errorf("%s: key %x words %v, per-cell %x %v", op.name, got.key, got.words, want.key, want.words)
						}
						if got.cycles != want.cycles || got.ops != want.ops {
							t.Errorf("%s: cycles %d ops %+v, per-cell %d %+v", op.name, got.cycles, got.ops, want.cycles, want.ops)
						}
						if !slices.EqualFunc(got.globals, want.globals, sameValue) || !slices.EqualFunc(got.frame, want.frame, sameValue) {
							t.Errorf("%s: memory differs from the per-cell path's", op.name)
						}
						if !slices.Equal(got.path, want.path) || !slices.Equal(got.stamps, want.stamps) {
							t.Errorf("%s: watcher path %v stamps %v, per-cell %v %v", op.name, got.path, got.stamps, want.path, want.stamps)
						}
						if want.fault == "" && op.name != "write" && want.cycles == 0 {
							t.Errorf("%s: nothing charged", op.name)
						}
					}
				})
			}
		}
	}
}

// sameValue compares values of two machines, pointers by segment name.
func sameValue(a, b Value) bool {
	return a.K == b.K && a.n == b.n && (a.seg == nil) == (b.seg == nil) && (a.seg == nil || a.seg.name == b.seg.name)
}

// bulkWords returns stored words for every cell of ps: ints from 0 to
// 2, so that a written index still selects a row, and distinct floats.
func bulkWords(ps []part) []uint64 {
	var ws []uint64
	for _, p := range ps {
		for _, c := range p.cells {
			w := uint64(len(ws) % 3)
			if c.float {
				w = uint64(FloatVal(float64(len(ws)) + 0.5).n)
			}
			ws = append(ws, w)
		}
	}
	return ws
}
