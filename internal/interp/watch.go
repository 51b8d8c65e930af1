package interp

import (
	"encoding/binary"
	"errors"
	"hash/maphash"
	"slices"

	"compreuse/internal/depmemo"
	"compreuse/internal/minic"
)

// In-place value-set profiling (RunWatched). A profile-mode ReuseRegion
// rewrites the program to take a segment's census; a Watch takes the same
// census where the segment stands, through entry and exit hooks installed
// while the program is lowered. The instrumentation a region would have
// run — building the key, reading the outputs, and the x = init
// assignments that transform's output-declaration hoisting leaves in a
// body in place of the declarations — is priced as the region's lowered
// code would charge it, once per watch at lowering, and that price goes
// to a side counter on every instance. The run's own Cycles, Ops, Output
// and Freq are therefore a plain run's, and Result.Side/SideOps hold
// what the instrumentation cost. The hooks read a key's cells in place
// and check each address a region's load would fault on, so a fault
// stops the watch at the instance where the region would have faulted.
//
// A region's body cycles include the instrumentation of the regions
// nested in it, which depends on which segments are wrapped together.
// WatchStats.Nested keeps that charge per nested watch, so a caller can
// rebuild the body cycles of any subset of the watches.

// A Watch names one code segment for RunWatched to profile.
type Watch struct {
	// Body is the watched statement (a loop body or an if branch), or,
	// when To > 0, the block whose statements [From, To) the segment is
	// (a function body without its trailing return, or a sub-block run).
	Body     minic.Stmt
	From, To int
	// Inputs and Outputs are the expressions the segment's region would
	// key on and record (see minic.Ref).
	Inputs, Outputs []minic.Expr
	// Hoisted are the output declarations transform would hoist out of
	// the body, leaving an assignment in their place.
	Hoisted []*minic.VarDecl
	// Dep takes the body's dependence-footprint census instead of a flat
	// key census: the census key of a completed instance is the labels of
	// the path of first reads a dep region's watcher would record. Within
	// one census the location each read names follows from the labels
	// read before it, so the labels alone tell footprints apart. Inputs
	// then name whole locations, as a dep region declares them. Dep
	// watches must be of disjoint segments: popDep expects the innermost
	// watcher to close first, and watchedBlock closes statement runs that
	// end together in the order they were given.
	Dep bool
	// Bounded stops the footprint census, with ErrCensusFull, once it
	// holds more than censusDistinct footprints and its work — the input
	// locations it has opened plus the footprint steps it has recorded —
	// exceeds censusShare of the cycles the run has executed.
	Bounded bool
}

// A bounded census stops past 4096 distinct footprints once its work
// passes 1% of the run so far. A rule on the distinct count alone cannot
// tell a large census that is cheap for its run from an expensive one,
// and a rule on the share alone stops small censuses (DESIGN §4l).
const (
	censusDistinct = 1 << 12
	censusShare    = 0.01
)

// ErrCensusFull stops a bounded watch whose census outgrew the bound.
var ErrCensusFull = errors.New("census outgrew its bound")

// WatchStats is what RunWatched observed for one Watch.
type WatchStats struct {
	// Run counts instances and body executions; BodyCycles excludes all
	// instrumentation, including that of nested watches.
	Run SegRunStats
	// Census lists the distinct keys in first-seen order: input sets of a
	// flat watch, footprints of a dep watch (the labels of its first
	// reads, 8 bytes each).
	Census Census
	// FootprintSum and MaxFootprint are the summed and the largest
	// length, in locations, of a dep watch's recorded footprints.
	FootprintSum int64
	MaxFootprint int
	// Nested[j] is the instrumentation cycles of watch j charged while an
	// instance of this watch was running, counted once per running
	// instance (own hoisted assignments included).
	Nested []int64
	// Err is the fault the instrumentation hit, if any; the watch stops
	// at its first fault and the run goes on.
	Err error
}

// watching is the machine's state for a watched run.
type watching struct {
	ws    []*watch
	stmts map[minic.Stmt][]*watch
	runs  map[*minic.Block][]*watch
	decls map[*minic.VarDecl][]*watch
	// active lists the watches with a running instance.
	active []*watch
	// toks holds the instances of the watched statement runs of the
	// blocks being executed, innermost last.
	toks   []inst
	seed   maphash.Seed
	probes int64
	key    []byte
	words  []uint64
	side   int64
	// tallies lists the static prices of the run's instrumentation, each
	// with the number of times it was paid; ops adds what the parts the
	// lean path does not read paid as they ran.
	tallies []*tally
	ops     OpCounts
}

// tally is a static instrumentation price and how often it was paid.
type tally struct {
	cycles int64
	ops    OpCounts
	n      int64
}

// watch is a Watch being run.
type watch struct {
	*Watch
	idx       int
	ins, outs []wpart
	// enter prices building the key (or opening the footprint watcher)
	// and exit reading the outputs, for the parts the lean path reads.
	enter, exit tally
	// gen is set when a part is not read in place, so that an instance
	// measures what it charged (sideRun).
	gen     bool
	lowered bool
	depth   int64
	stats   WatchStats
	// slots indexes the census by the maphash of each key under seed,
	// open addressed with linear probing and at most three quarters full.
	slots []slot
	seed  maphash.Seed
	spare *scratch
}

// wpart is one watch input or output as the hooks read it in place: the
// storage of a variable, or element idx of a named array or of the array
// a pointer variable points at, with idx a scalar variable or a literal.
// gen holds any other reference, lowered as a region's part and run by
// sideRun.
type wpart struct {
	layout
	pos    minic.Pos
	scalar bool
	// The variable (or the named array, or the pointer) is frame cell
	// slot, or a global when global is set.
	slot   int
	global bool
	// An element has a stride ew; ptr marks a pointer variable. Its index
	// is the scalar variable idx (global when idxGlobal is set) or, when
	// lit is set, k.
	elem, ptr, idxGlobal, lit bool
	ew, idx                   int
	k                         int64
	gen                       []part
}

// slot is one census index entry: the low half of a key's hash and its
// census index plus one (0 marks an empty slot). The low half places
// the slot in any table of up to 2³² slots, so growing the index
// rehashes no key, and a probe compares keys only when it matches.
type slot struct {
	h, i uint32
}

// inst is one running watch instance.
type inst struct {
	before int64 // cycles at body entry; -1 when the instance is not profiled
	sc     *scratch
}

func newWatching(ws []*Watch) *watching {
	wt := &watching{
		stmts: map[minic.Stmt][]*watch{},
		runs:  map[*minic.Block][]*watch{},
		decls: map[*minic.VarDecl][]*watch{},
		seed:  maphash.MakeSeed(),
	}
	for i, spec := range ws {
		w := &watch{Watch: spec, idx: i, seed: wt.seed}
		w.stats.Nested = make([]int64, len(ws))
		wt.ws = append(wt.ws, w)
		wt.tallies = append(wt.tallies, &w.enter, &w.exit)
		if blk, ok := spec.Body.(*minic.Block); ok && spec.To > 0 {
			wt.runs[blk] = append(wt.runs[blk], w)
		} else {
			wt.stmts[spec.Body] = append(wt.stmts[spec.Body], w)
		}
		for _, d := range spec.Hoisted {
			wt.decls[d] = append(wt.decls[d], w)
		}
	}
	return wt
}

func (wt *watching) results() []WatchStats {
	out := make([]WatchStats, len(wt.ws))
	for i, w := range wt.ws {
		out[i] = w.stats
	}
	return out
}

// sideOps is the op count of the run's instrumentation.
func (wt *watching) sideOps() OpCounts {
	ops := wt.ops
	for _, t := range wt.tallies {
		ops.IntOps += t.n * t.ops.IntOps
		ops.MulOps += t.n * t.ops.MulOps
		ops.DivOps += t.n * t.ops.DivOps
		ops.FloatOps += t.n * t.ops.FloatOps
		ops.MemOps += t.n * t.ops.MemOps
		ops.Branches += t.n * t.ops.Branches
		ops.Calls += t.n * t.ops.Calls
		ops.HashOps += t.n * t.ops.HashOps
	}
	return ops
}

// lowerWatch lowers w's inputs and outputs on first use: a flat watch
// reads its inputs' values, a dep watch takes their addresses, and both
// read their outputs' values.
func (mc *Machine) lowerWatch(w *watch) {
	if !w.lowered {
		w.ins = mc.watchParts(w.Inputs, !w.Dep, &w.enter)
		w.outs = mc.watchParts(w.Outputs, true, &w.exit)
		gen := func(p wpart) bool { return p.gen != nil }
		w.gen = slices.ContainsFunc(w.ins, gen) || slices.ContainsFunc(w.outs, gen)
		w.lowered = true
	}
}

// watchParts lowers the references es of a watch and adds to t the price
// of reading their values (or, without values, of taking their
// addresses) as a region's lowered code would: the price of the
// expression's own operand, and a load per cell of an aggregate, which a
// region reads through its address.
func (mc *Machine) watchParts(es []minic.Expr, values bool, t *tally) []wpart {
	ps := make([]wpart, len(es))
	for i, e := range es {
		p := &ps[i]
		p.layout, p.pos = layoutOf(e.Type()), e.Pos()
		p.scalar = !minic.IsAggregate(e.Type())
		var o operand
		if values && p.scalar {
			o = mc.operand(e)
		} else {
			o = mc.place(e)
		}
		if o.inPlace || !p.lean(e) {
			p.gen = mc.lowerParts([]minic.Expr{e}, !values)
			continue
		}
		t.cycles += o.price.cycles
		t.ops.add(unpack(o.price.lanes))
		if values && !p.scalar {
			t.cycles += int64(len(p.cells)) * mc.m.Load
			t.ops.MemOps += int64(len(p.cells))
		}
	}
	return ps
}

// lean fills in p's storage for e when e is a variable or an element the
// hooks read in place, and reports whether it is.
func (p *wpart) lean(e minic.Expr) bool {
	if ix, ok := e.(*minic.Index); ok {
		switch i := ix.Idx.(type) {
		case *minic.Ident:
			if i.Sym.Kind == minic.SymFunc || minic.IsAggregate(i.Sym.Type) {
				return false
			}
			p.idx, p.idxGlobal = i.Sym.Slot, i.Sym.Kind == minic.SymGlobal
		case *minic.IntLit:
			p.k, p.lit = i.Val, true
		default:
			return false
		}
		e, p.elem, p.ew = ix.X, true, minic.ElemOf(ix.X.Type()).Words()
	}
	id, ok := e.(*minic.Ident)
	if !ok || id.Sym.Kind == minic.SymFunc {
		return false
	}
	p.slot, p.global = id.Sym.Slot, id.Sym.Kind == minic.SymGlobal
	p.ptr = p.elem && !minic.IsAggregate(id.Sym.Type)
	return true
}

// addr is the address of p's storage in frame fr, as a region's lowered
// address computation yields it; it may be null or out of bounds. It
// faults where that computation would: on indexing through a value that
// is not a pointer.
func (mc *Machine) addr(p *wpart, fr *Seg) (Ptr, *RuntimeError) {
	seg := fr
	if p.global {
		seg = mc.globals
	}
	if !p.elem {
		return Ptr{seg: seg, off: p.slot}, nil
	}
	i := p.k
	if !p.lit {
		is := fr
		if p.idxGlobal {
			is = mc.globals
		}
		i = is.data[p.idx].ival()
	}
	if p.ptr {
		at, ok := elemAt(seg.data[p.slot], i, p.ew)
		if !ok {
			return Ptr{}, nonPointer(p.pos)
		}
		return at, nil
	}
	return Ptr{seg: seg, off: p.slot + int(i)*p.ew}, nil
}

// cells is the address of p's cells in frame fr, when a region could load
// every one of them; otherwise it returns the fault the first load that
// could not would raise.
func (mc *Machine) cells(p *wpart, fr *Seg) (Ptr, *RuntimeError) {
	base, err := mc.addr(p, fr)
	if err != nil || p.fits(base) {
		return base, err
	}
	for _, c := range p.cells {
		if q := (Ptr{seg: base.seg, off: base.off + c.off}); q.seg == nil || uint(q.off) >= uint(len(q.seg.data)) {
			return base, loadFault(q, p.pos)
		}
	}
	return base, nil
}

// watchKey appends the key of an instance of a watch on ps: the bit
// patterns a region's appendKey would concatenate. It adds to dyn what
// the parts it does not read in place charged.
func (mc *Machine) watchKey(key []byte, ps []wpart, fr *Seg, dyn *tally) ([]byte, *RuntimeError) {
	for i := range ps {
		p := &ps[i]
		// A variable is always in its frame or in the globals.
		var data []Value
		switch {
		case p.gen != nil:
			if err := mc.sideRun(dyn, func() { key = mc.appendKey(key, p.gen, fr) }); err != nil {
				return key, err
			}
			continue
		case !p.elem && p.global:
			data = mc.globals.data[p.slot:]
		case !p.elem:
			data = fr.data[p.slot:]
		default:
			base, err := mc.cells(p, fr)
			if err != nil {
				return key, err
			}
			data = base.seg.data[base.off:]
		}
		if p.scalar {
			key = appendScalar(key, data[0], p.cells[0].float)
		} else {
			key = appendCells(key, p.cells, data)
		}
	}
	return key, nil
}

// checkOutputs faults where a region reading the outputs ps would, and
// adds to dyn what the parts it does not read in place charged; the
// values themselves a watch does not need.
func (mc *Machine) checkOutputs(ps []wpart, fr *Seg, dyn *tally) *RuntimeError {
	for i := range ps {
		p := &ps[i]
		if p.gen != nil {
			if err := mc.sideRun(dyn, func() { mc.wt.words = mc.readOutputs(mc.wt.words[:0], p.gen, fr) }); err != nil {
				return err
			}
		} else if p.elem {
			if _, err := mc.cells(p, fr); err != nil {
				return err
			}
		}
	}
	return nil
}

// openWatch opens dw on the input locations of an instance of w.
func (mc *Machine) openWatch(dw *depWatcher, w *watch, fr *Seg, dyn *tally) *RuntimeError {
	for i := range w.ins {
		p := &w.ins[i]
		var at Ptr
		var err *RuntimeError
		if p.gen != nil {
			err = mc.sideRun(dyn, func() { at = p.gen[0].addr(fr).ptr() })
		} else {
			at, err = mc.addr(p, fr)
		}
		if err != nil {
			return err
		}
		dw.watch(at, len(p.cells), p.scalar)
	}
	dw.begin()
	return nil
}

// watchedStmt wraps a lowered watched statement in its watches' hooks.
func (mc *Machine) watchedStmt(body stmt, ws []*watch) stmt {
	for _, w := range ws {
		mc.lowerWatch(w)
		inner, w := body, w
		body = func(fr *Seg) ctrl {
			t := mc.watchEnter(w, fr)
			c := inner(fr)
			mc.watchExit(w, t, c, fr)
			return c
		}
	}
	return body
}

// watchedBlock runs a block whose statement runs are watched. Runs may
// overlap; every run open at an escaping statement is closed with it.
func (mc *Machine) watchedBlock(pos minic.Pos, list []stmt, runs []*watch) stmt {
	starts := make([][]int, len(list)+1)
	ends := make([][]int, len(list)+1)
	for k, w := range runs {
		mc.lowerWatch(w)
		starts[w.From] = append(starts[w.From], k)
		ends[w.To] = append(ends[w.To], k)
	}
	return func(fr *Seg) ctrl {
		mc.step(pos)
		// The block's instances take len(runs) tokens; statements that run
		// blocks of their own take more above them and give them back.
		base := len(mc.wt.toks)
		mc.wt.toks = slices.Grow(mc.wt.toks, len(runs))[:base+len(runs)]
		for i, st := range list {
			for _, k := range starts[i] {
				mc.wt.toks[base+k] = mc.watchEnter(runs[k], fr)
			}
			c := st(fr)
			if c != cNone {
				for k, w := range runs {
					if w.From <= i && i < w.To {
						mc.watchExit(w, mc.wt.toks[base+k], c, fr)
					}
				}
				mc.wt.toks = mc.wt.toks[:base]
				return c
			}
			for _, k := range ends[i+1] {
				mc.watchExit(runs[k], mc.wt.toks[base+k], cNone, fr)
			}
		}
		mc.wt.toks = mc.wt.toks[:base]
		return cNone
	}
}

// watchedDecl adds the price of the assignments hoisting would leave in
// place of a declaration statement's hoisted declarations.
func (mc *Machine) watchedDecl(decl stmt, ds *minic.DeclStmt) stmt {
	type charge struct {
		w *watch
		t *tally
	}
	var charges []charge
	for _, d := range ds.Decls {
		if ws := mc.wt.decls[d]; len(ws) > 0 {
			cycles, ops := mc.hoistedAssignPrice(d)
			for _, w := range ws {
				t := &tally{cycles: cycles, ops: ops}
				mc.wt.tallies = append(mc.wt.tallies, t)
				charges = append(charges, charge{w: w, t: t})
			}
		}
	}
	if len(charges) == 0 {
		return decl
	}
	return func(fr *Seg) ctrl {
		c := decl(fr)
		for _, ch := range charges {
			if ch.w.stats.Err == nil {
				mc.book(ch.w, ch.t, nil)
			}
		}
		return c
	}
}

// watchEnter starts an instance of w: it builds the key (or opens the
// footprint watcher), pays its price on the side and marks w running.
func (mc *Machine) watchEnter(w *watch, fr *Seg) inst {
	if w.stats.Err != nil {
		return inst{before: -1}
	}
	t := inst{}
	var dyn *tally
	if w.gen {
		dyn = &tally{}
	}
	var err *RuntimeError
	if w.Dep {
		t.sc = take(&w.spare)
		if err = mc.openWatch(&t.sc.w, w, fr, dyn); err != nil {
			t.sc.w.reset()
			w.spare = t.sc
		}
	} else {
		mc.wt.key, err = mc.watchKey(mc.wt.key[:0], w.ins, fr, dyn)
	}
	if err != nil {
		w.stats.Err = err
		return inst{before: -1}
	}
	mc.book(w, &w.enter, dyn)
	if !w.Dep {
		w.count(mc.wt.key, maphash.Bytes(mc.wt.seed, mc.wt.key), mc.wt.probes)
		mc.wt.probes++
	}
	w.stats.Run.Instances++
	if w.depth++; w.depth == 1 {
		mc.wt.active = append(mc.wt.active, w)
	}
	if t.sc != nil {
		mc.pushDep(&t.sc.w)
	}
	t.before = mc.cycles
	return t
}

// watchExit ends an instance: it accounts the body and, when the body
// completed, pays for reading the outputs on the side; a dep watch then
// counts the instance's footprint in its census, as a flat watch counts
// its key on entry.
func (mc *Machine) watchExit(w *watch, t inst, c ctrl, fr *Seg) {
	if t.before < 0 {
		return
	}
	if t.sc != nil {
		mc.popDep(&t.sc.w)
	}
	w.stats.Run.BodyCycles += mc.cycles - t.before
	w.stats.Run.BodyRuns++
	if w.depth--; w.depth == 0 {
		// Instances mostly end in the order opposite to their start, so
		// w is mostly the last active watch.
		act := mc.wt.active
		for i := len(act) - 1; i >= 0; i-- {
			if act[i] == w {
				if i < len(act)-1 {
					copy(act[i:], act[i+1:])
				}
				mc.wt.active = act[:len(act)-1]
				break
			}
		}
	}
	if c == cNone && w.stats.Err == nil {
		var dyn *tally
		if w.gen {
			dyn = &tally{}
		}
		if err := mc.checkOutputs(w.outs, fr, dyn); err != nil {
			w.stats.Err = err
		} else {
			mc.book(w, &w.exit, dyn)
			if t.sc != nil {
				mc.countFootprint(w, t.sc.w.path)
			}
		}
	}
	if t.sc != nil {
		t.sc.w.reset()
		w.spare = t.sc
	}
}

// countFootprint counts the footprint path of a completed instance of
// the dep watch w in its census.
func (mc *Machine) countFootprint(w *watch, path []depmemo.Step) {
	key := slices.Grow(mc.wt.key[:0], 8*len(path))[:8*len(path)]
	for i, s := range path {
		binary.LittleEndian.PutUint64(key[8*i:], s.Label)
	}
	mc.wt.key = key
	w.count(key, maphash.Bytes(mc.wt.seed, key), mc.wt.probes)
	mc.wt.probes++
	w.stats.FootprintSum += int64(len(path))
	w.stats.MaxFootprint = max(w.stats.MaxFootprint, len(path))
	if w.Bounded {
		work := w.stats.Run.Instances*int64(len(w.ins)) + w.stats.FootprintSum
		if w.stats.Census.Len() > censusDistinct && float64(work) > censusShare*float64(mc.cycles) {
			w.stats.Err = ErrCensusFull
		}
	}
}

// book pays the static price t of w's instrumentation, plus what dyn
// measured (nil when w has no part sideRun reads), on the side counter
// and on every running instance around it.
func (mc *Machine) book(w *watch, t *tally, dyn *tally) {
	t.n++
	cycles := t.cycles
	if dyn != nil && dyn.n != 0 {
		cycles += dyn.cycles
		mc.wt.ops.add(dyn.ops)
	}
	if cycles == 0 {
		return
	}
	mc.wt.side += cycles
	for _, a := range mc.wt.active {
		a.stats.Nested[w.idx] += cycles * a.depth
	}
}

// sideRun runs f, instrumentation the hooks do not read in place, off the
// run's books: what f charged goes to dyn, whose n counts the calls, its
// reads are hidden from the dependence watchers of enclosing watches,
// and a fault ends f only.
func (mc *Machine) sideRun(dyn *tally, f func()) (err *RuntimeError) {
	cycles, ops, pending, hide := mc.cycles, mc.ops, mc.pending, mc.hide
	mc.ops, mc.pending, mc.hide = OpCounts{}, 0, true
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(*RuntimeError)
			if !ok {
				panic(r)
			}
			err = re
		}
		dyn.n++
		dyn.cycles += mc.cycles - cycles
		dyn.ops.add(mc.ops)
		dyn.ops.add(unpack(mc.pending))
		mc.cycles, mc.ops, mc.pending, mc.hide = cycles, ops, pending, hide
	}()
	f()
	return nil
}

// count adds a key, whose hash is h, to w's census.
func (w *watch) count(key []byte, h uint64, seq int64) {
	c := &w.stats.Census
	if len(w.slots) == 0 {
		w.grow()
	}
	mask := uint32(len(w.slots) - 1)
	i := uint32(h) & mask
	for ; w.slots[i].i != 0; i = (i + 1) & mask {
		if sl := w.slots[i]; sl.h == uint32(h) {
			if k := c.at(int(sl.i - 1)); c.equal(k, key) {
				k.Count++
				return
			}
		}
	}
	// A new key goes in the empty slot the probe ended on, unless the
	// index must grow first.
	if 4*(c.Len()+1) > 3*len(w.slots) {
		w.grow()
		i = w.free(uint32(h))
	}
	w.slots[i] = slot{h: uint32(h), i: uint32(c.add(key, seq)) + 1}
}

// grow doubles the census index, placing each slot by its stored hash.
func (w *watch) grow() {
	old := w.slots
	w.slots = make([]slot, max(16, 2*len(old)))
	for _, sl := range old {
		if sl.i != 0 {
			w.slots[w.free(sl.h)] = sl
		}
	}
}

// free is the index of the first empty slot on h's probe sequence.
func (w *watch) free(h uint32) uint32 {
	mask := uint32(len(w.slots) - 1)
	i := h & mask
	for w.slots[i].i != 0 {
		i = (i + 1) & mask
	}
	return i
}

func (o *OpCounts) add(d OpCounts) {
	o.IntOps += d.IntOps
	o.MulOps += d.MulOps
	o.DivOps += d.DivOps
	o.FloatOps += d.FloatOps
	o.MemOps += d.MemOps
	o.Branches += d.Branches
	o.Calls += d.Calls
	o.HashOps += d.HashOps
}

func (o *OpCounts) sub(d OpCounts) {
	o.IntOps -= d.IntOps
	o.MulOps -= d.MulOps
	o.DivOps -= d.DivOps
	o.FloatOps -= d.FloatOps
	o.MemOps -= d.MemOps
	o.Branches -= d.Branches
	o.Calls -= d.Calls
	o.HashOps -= d.HashOps
}
