package interp

import (
	"errors"
	"hash/maphash"
	"unsafe"

	"compreuse/internal/depmemo"
	"compreuse/internal/minic"
)

// In-place value-set profiling (RunWatched). A profile-mode ReuseRegion
// rewrites the program to take a segment's census; a Watch takes the same
// census where the segment stands, through entry and exit hooks installed
// while the program is lowered. The instrumentation a region would have
// run — building the key, reading the outputs, and the x = init
// assignments that transform's output-declaration hoisting leaves in a
// body in place of the declarations — is executed or priced exactly as
// the region would, then moved off the run onto a side counter. The run's
// own Cycles, Ops, Output and Freq are therefore a plain run's, and
// Result.Side/SideOps hold what the instrumentation cost.
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
	// key census: the census key of a completed instance is the path of
	// first reads a dep region's watcher would record, encoded by
	// depmemo.EncodeSteps. Inputs then name whole locations, as a dep
	// region declares them. Dep watches must be of disjoint segments:
	// popDep expects the innermost watcher to close first, and
	// watchedBlock closes statement runs that end together in the order
	// they were given.
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
	// flat watch, encoded footprints of a dep watch.
	Census []KeySeen
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

// KeySeen is one distinct key of a census: its probe count and the
// run-wide probe sequence number of its first sighting, which orders the
// keys of segments sharing a merged table. Key aliases the census's
// arena, which is never rewritten.
type KeySeen struct {
	Key   string
	Count int64
	First int64
}

// watching is the machine's state for a watched run.
type watching struct {
	ws    []*watch
	stmts map[minic.Stmt][]*watch
	runs  map[*minic.Block][]*watch
	decls map[*minic.VarDecl][]*watch
	// active lists the watches with a running instance.
	active []*watch
	seed   maphash.Seed
	probes int64
	key    []byte
	words  []uint64
	side   int64
	ops    OpCounts
	// pending holds side op counts in lanes, as Machine.pending does.
	pending uint64
}

// watch is a Watch being run.
type watch struct {
	*Watch
	idx       int
	ins, outs []part
	lowered   bool
	depth     int64
	stats     WatchStats
	// slots indexes the census by the maphash of each key under seed,
	// open addressed with linear probing and at most half full.
	slots []slot
	seed  maphash.Seed
	// arena is the current chunk of key bytes; the census's keys alias
	// it and the chunks before it.
	arena []byte
	spare *scratch
}

// slot is one census index entry: the high half of a key's hash and its
// census index plus one (0 marks an empty slot).
type slot struct {
	h, i uint32
}

// The arena's chunks double from minChunk up to maxChunk bytes, so a
// small census takes little memory and a large one few allocations.
const (
	minChunk = 256
	maxChunk = 64 << 10
)

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

// settle adds the pending side op counts to wt.ops.
func (wt *watching) settle() {
	wt.ops.add(unpack(wt.pending))
	wt.pending = 0
}

func (wt *watching) results() []WatchStats {
	out := make([]WatchStats, len(wt.ws))
	for i, w := range wt.ws {
		out[i] = w.stats
	}
	return out
}

// lowerWatch lowers w's inputs and outputs on first use.
func (mc *Machine) lowerWatch(w *watch) {
	if !w.lowered {
		w.ins, w.outs = mc.lowerParts(w.Inputs, w.Dep), mc.lowerParts(w.Outputs, true)
		w.lowered = true
	}
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
		var buf [16]inst
		toks := buf[:]
		if len(runs) > len(buf) {
			toks = make([]inst, len(runs))
		}
		for i, st := range list {
			for _, k := range starts[i] {
				toks[k] = mc.watchEnter(runs[k], fr)
			}
			c := st(fr)
			if c != cNone {
				for k, w := range runs {
					if w.From <= i && i < w.To {
						mc.watchExit(w, toks[k], c, fr)
					}
				}
				return c
			}
			for _, k := range ends[i+1] {
				mc.watchExit(runs[k], toks[k], cNone, fr)
			}
		}
		return cNone
	}
}

// watchedDecl adds the price of the assignments hoisting would leave in
// place of a declaration statement's hoisted declarations.
func (mc *Machine) watchedDecl(decl stmt, ds *minic.DeclStmt) stmt {
	type charge struct {
		w      *watch
		cycles int64
		ops    OpCounts
	}
	var charges []charge
	for _, d := range ds.Decls {
		if ws := mc.wt.decls[d]; len(ws) > 0 {
			cycles, ops := mc.hoistedAssignPrice(d)
			for _, w := range ws {
				charges = append(charges, charge{w: w, cycles: cycles, ops: ops})
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
				mc.wt.ops.add(ch.ops)
				mc.credit(ch.w, ch.cycles)
			}
		}
		return c
	}
}

// watchEnter starts an instance of w: it builds the key (or opens the
// footprint watcher) off the run's books and marks w running.
func (mc *Machine) watchEnter(w *watch, fr *Seg) inst {
	if w.stats.Err != nil {
		return inst{before: -1}
	}
	t := inst{}
	if w.Dep {
		t.sc = take(&w.spare)
		if !mc.sideWork(w, func() { t.sc.w.open(w.ins, fr) }) {
			t.sc.w.reset()
			w.spare = t.sc
			return inst{before: -1}
		}
	} else if mc.sideWork(w, func() { mc.wt.key = mc.appendKey(mc.wt.key[:0], w.ins, fr) }) {
		w.count(mc.wt.key, maphash.Bytes(mc.wt.seed, mc.wt.key), mc.wt.probes)
		mc.wt.probes++
	} else {
		return inst{before: -1}
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
// completed, reads the outputs off the run's books; a dep watch then
// counts the instance's footprint in its census, as a flat watch counts
// its key on entry.
func (mc *Machine) watchExit(w *watch, t inst, c ctrl, fr *Seg) {
	if t.before < 0 {
		return
	}
	if t.sc != nil {
		mc.popDep(&t.sc.w)
		defer func() { t.sc.w.reset(); w.spare = t.sc }()
	}
	w.stats.Run.BodyCycles += mc.cycles - t.before
	w.stats.Run.BodyRuns++
	if w.depth--; w.depth == 0 {
		act := mc.wt.active
		for i := len(act) - 1; i >= 0; i-- {
			if act[i] == w {
				mc.wt.active = append(act[:i], act[i+1:]...)
				break
			}
		}
	}
	if c != cNone || w.stats.Err != nil {
		return
	}
	if mc.sideWork(w, func() { mc.wt.words = mc.readOutputs(mc.wt.words[:0], w.outs, fr) }) && t.sc != nil {
		path := t.sc.w.path
		mc.wt.key = depmemo.EncodeSteps(mc.wt.key[:0], path)
		w.count(mc.wt.key, maphash.Bytes(mc.wt.seed, mc.wt.key), mc.wt.probes)
		mc.wt.probes++
		w.stats.FootprintSum += int64(len(path))
		w.stats.MaxFootprint = max(w.stats.MaxFootprint, len(path))
		if w.Bounded {
			work := w.stats.Run.Instances*int64(len(w.ins)) + w.stats.FootprintSum
			if len(w.stats.Census) > censusDistinct && float64(work) > censusShare*float64(mc.cycles) {
				w.stats.Err = ErrCensusFull
			}
		}
	}
}

// sideWork runs instrumentation for w and moves its cycles and ops onto
// the side counters. A fault disables w instead of ending the run: the
// program itself never executes the instrumentation. Its reads are
// hidden from the dependence watchers of enclosing watches.
func (mc *Machine) sideWork(w *watch, f func()) (ok bool) {
	// The run's op counts wait aside while f pays its own.
	cycles, ops, pending, hide := mc.cycles, mc.ops, mc.pending, mc.hide
	mc.ops, mc.pending, mc.hide = OpCounts{}, 0, true
	defer func() {
		mc.hide = hide
		if r := recover(); r != nil {
			re, isRT := r.(*RuntimeError)
			if !isRT {
				panic(r)
			}
			mc.cycles, mc.ops, mc.pending = cycles, ops, pending
			w.stats.Err = re
			ok = false
		}
	}()
	f()
	mc.wt.ops.add(mc.ops)
	// Both sums of lanes are below half their range, so adding them
	// cannot carry out of a lane.
	if mc.wt.pending += mc.pending; mc.wt.pending&laneHalf != 0 {
		mc.wt.settle()
	}
	mc.ops, mc.pending = ops, pending
	d := mc.cycles - cycles
	mc.cycles = cycles
	mc.credit(w, d)
	return true
}

// credit books instrumentation cycles of w on the side counter and on
// every running instance around them.
func (mc *Machine) credit(w *watch, cycles int64) {
	mc.wt.side += cycles
	for _, a := range mc.wt.active {
		a.stats.Nested[w.idx] += cycles * a.depth
	}
}

// count adds a key, whose hash is h, to w's census.
func (w *watch) count(key []byte, h uint64, seq int64) {
	if len(w.slots) > 0 {
		mask := uint64(len(w.slots) - 1)
		for i := h & mask; w.slots[i].i != 0; i = (i + 1) & mask {
			if sl := w.slots[i]; sl.h == uint32(h>>32) {
				if ks := &w.stats.Census[sl.i-1]; ks.Key == string(key) {
					ks.Count++
					return
				}
			}
		}
	}
	census := w.stats.Census
	if 2*(len(census)+1) > len(w.slots) {
		w.grow()
	}
	if len(census) == cap(census) {
		// Double, where append would grow a large census by a quarter.
		grown := make([]KeySeen, len(census), max(8, 2*cap(census)))
		copy(grown, census)
		census = grown
	}
	w.slots[w.free(h)] = slot{h: uint32(h >> 32), i: uint32(len(census)) + 1}
	w.stats.Census = append(census, KeySeen{Key: w.store(key), Count: 1, First: seq})
}

// grow doubles the census index, rehashing the stored keys.
func (w *watch) grow() {
	w.slots = make([]slot, max(16, 2*len(w.slots)))
	for i, ks := range w.stats.Census {
		h := maphash.String(w.seed, ks.Key)
		w.slots[w.free(h)] = slot{h: uint32(h >> 32), i: uint32(i) + 1}
	}
}

// free is the index of the first empty slot on h's probe sequence.
func (w *watch) free(h uint64) uint64 {
	mask := uint64(len(w.slots) - 1)
	i := h & mask
	for w.slots[i].i != 0 {
		i = (i + 1) & mask
	}
	return i
}

// store copies key into the arena and returns it as a string aliasing
// the copy. A chunk is only appended to within its capacity, so the
// bytes behind earlier keys never change.
func (w *watch) store(key []byte) string {
	if len(key) == 0 {
		return ""
	}
	if cap(w.arena)-len(w.arena) < len(key) {
		w.arena = make([]byte, 0, max(len(key), min(maxChunk, max(minChunk, 2*cap(w.arena)))))
	}
	off := len(w.arena)
	w.arena = append(w.arena, key...)
	return unsafe.String(&w.arena[off], len(key))
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
