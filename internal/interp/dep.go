package interp

import "compreuse/internal/depmemo"

// Dependence-tracked reuse regions (ReuseRegion.Dep). Where execReuse
// forms a flat key from every declared input up front, execDepReuse
// watches the body's actual reads of the declared input locations and
// keys on that footprint via a depmemo.Table. The probe walks the
// footprint trie against current memory — reading only the locations a
// recorded run read — so the charged overhead is cost.Model.DepOverhead
// over the walked footprint, with no per-byte pass over wide inputs.
//
// Soundness is the determinism argument (see internal/depmemo): the
// body is deterministic over the watched locations, reads of a watched
// location after the body itself wrote it are derived values rather
// than inputs, and every read of watched memory funnels through the
// interpreter's load paths, so the recorded footprint is exact — there
// is no untracked channel into the body.

// depRange is one watched input: words [base, base+words) of seg,
// addressed in the trie as Loc{Input: input, Off: cell-base} (scalars
// as Loc{input, OffWhole}). Its cells' stamps start at stamps[first].
type depRange struct {
	seg    *Seg
	base   int
	words  int
	first  int
	scalar bool
}

// depWatcher tracks one active dep-region instance. Watchers nest
// dynamically (a dep region inside another's body, across calls), and
// each watched segment lists the ranges of the active watchers that
// cover it (Seg.covers), so a load or store reaches exactly the
// watchers that care.
// A location already read or written is not a new input: a second read
// repeats the first, and a read after a write sees a derived value.
// stamps[first+off] == epoch marks such a cell of a range; open bumps
// the epoch, which clears every mark at once.
type depWatcher struct {
	ranges []depRange
	path   []depmemo.Step
	stamps []uint32
	epoch  uint32
}

// cover is an active watcher's range input, listed on the segment the
// range covers.
type cover struct {
	depRange
	w     *depWatcher
	input int32
}

// open watches the input locations of one instance.
func (w *depWatcher) open(ins []part, fr *Seg) {
	for i := range ins {
		in := &ins[i]
		w.watch(in.addr(fr).ptr(), len(in.cells), in.val != nil)
	}
	w.begin()
}

// watch adds the input of words cells at p to the locations w watches.
func (w *depWatcher) watch(p Ptr, words int, scalar bool) {
	first := 0
	if n := len(w.ranges); n > 0 {
		first = w.ranges[n-1].first + w.ranges[n-1].words
	}
	w.ranges = append(w.ranges, depRange{seg: p.seg, base: p.off, words: words, first: first, scalar: scalar})
}

// begin starts an instance over the inputs watch added, none of whose
// cells has been read or written yet.
func (w *depWatcher) begin() {
	n := 0
	if k := len(w.ranges); k > 0 {
		n = w.ranges[k-1].first + w.ranges[k-1].words
	}
	if n > cap(w.stamps) {
		w.stamps = make([]uint32, n)
	}
	w.stamps = w.stamps[:n]
	if w.epoch++; w.epoch == 0 {
		clear(w.stamps[:cap(w.stamps)])
		w.epoch = 1
	}
}

// reset empties w for its next instance.
func (w *depWatcher) reset() {
	w.ranges, w.path = w.ranges[:0], w.path[:0]
}

// pushDep starts w, open, inside the running watchers: its ranges go on
// the cover lists of their segments.
func (mc *Machine) pushDep(w *depWatcher) {
	for i := range w.ranges {
		r := &w.ranges[i]
		if r.seg != nil {
			r.seg.covers = append(r.seg.covers, cover{depRange: *r, w: w, input: int32(i)})
		}
	}
}

// popDep ends w, the innermost watcher, and takes its ranges off their
// segments' cover lists, where its covers are the last ones. Watchers
// nest: the regions of a program do, and so do the dep watches of a
// watched run, which must be of disjoint segments (Watch.Dep).
func (mc *Machine) popDep(w *depWatcher) {
	for i := range w.ranges {
		seg := w.ranges[i].seg
		if seg == nil {
			continue
		}
		n := len(seg.covers)
		for n > 0 && seg.covers[n-1].w == w {
			n--
		}
		clear(seg.covers[n:])
		seg.covers = seg.covers[:n]
	}
}

// mark stamps cell off of c's range and reports whether it was unmarked.
func (c *cover) mark(off int) bool {
	k := c.first + off - c.base
	if c.w.stamps[k] == c.w.epoch {
		return false
	}
	c.w.stamps[k] = c.w.epoch
	return true
}

// onRead records a first read of a watched, untouched location while a
// watcher is active. seg's cover list names the watchers to notify; a
// segment no watcher covers, like every frame without watched inputs,
// returns at once, and so does a read of watch instrumentation (hide),
// which a plain run does not make. Each watcher sees a cell through the
// first of its ranges that covers it (a watcher's covers are listed
// together, in range order, because each watcher adds all of its ranges
// at once).
func (mc *Machine) onRead(seg *Seg, off int, v Value) {
	if mc.hide || len(seg.covers) == 0 {
		return
	}
	var last *depWatcher
	for i := range seg.covers {
		c := &seg.covers[i]
		if c.w == last || off < c.base || off >= c.base+c.words {
			continue
		}
		last = c.w
		if c.mark(off) {
			l := depmemo.Loc{Input: c.input, Off: depmemo.OffWhole}
			if !c.scalar {
				l.Off = int32(off - c.base)
			}
			c.w.path = append(c.w.path, depmemo.Step{Loc: l, Label: depEncode(v)})
		}
	}
}

// onWrite marks a watched location as body-produced: later reads of it
// are no longer input dependences. Watch instrumentation never writes.
func (mc *Machine) onWrite(seg *Seg, off int) {
	if len(seg.covers) == 0 {
		return
	}
	var last *depWatcher
	for i := range seg.covers {
		c := &seg.covers[i]
		if c.w == last || off < c.base || off >= c.base+c.words {
			continue
		}
		last = c.w
		c.mark(off)
	}
}

// Fetch serves a trie probe from current memory, making the watcher the
// depmemo.Fetcher for its own region. Locations a recorded run read
// out-of-range for this instance's inputs — past a range, or in a range
// with no cell there, like the pointee of a null pointer — yield a
// sentinel that forces the probe off the resident path.
func (w *depWatcher) Fetch(l depmemo.Loc) uint64 {
	if int(l.Input) >= len(w.ranges) {
		return depOOB(uint64(l.Input))
	}
	r := &w.ranges[l.Input]
	off := 0
	if l.Off != depmemo.OffWhole {
		off = int(l.Off)
	}
	if off < 0 || off >= r.words || r.seg == nil || r.base+off < 0 || r.base+off >= len(r.seg.data) {
		return depOOB(uint64(uint32(l.Off)))
	}
	return depEncode(r.seg.data[r.base+off])
}

// depEncode maps a cell value to its 64-bit equality label.
func depEncode(v Value) uint64 {
	if v.K == KPtr {
		// Pointer-valued cells key on the offset only; segment identity
		// is not stable across runs, but within one run two watched
		// pointers into the same frame differ exactly by offset. A null
		// pointer (or one derived from it) has no segment and labels
		// apart from every pointer into one, &x[0] included.
		if v.seg == nil {
			return depOOB(uint64(v.n) ^ 0x6e756c6c<<32)
		}
		return depOOB(uint64(v.n) ^ 0x70747265)
	}
	// Int payloads and float bits; a function value's payload is 0.
	return uint64(v.n)
}

// depOOB mixes a sentinel label (murmur3 finalizer, matching depmemo's
// out-of-band convention).
func depOOB(x uint64) uint64 {
	x ^= 0x6465705f6f6f625f
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// execDepReuse executes a dependence-tracked ReuseRegion.
//
// In reuse mode the footprint trie is probed against current memory; a
// hit copies the stored outputs, a miss runs the body under a watcher
// and records the observed read path. DepOverhead is charged over the
// footprint actually walked (the trie touches one location per level,
// so hits and misses pay for the same per-level work, mirroring
// execReuse's accounting). In profile mode the body always runs and the
// table takes the footprint census unpriced.
func (mc *Machine) execDepReuse(r *region, fr *Seg) ctrl {
	s := r.s
	if r.dep == nil {
		tab := mc.depTabs[s.TableID]
		if tab == nil {
			panic(rtErr(s.Pos(), "dep reuse region %q references unknown dep table %d", s.SegName, s.TableID))
		}
		r.dep, r.profile = tab, tab.Config().Profile
	}
	st := mc.enterRegion(r)
	sc := take(&r.spare)
	w := &sc.w
	defer func() {
		w.reset()
		r.spare = sc
	}()
	w.open(r.ins, fr)
	if !r.profile {
		if res := r.dep.Probe(w); res.Hit {
			mc.chargeOverhead(st, mc.m.DepOverhead(res.Steps, len(res.Outs)*4))
			st.Hits++
			mc.writeOutputs(r, res.Outs, fr)
			return cNone
		}
	}
	mc.pushDep(w)
	c := mc.runBody(r, fr)
	mc.popDep(w)
	if c != cNone {
		return c
	}
	sc.words = mc.readOutputs(sc.words[:0], r.outs, fr)
	r.dep.Record(w.path, sc.words)
	if !r.profile {
		mc.chargeOverhead(st, mc.m.DepOverhead(len(w.path), len(sc.words)*4))
	}
	return cNone
}
