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
// as Loc{input, OffWhole}).
type depRange struct {
	seg    *Seg
	base   int
	words  int
	scalar bool
}

// depWatcher tracks one active dep-region instance. Watchers nest
// dynamically (a dep region inside another's body, across calls): every
// load/store notifies the whole chain through parent.
// A location already read or written is not a new input: a second read
// repeats the first, and a read after a write sees a derived value.
type depWatcher struct {
	parent  *depWatcher
	ranges  []depRange
	path    []depmemo.Step
	touched map[depmemo.Loc]struct{}
}

// open watches the input locations of one instance.
func (w *depWatcher) open(ins []part, fr *Seg) {
	for i := range ins {
		in := &ins[i]
		p := in.addr(fr)
		w.ranges = append(w.ranges, depRange{seg: p.seg, base: p.off, words: len(in.cells), scalar: in.val != nil})
	}
}

// reset empties w for its next instance.
func (w *depWatcher) reset() {
	w.parent, w.ranges, w.path = nil, w.ranges[:0], w.path[:0]
	clear(w.touched)
}

// locate maps a memory cell to its trie location under this watcher,
// if the cell is watched.
func (w *depWatcher) locate(seg *Seg, off int) (depmemo.Loc, bool) {
	for i := range w.ranges {
		r := &w.ranges[i]
		if r.seg == seg && off >= r.base && off < r.base+r.words {
			if r.scalar {
				return depmemo.Loc{Input: int32(i), Off: depmemo.OffWhole}, true
			}
			return depmemo.Loc{Input: int32(i), Off: int32(off - r.base)}, true
		}
	}
	return depmemo.Loc{}, false
}

// onRead records a first read of a watched, untouched location.
func (w *depWatcher) onRead(seg *Seg, off int, v Value) {
	for ; w != nil; w = w.parent {
		if l, ok := w.locate(seg, off); ok {
			if _, done := w.touched[l]; !done {
				w.touched[l] = struct{}{}
				w.path = append(w.path, depmemo.Step{Loc: l, Label: depEncode(v)})
			}
		}
	}
}

// onWrite marks a watched location as body-produced: later reads of it
// are no longer input dependences.
func (w *depWatcher) onWrite(seg *Seg, off int) {
	for ; w != nil; w = w.parent {
		if l, ok := w.locate(seg, off); ok {
			w.touched[l] = struct{}{}
		}
	}
}

// Fetch serves a trie probe from current memory, making the watcher the
// depmemo.Fetcher for its own region. Locations a recorded run read
// out-of-range for this instance's inputs yield a sentinel that forces
// the probe off the resident path.
func (w *depWatcher) Fetch(l depmemo.Loc) uint64 {
	if int(l.Input) >= len(w.ranges) {
		return depOOB(uint64(l.Input))
	}
	r := &w.ranges[l.Input]
	off := 0
	if l.Off != depmemo.OffWhole {
		off = int(l.Off)
	}
	if off < 0 || off >= r.words {
		return depOOB(uint64(uint32(l.Off)))
	}
	return depEncode(r.seg.data[r.base+off])
}

// depEncode maps a cell value to its 64-bit equality label.
func depEncode(v Value) uint64 {
	if v.K == KPtr {
		// Pointer-valued cells key on the offset only; segment identity
		// is not stable across runs, but within one run two watched
		// pointers into the same frame differ exactly by offset.
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
	w.parent = mc.depWatch
	mc.depWatch = w
	c := mc.runBody(r, fr)
	mc.depWatch = w.parent
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
