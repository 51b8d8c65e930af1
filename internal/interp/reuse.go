package interp

import (
	"compreuse/internal/depmemo"
	"compreuse/internal/minic"
	"compreuse/internal/reusetab"
)

// region is a lowered ReuseRegion; table, stats and overhead resolve on
// first entry. An instance takes spare, so a recursive entry gets its own.
type region struct {
	s         *minic.ReuseRegion
	ins, outs []part
	body      stmt
	st        *SegRunStats
	tab       *reusetab.Table
	dep       *depmemo.Table
	profile   bool
	oh        int64
	spare     *scratch
}

// scratch is one region instance's key, output and watcher buffers.
type scratch struct {
	key   []byte
	words []uint64
	w     depWatcher
}

// take claims the spare scratch, or a new one when an instance already
// holds it.
func take(spare **scratch) *scratch {
	sc := *spare
	*spare = nil
	if sc == nil {
		sc = &scratch{}
	}
	return sc
}

// part is one lowered region input or output: val reads a scalar (nil for
// aggregates), addr yields the address of the storage, whose scalar
// leaves are cells.
type part struct {
	layout
	val  expr
	addr expr
	pos  minic.Pos
}

// layout is the storage of a region or watch part: its scalar leaves, at
// offsets [lo, hi) from the part's address.
type layout struct {
	cells  []cell
	lo, hi int
}

type cell struct {
	off   int
	float bool
}

func layoutOf(t minic.Type) layout {
	l := layout{cells: flatten(t, 0, nil)}
	l.lo, l.hi = l.cells[0].off, l.cells[0].off+1
	for _, c := range l.cells {
		l.lo, l.hi = min(l.lo, c.off), max(l.hi, c.off+1)
	}
	return l
}

// fits reports whether every cell of l at base lies in base's segment.
func (l *layout) fits(base Ptr) bool {
	return base.seg != nil && base.off+l.lo >= 0 && base.off+l.hi <= len(base.seg.data)
}

func flatten(t minic.Type, off int, out []cell) []cell {
	switch t := t.(type) {
	case *minic.Array:
		for i := 0; i < t.Len; i++ {
			out = flatten(t.Elem, off+i*t.Elem.Words(), out)
		}
	case *minic.Struct:
		for _, f := range t.Fields {
			out = flatten(f.Type, off+f.WordOff, out)
		}
	default:
		out = append(out, cell{off: off, float: minic.IsFloat(t)})
	}
	return out
}

// lowerParts lowers region inputs or outputs, with addr for aggregates and,
// given lvalues, for all (hits write outputs; dep inputs are watched).
func (mc *Machine) lowerParts(es []minic.Expr, lvalues bool) []part {
	ps := make([]part, len(es))
	for i, e := range es {
		agg := minic.IsAggregate(e.Type())
		ps[i] = part{layout: layoutOf(e.Type()), pos: e.Pos()}
		if !agg {
			ps[i].val = mc.lowerExpr(e)
		}
		if agg || lvalues {
			ps[i].addr = mc.paid(mc.place(e))
		}
	}
	return ps
}

func (mc *Machine) lowerRegion(s *minic.ReuseRegion) stmt {
	r := &region{s: s, body: mc.lowerStmt(s.Body), ins: mc.lowerParts(s.Inputs, s.Dep), outs: mc.lowerParts(s.Outputs, true)}
	pos, exec := s.Pos(), mc.execReuse
	if s.Dep {
		exec = mc.execDepReuse
	}
	return func(fr *Seg) ctrl { mc.step(pos); return exec(r, fr) }
}

// enterRegion counts an instance against the region's stats, created on
// first entry.
func (mc *Machine) enterRegion(r *region) *SegRunStats {
	if r.st == nil {
		if r.st = mc.segs[r.s.ID()]; r.st == nil {
			r.st = &SegRunStats{}
			mc.segs[r.s.ID()] = r.st
		}
	}
	r.st.Instances++
	return r.st
}

func (mc *Machine) chargeOverhead(st *SegRunStats, oh int64) {
	mc.charge(oh)
	mc.ops.HashOps += oh
	st.OverheadCycles += oh
}

// runBody executes the region body, accounting its cycles.
func (mc *Machine) runBody(r *region, fr *Seg) ctrl {
	before := mc.cycles
	c := r.body(fr)
	r.st.BodyCycles += mc.cycles - before
	r.st.BodyRuns++
	return c
}

// execReuse executes a ReuseRegion (paper Fig. 2b):
//
//	key := concat(inputs)
//	if probe(key) misses { run body; record(key, outputs) }
//	else { copy stored outputs }
//
// In ModeReuse the modeled hashing overhead is charged on every instance
// (the paper notes hits and misses perform the same extra work). In
// ModeProfile no overhead is charged — profiling is an offline activity —
// and the body always runs while the table takes the input census; the
// region additionally measures the body's granularity.
func (mc *Machine) execReuse(r *region, fr *Seg) ctrl {
	s := r.s
	if r.tab == nil {
		tab := mc.tables[s.TableID]
		if tab == nil {
			panic(rtErr(s.Pos(), "reuse region %q references unknown table %d", s.SegName, s.TableID))
		}
		cfg := tab.Config()
		r.tab, r.profile = tab, cfg.Mode == reusetab.ModeProfile
		if !r.profile {
			r.oh = mc.m.HashOverhead(cfg.KeyBytes, cfg.OutBytes[s.SegBit])
		}
	}
	st := mc.enterRegion(r)
	sc := take(&r.spare)
	defer func() { r.spare = sc }()
	sc.key = mc.appendKey(sc.key[:0], r.ins, fr)
	if !r.profile {
		mc.chargeOverhead(st, r.oh)
	}
	if outs, hit := r.tab.Probe(s.SegBit, sc.key); hit {
		st.Hits++
		mc.writeOutputs(r, outs, fr)
		return cNone
	}
	if c := mc.runBody(r, fr); c != cNone {
		// A body escaping the region records nothing (defensive: the
		// transform pass wraps only single-entry single-exit bodies).
		return c
	}
	sc.words = mc.readOutputs(sc.words[:0], r.outs, fr)
	r.tab.Record(s.SegBit, sc.key, sc.words)
	return cNone
}

// Region and watch parts read and write an aggregate in one pass: one
// bounds check over its span and one summed charge (span), then a loop
// over the segment's cells, each still reported to the dependence
// watchers when one is active. A span out of range takes the per-cell
// path, which faults at the first bad cell as a load or store would.

// span charges the accesses of p's cells at base, unit cycles and one
// memory op each, when all of them lie in base's segment, and reports
// whether they do.
func (mc *Machine) span(p *part, base Ptr, unit int64) bool {
	if !p.fits(base) {
		return false
	}
	n := int64(len(p.cells))
	mc.cycles += n * unit
	mc.ops.MemOps += n
	return true
}

// appendKey concatenates the bit patterns of the input values (paper
// §2.1). Scalar ints contribute 4 bytes, floats 8; aggregate inputs
// contribute every element.
func (mc *Machine) appendKey(key []byte, ins []part, fr *Seg) []byte {
	for i := range ins {
		in := &ins[i]
		if in.val != nil {
			key = appendScalar(key, in.val(fr), in.cells[0].float)
			continue
		}
		base := in.addr(fr).ptr()
		if !mc.span(in, base, mc.m.Load) {
			key = mc.keyCells(key, in, base)
			continue
		}
		seg := base.seg
		if len(seg.covers) != 0 {
			for _, c := range in.cells {
				off := base.off + c.off
				mc.onRead(seg, off, seg.data[off])
			}
		}
		key = appendCells(key, in.cells, seg.data[base.off:])
	}
	return key
}

// keyCells is appendKey's per-cell path for the aggregate in at base: it
// loads each cell as a load would, faulting at the first it cannot, and
// then encodes them. A part's first cell is at offset 0, so base.off is
// not negative once that load has succeeded.
func (mc *Machine) keyCells(key []byte, in *part, base Ptr) []byte {
	for _, c := range in.cells {
		mc.load(Ptr{seg: base.seg, off: base.off + c.off}, in.pos)
	}
	return appendCells(key, in.cells, base.seg.data[base.off:])
}

// appendScalar appends the bit pattern of a scalar input v, converted to
// its float or int type.
func appendScalar(key []byte, v Value, float bool) []byte {
	if float {
		return reusetab.AppendFloat(key, convFloat.do(v).float())
	}
	return reusetab.AppendInt(key, convInt.do(v).n)
}

// appendCells appends the bit patterns of the aggregate cells cs, whose
// storage starts at data[0].
func appendCells(key []byte, cs []cell, data []Value) []byte {
	for _, c := range cs {
		if v := data[c.off]; c.float {
			key = reusetab.AppendFloat(key, v.fval())
		} else {
			key = reusetab.AppendInt(key, v.ival())
		}
	}
	return key
}

// readOutputs appends the encoded values of the output lvalues; tables
// copy what they record.
func (mc *Machine) readOutputs(words []uint64, outs []part, fr *Seg) []uint64 {
	for i := range outs {
		o := &outs[i]
		if o.val != nil {
			words = append(words, encodeScalar(o.val(fr), o.cells[0].float))
			continue
		}
		base := o.addr(fr).ptr()
		if !mc.span(o, base, mc.m.Load) {
			words = mc.readCells(words, o, base)
			continue
		}
		seg := base.seg
		watched := len(seg.covers) != 0
		for _, c := range o.cells {
			off := base.off + c.off
			v := seg.data[off]
			if watched {
				mc.onRead(seg, off, v)
			}
			words = append(words, encodeScalar(v, c.float))
		}
	}
	return words
}

// readCells is readOutputs' per-cell path for the aggregate o at base.
func (mc *Machine) readCells(words []uint64, o *part, base Ptr) []uint64 {
	for _, c := range o.cells {
		words = append(words, encodeScalar(mc.load(Ptr{seg: base.seg, off: base.off + c.off}, o.pos), c.float))
	}
	return words
}

func encodeScalar(v Value, float bool) uint64 {
	if float {
		return uint64(convFloat.do(v).n)
	}
	return uint64(convInt.do(v).n)
}

// writeOutputs decodes stored words into the output lvalues on a hit.
func (mc *Machine) writeOutputs(r *region, words []uint64, fr *Seg) {
	i := 0
	for j := range r.outs {
		o := &r.outs[j]
		base := o.addr(fr).ptr()
		if !mc.span(o, base, mc.m.Store) {
			i = mc.writeCells(o, base, words, i)
			continue
		}
		seg := base.seg
		watched := len(seg.covers) != 0
		for _, c := range o.cells {
			off := base.off + c.off
			if watched {
				mc.onWrite(seg, off)
			}
			seg.data[off] = decodeScalar(words[i], c.float)
			i++
		}
	}
	if i != len(words) {
		panic(rtErr(r.s.Pos(), "reuse region %q: output width mismatch (%d of %d words)", r.s.SegName, i, len(words)))
	}
}

// writeCells is writeOutputs' per-cell path for the output o at base,
// from words[i:]; it returns the index of the next word.
func (mc *Machine) writeCells(o *part, base Ptr, words []uint64, i int) int {
	for _, c := range o.cells {
		mc.storePtr(Ptr{seg: base.seg, off: base.off + c.off}, decodeScalar(words[i], c.float), o.pos)
		i++
	}
	return i
}

// decodeScalar is the value a stored output word holds.
func decodeScalar(w uint64, float bool) Value {
	if float {
		return Value{K: KFloat, n: int64(w)}
	}
	return Value{K: KInt, n: int64(w)}
}
