package compreuse

import (
	"hash/maphash"
	"math"
	"sync"

	"compreuse/internal/depmemo"
	"compreuse/internal/obs"
)

// DepMemo is a dependence-tracked selective memoizer (Acar–Blelloch–
// Harper via the reuse scheme's cost model; see internal/depmemo): the
// compute function runs against a tracked view of its inputs, the memo
// records which inputs the run actually touched, and later calls probe
// keyed only on that footprint. A computation with ten declared inputs
// that reads two of them on the common path is keyed — and deduplicated
// — on those two; calls differing only in untouched inputs share one
// result. Differing read-sets coexist in one footprint trie.
//
// Compared to Memo/MemoTable, which key on the full argument list:
//
//   - keys narrow dynamically, so wide, mostly-irrelevant inputs (big
//     slices, config blobs) stop poisoning the hit rate and the probe
//     cost;
//   - per-input custom equality applies: slice inputs key on content
//     (hashed in place, never copied) and float inputs can use
//     tolerance-based equality;
//   - an explicit space budget bounds resident results with LRU
//     eviction.
//
// The compute function must be deterministic over the inputs it reads
// through the Dep view — that is the soundness condition for footprint
// keying: the values read so far determine the next read, so a probe
// that matches every recorded read would have recomputed the recorded
// result. Reads that bypass the view (globals, captured variables) are
// invisible and break the contract, exactly as they would break Memo.
//
// DepMemo is safe for concurrent use. Concurrent misses of identical
// input sets are deduplicated singleflight-style: one caller computes,
// the rest wait and re-probe.
type DepMemo struct {
	cfg  DepConfig
	seed maphash.Seed

	mu      sync.Mutex
	tab     *depmemo.Table
	fetch   depFetch
	flights flightTable
	calls   int64
	hits    int64

	depPool sync.Pool

	// tier is the TieredDepMemo layered over this memo (nil for a plain
	// DepMemo); a leader's miss runs through its remote tier.
	tier *TieredDepMemo
}

// DepConfig configures a DepMemo.
type DepConfig struct {
	// Name labels the memo in stats and, for TieredDepMemo, names the
	// shared remote segment.
	Name string
	// Budget bounds resident results (0 = unbounded); the least
	// recently used result is evicted when full.
	Budget int
	// FloatTolerance, when positive, keys Float reads on their value
	// quantized to this grid instead of exact bits: two floats in the
	// same grid cell are equal. Grid equality is a true equivalence
	// (unlike an epsilon ball, which is not transitive), but values
	// within the tolerance can still straddle a cell boundary.
	FloatTolerance float64
}

// DepStats reports a DepMemo's reuse behavior (PR 4 stats convention:
// cumulative counters, Snapshot-consistent, survive across calls until
// Reset).
type DepStats struct {
	// Calls is the number of Do invocations.
	Calls int64
	// Hits is the subset served from the footprint trie without running
	// compute — including callers that joined an in-flight compute and
	// found its freshly recorded result on re-probe.
	Hits int64
	// Distinct counts distinct dependence footprints ever recorded.
	Distinct int64
	// Evictions counts results displaced by the space budget.
	Evictions int64
	// Resident is the number of currently stored results.
	Resident int
	// MeanFootprint and MaxFootprint describe the recorded dynamic key
	// widths, in tracked reads per call.
	MeanFootprint float64
	MaxFootprint  int
}

// HitRatio is Hits/Calls (0 when never called).
func (s DepStats) HitRatio() float64 {
	if s.Calls == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Calls)
}

// NewDepMemo builds a DepMemo.
func NewDepMemo(cfg DepConfig) *DepMemo { return newDepMemo(cfg, false) }

// newDepMemo builds a DepMemo whose trie keeps evicted results' keys as
// ghosts when ghosts is set — the keys a TieredDepMemo asks L2 for.
func newDepMemo(cfg DepConfig, ghosts bool) *DepMemo {
	m := &DepMemo{
		cfg:  cfg,
		seed: maphash.MakeSeed(),
		tab:  depmemo.New(depmemo.Config{Name: cfg.Name, Entries: cfg.Budget, Ghosts: ghosts}),
	}
	m.fetch.m = m
	m.depPool.New = func() any { return &Dep{m: m, seen: map[depmemo.Loc]struct{}{}} }
	return m
}

// ---------------------------------------------------------------------------
// Inputs

type depKind uint8

const (
	depInt depKind = iota
	depFloat
	depBytes
	depWords
)

type depInput struct {
	kind depKind
	word uint64
	f    float64
	b    []byte
	w    []uint64
}

// DepInputs is a reusable positional input list for DepMemo.Do, in the
// KeyBuf style: build with Reset().Int(a).Float(x).Bytes(buf), reuse
// across calls to keep the hit path allocation-free. Slice inputs are
// referenced, never copied; they must not be mutated until Do returns.
// A DepInputs is not safe for concurrent use; give each goroutine its
// own.
type DepInputs struct {
	vals []depInput
}

// Reset empties the list, keeping capacity, and returns the receiver
// for chaining.
func (in *DepInputs) Reset() *DepInputs {
	in.vals = in.vals[:0]
	return in
}

// Int appends an integer input.
func (in *DepInputs) Int(v int64) *DepInputs {
	in.vals = append(in.vals, depInput{kind: depInt, word: uint64(v)})
	return in
}

// Float appends a float input (subject to the memo's FloatTolerance).
func (in *DepInputs) Float(v float64) *DepInputs {
	in.vals = append(in.vals, depInput{kind: depFloat, f: v})
	return in
}

// Bytes appends a byte-slice input keyed by content. The slice is not
// copied: whole-content reads hash it in place with maphash.
func (in *DepInputs) Bytes(b []byte) *DepInputs {
	in.vals = append(in.vals, depInput{kind: depBytes, b: b})
	return in
}

// Words appends a word-slice input keyed by content; elements are
// addressable individually through Dep.Word. The slice is not copied.
func (in *DepInputs) Words(w []uint64) *DepInputs {
	in.vals = append(in.vals, depInput{kind: depWords, w: w})
	return in
}

// Len returns the number of inputs appended since the last Reset.
func (in *DepInputs) Len() int { return len(in.vals) }

// ---------------------------------------------------------------------------
// Labels: the per-key custom equality. A label is the 64-bit equality
// class of one tracked read; two reads are equal iff their labels are.
// Int and Word reads use the value itself. Float reads quantize to the
// tolerance grid. Whole-slice reads use a content hash (maphash for
// bytes, seeded mix64 folding for words) — 64-bit, so a hash collision
// can alias two contents; the probability (~2⁻⁶⁴ per comparison) is the
// same one every content-addressed cache accepts.

func (m *DepMemo) label(in *DepInputs, l depmemo.Loc) uint64 {
	if int(l.Input) >= len(in.vals) {
		return oobLabel(uint64(l.Input))
	}
	v := &in.vals[l.Input]
	switch l.Off {
	case depmemo.OffWhole:
		switch v.kind {
		case depInt:
			return v.word
		case depFloat:
			return m.quantize(v.f)
		case depBytes:
			return maphash.Bytes(m.seed, v.b)
		default:
			return m.hashWords(v.w)
		}
	case depmemo.OffLen:
		if v.kind == depBytes {
			return uint64(len(v.b))
		}
		return uint64(len(v.w))
	default:
		switch v.kind {
		case depWords:
			if int(l.Off) < len(v.w) {
				return v.w[l.Off]
			}
		case depBytes:
			if int(l.Off) < len(v.b) {
				return uint64(v.b[l.Off])
			}
		}
		return oobLabel(uint64(l.Off))
	}
}

// oobLabel marks an element read that the probing input set cannot
// serve (shorter slice, fewer inputs): a constant-mixed sentinel that a
// recorded in-range label matches with probability ~2⁻⁶⁴, forcing the
// probe to diverge from the resident path.
func oobLabel(x uint64) uint64 { return mix64(x ^ 0x6f6f625f6465705f) }

// quantize maps a float to its equality class under the tolerance grid.
func (m *DepMemo) quantize(v float64) uint64 {
	if m.cfg.FloatTolerance > 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
		return uint64(int64(math.Round(v / m.cfg.FloatTolerance)))
	}
	return math.Float64bits(v)
}

// hashWords folds a word slice through the seeded murmur3 finalizer —
// content hashing without copying the slice into bytes.
func (m *DepMemo) hashWords(w []uint64) uint64 {
	h := maphash.Bytes(m.seed, nil) // seed-derived initial state
	for _, x := range w {
		h = mix64(h ^ x)
	}
	return mix64(h ^ uint64(len(w)))
}

// depFetch adapts label lookup to the trie's Fetcher without a per-call
// closure allocation; it is reused under the memo's lock.
type depFetch struct {
	m  *DepMemo
	in *DepInputs
}

func (f *depFetch) Fetch(l depmemo.Loc) uint64 { return f.m.label(f.in, l) }

// flightKey hashes the full input list — the singleflight identity for
// concurrent misses. (The footprint is unknown until the leader runs,
// so in-flight dedup is necessarily full-key; followers re-probe on the
// narrowed key afterwards.)
func (m *DepMemo) flightKey(in *DepInputs) uint64 {
	h := maphash.Bytes(m.seed, nil)
	for i := range in.vals {
		h = mix64(h ^ m.label(in, depmemo.Loc{Input: int32(i), Off: depmemo.OffWhole}))
	}
	return mix64(h ^ uint64(len(in.vals)))
}

// ---------------------------------------------------------------------------
// The tracked view

// Dep is the tracked input view a compute function runs against. Every
// accessor records the dependence (input, granularity) → value so the
// memo can key this run on exactly what it read. Reading the same
// location twice records it once. A Dep is only valid inside its
// compute invocation.
type Dep struct {
	m    *DepMemo
	in   *DepInputs
	path []depmemo.Step
	seen map[depmemo.Loc]struct{}
	out  [1]uint64
}

func (d *Dep) note(l depmemo.Loc) {
	if _, ok := d.seen[l]; ok {
		return
	}
	d.seen[l] = struct{}{}
	d.path = append(d.path, depmemo.Step{Loc: l, Label: d.m.label(d.in, l)})
}

// Get reads integer input i, recording the dependence.
func (d *Dep) Get(i int) int64 {
	d.note(depmemo.Loc{Input: int32(i), Off: depmemo.OffWhole})
	return int64(d.in.vals[i].word)
}

// Float reads float input i, recording the dependence under the memo's
// tolerance equality. The exact value is returned; only the key is
// quantized.
func (d *Dep) Float(i int) float64 {
	d.note(depmemo.Loc{Input: int32(i), Off: depmemo.OffWhole})
	return d.in.vals[i].f
}

// Slice reads word-slice input i whole, recording a single content-hash
// dependence; the returned slice aliases the input (no copy). Use Word
// for element-granular dependence instead when the computation touches
// only part of the slice.
func (d *Dep) Slice(i int) []uint64 {
	d.note(depmemo.Loc{Input: int32(i), Off: depmemo.OffWhole})
	return d.in.vals[i].w
}

// Bytes reads byte-slice input i whole, recording a single content-hash
// dependence computed in place with maphash (the slice is never
// copied).
func (d *Dep) Bytes(i int) []byte {
	d.note(depmemo.Loc{Input: int32(i), Off: depmemo.OffWhole})
	return d.in.vals[i].b
}

// Word reads element j of word-slice input i, recording an element-
// granular dependence: later calls differing only in elements this run
// never read still hit.
func (d *Dep) Word(i, j int) uint64 {
	d.note(depmemo.Loc{Input: int32(i), Off: int32(j)})
	return d.in.vals[i].w[j]
}

// Len reads the length of slice input i, recording a length-only
// dependence.
func (d *Dep) Len(i int) int {
	d.note(depmemo.Loc{Input: int32(i), Off: depmemo.OffLen})
	v := &d.in.vals[i]
	if v.kind == depBytes {
		return len(v.b)
	}
	return len(v.w)
}

func (m *DepMemo) getDep(in *DepInputs) *Dep {
	d := m.depPool.Get().(*Dep)
	d.in = in
	d.path = d.path[:0]
	clear(d.seen)
	return d
}

func (m *DepMemo) putDep(d *Dep) {
	d.in = nil
	m.depPool.Put(d)
}

// ---------------------------------------------------------------------------
// Do

// Do returns the memoized result for the footprint compute reads out of
// in, running compute on a miss. compute must be deterministic over its
// tracked reads; see the type comment.
func (m *DepMemo) Do(in *DepInputs, compute func(*Dep) uint64) uint64 {
	v, _ := m.do(in, compute, nil)
	return v
}

// do is the flight loop behind both DepMemo.Do and TieredDepMemo.Do. A
// call probes the trie; on a miss it joins the in-flight compute of the
// same inputs and re-probes, or leads its own. hit reports a call served
// from the trie, directly or after another caller's flight. root is the
// TieredDepMemo request's span (nil for a plain DepMemo).
func (m *DepMemo) do(in *DepInputs, compute func(*Dep) uint64, root *obs.Span) (v uint64, hit bool) {
	for waited := false; ; waited = true {
		m.mu.Lock()
		if !waited {
			m.calls++
		}
		m.fetch.in = in
		r := m.tab.Probe(&m.fetch)
		m.fetch.in = nil
		if r.Hit {
			m.hits++
			v := r.Outs[0]
			m.mu.Unlock()
			return v, true
		}
		var fl *flight
		if !waited {
			// Join the in-flight compute of the same inputs and
			// re-probe — if the leader's inputs were ours, its record is
			// our hit — or lead a flight of our own.
			var wait <-chan struct{}
			if fl, wait = m.flights.join(m.flightKey(in)); wait != nil {
				m.mu.Unlock()
				<-wait
				continue
			}
		}
		if r.Ghost {
			// The key aliases trie storage; copy it out before dropping
			// the lock for the round trip. The copy must be per-call — a
			// concurrent ghost probe would clobber a shared scratch
			// while the remote GET still reads it — and the path is
			// already paying a round trip.
			r.Key = append([]byte(nil), r.Key...)
		}
		m.mu.Unlock()
		return m.miss(in, compute, r, fl, root), false
	}
}

// miss is a call's slow path once the trie has missed: compute with
// tracking and record, or — for a TieredDepMemo — its remote tier's
// ghost refill and publish around that. fl is the caller's flight (nil
// when it already waited one out); a panic in the path still lands it
// and propagates.
func (m *DepMemo) miss(in *DepInputs, compute func(*Dep) uint64, r depmemo.Result, fl *flight, root *obs.Span) uint64 {
	defer m.flights.release(&m.mu, fl)
	if m.tier != nil {
		return m.tier.miss(in, compute, r, fl, root)
	}
	d := m.getDep(in)
	v := compute(d)
	m.land(d, v, fl)
	m.putDep(d)
	return v
}

// land records a computed result and lands the caller's flight fl (nil
// when it has none) in one critical section, so a follower woken by the
// flight re-probes into the record.
func (m *DepMemo) land(d *Dep, v uint64, fl *flight) {
	d.out[0] = v
	m.mu.Lock()
	m.tab.Record(d.path, d.out[:])
	m.flights.land(fl)
	m.mu.Unlock()
}

// Stats returns a consistent snapshot of the memo's counters.
func (m *DepMemo) Stats() DepStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	ts := m.tab.Stats()
	return DepStats{
		Calls:         m.calls,
		Hits:          m.hits,
		Distinct:      ts.Distinct,
		Evictions:     ts.Evictions,
		Resident:      m.tab.Resident(),
		MeanFootprint: ts.MeanFootprint(),
		MaxFootprint:  ts.MaxFootprint,
	}
}

// Reset drops every memoized result and counter, returning the memo to
// its freshly constructed state (PR 4 convention). Computations already
// in flight record into the fresh table when they finish.
func (m *DepMemo) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tab.Reset()
	m.calls = 0
	m.hits = 0
}

// ---------------------------------------------------------------------------
// Tiered: dep-narrowed keys on the remote L2 wire path

// TieredDepMemoConfig sizes a TieredDepMemo.
type TieredDepMemoConfig struct {
	// Name is the shared segment name on the server.
	Name string
	// Budget bounds the process-local footprint trie (0 picks 4096 —
	// the tier exists to recover from eviction, so the budget must
	// bind).
	Budget int
	// FloatTolerance is the local grid equality (see DepConfig).
	FloatTolerance float64
	// Remote configures the server-side table (OutWords forced to 1).
	Remote SegmentConfig
}

// TieredDepStats counts where a TieredDepMemo's calls were served from.
// Calls == L1Hits + GhostHits + Computes.
type TieredDepStats struct {
	Calls int64
	// L1Hits were served from the local footprint trie, including
	// callers that waited out another caller's compute of the same
	// inputs.
	L1Hits int64
	// GhostHits matched an evicted result's retained key and refilled
	// it from the remote tier — the probe proved which result was
	// needed without recomputing it.
	GhostHits int64
	// Computes ran the computation (fresh footprint, remote miss,
	// bypass, or remote error).
	Computes int64
	// Bypassed is the subset of Computes whose ghost GET the governor
	// answered with BYPASS.
	Bypassed int64
	// Errors is the subset of Computes taken because the remote tier
	// failed.
	Errors int64
}

// TieredDepMemo layers a budgeted local DepMemo over a remote crcserve
// segment, with the dep-narrowed key on the wire: when the space budget
// evicts a result, its footprint path stays resident as a ghost — the
// encoded dependence key without the value — so a later matching probe
// can fetch the result from the shared remote table by key instead of
// recomputing. Freshly computed results are published under the same
// canonical key encoding.
//
// Unlike the full-key TieredMemo, a cold process cannot ask the fleet
// for a result it never computed: a dependence key is only discoverable
// by reading the footprint, which is what the compute does. The remote
// tier is therefore an eviction-recovery tier — it converts budget
// evictions from recomputations into round trips — not a cold-start
// accelerator. It degrades gracefully: on remote errors Do computes
// locally and never fails.
//
// Do runs through DepMemo's flight loop, so concurrent misses of one
// input set cost one ghost GET and at most one compute, and it keeps
// TieredMemo's conventions: atomic counters, a "tiered_dep.do" root
// span over the traced GET and PUT, and a Reset that drops both tiers.
type TieredDepMemo struct {
	remoteTier
	dm *DepMemo
}

// NewTieredDepMemo registers the segment on the client's nodes and
// builds the tiered memo.
func NewTieredDepMemo(c *Client, cfg TieredDepMemoConfig) (*TieredDepMemo, error) {
	seg, err := remoteSegment(c, cfg.Name, cfg.Remote)
	if err != nil {
		return nil, err
	}
	return newTieredDepMemo(seg, cfg), nil
}

func newTieredDepMemo(seg remoteCache, cfg TieredDepMemoConfig) *TieredDepMemo {
	budget := cfg.Budget
	if budget <= 0 {
		budget = 4096
	}
	t := &TieredDepMemo{remoteTier: remoteTier{seg: seg}}
	t.dm = newDepMemo(DepConfig{Name: cfg.Name, Budget: budget, FloatTolerance: cfg.FloatTolerance}, true)
	t.dm.tier = t
	return t
}

// Do returns the memoized result for the footprint compute reads out of
// in: local trie first, then — when the probe matches an evicted
// result's ghost — the remote tier by dependence key, then compute.
func (t *TieredDepMemo) Do(in *DepInputs, compute func(*Dep) uint64) uint64 {
	// With tracing disabled the root is one atomic load and an inert
	// zero Span: the trie-hit path stays 0 allocs/op (pinned by
	// TestTieredDepMemoTrieHitZeroAlloc).
	root := obs.StartRoot("tiered_dep.do")
	t.stats[tsCalls].Add(1)
	v, hit := t.dm.do(in, compute, &root)
	if hit {
		t.stats[tsL1Hits].Add(1)
		root.Outcome("l1_hit")
	}
	root.End()
	return v
}

// miss is the flight leader's slow path (see DepMemo.miss): the shared
// L2 leg, asking by a ghost's key when the probe matched one. An L2 hit
// refills the trie; a computed result records under its footprint and
// publishes under the canonical dependence key. Either way the flight
// lands with the trie write, before any PUT.
func (t *TieredDepMemo) miss(in *DepInputs, compute func(*Dep) uint64, r depmemo.Result, fl *flight, root *obs.Span) uint64 {
	m := t.dm
	var d *Dep
	return t.leg(r.Key, r.Ghost, root, func() uint64 {
		d = m.getDep(in)
		return compute(d)
	}, func(v uint64, publish bool) (key []byte) {
		if d == nil {
			// compute never ran: v is an L2 hit for the ghost.
			m.mu.Lock()
			m.tab.Refill(r, r.Key, []uint64{v})
			m.flights.land(fl)
			m.mu.Unlock()
			return nil
		}
		if publish {
			key = depmemo.EncodeSteps(nil, d.path)
		}
		m.land(d, v, fl)
		m.putDep(d)
		return key
	})
}

// Stats returns a snapshot of the tier counters.
func (t *TieredDepMemo) Stats() TieredDepStats {
	return TieredDepStats{
		Calls:     t.stats[tsCalls].Load(),
		L1Hits:    t.stats[tsL1Hits].Load(),
		GhostHits: t.stats[tsL2Hits].Load(),
		Computes:  t.stats[tsComputes].Load(),
		Bypassed:  t.stats[tsBypassed].Load(),
		Errors:    t.stats[tsErrors].Load(),
	}
}

// Local returns the local DepMemo's stats (footprints, evictions,
// residency).
func (t *TieredDepMemo) Local() DepStats { return t.dm.Stats() }

// Reset drops both tiers, as TieredMemo.Reset does: the local trie and
// counters are cleared and the server-side segment is flushed (which
// also readmits it).
func (t *TieredDepMemo) Reset() error {
	t.dm.Reset()
	return t.remoteTier.reset()
}
