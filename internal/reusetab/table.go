package reusetab

import (
	"bytes"
	"fmt"

	"compreuse/internal/obs"
)

// Mode selects how a Table behaves.
type Mode int

// Table modes.
const (
	// ModeReuse is the production behavior: probe, then record on miss.
	ModeReuse Mode = iota
	// ModeProfile is value-set profiling (paper §2.1): every probe misses
	// so the segment body always runs, and the table records the census of
	// distinct input sets, per-key frequencies, and would-be collisions.
	ModeProfile
)

// Config describes one reuse table. A merged table (paper §2.5) serves
// Segs > 1 code segments that share an identical input set; each segment
// owns one valid bit and its own output columns.
type Config struct {
	// Name labels the table in diagnostics, e.g. "quan".
	Name string
	// Segs is the number of merged code segments (1 for an unmerged table).
	Segs int
	// KeyBytes is the modeled C byte width of one input set; the paper's
	// "hash key not greater than 32 bits" fast path applies when
	// KeyBytes <= 4.
	KeyBytes int
	// OutWords is the per-segment output width in VM words.
	OutWords []int
	// OutBytes is the per-segment modeled output width in C bytes.
	OutBytes []int
	// Entries is the direct-addressed table size in entries. Entries <= 0
	// means "optimal": the table grows to hold every distinct input
	// (a map), which is the configuration the paper uses for its headline
	// numbers (hash table sized from profiling).
	Entries int
	// LRU selects a fully-associative buffer with least-recently-used
	// replacement instead of direct addressing; used to emulate the
	// hardware reuse buffers of Table 5.
	LRU bool
	// Mode selects reuse or profiling behavior.
	Mode Mode
}

// SegStats accumulates per-segment counters.
type SegStats struct {
	Probes     int64
	Hits       int64
	Misses     int64
	Records    int64
	Collisions int64 // probes that missed because a different key held the slot
	// Evictions counts resident entries displaced by this segment's
	// records: LRU replacement of the least-recently-used entry, or a
	// direct-addressed overwrite of a different key's entry (§3.1's
	// replace-on-collision). Unbounded tables never evict.
	Evictions int64
}

// HitRatio returns Hits/Probes, or 0 when never probed.
func (s SegStats) HitRatio() float64 {
	if s.Probes == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Probes)
}

// add returns the field-wise sum of s and o.
func (s SegStats) add(o SegStats) SegStats {
	s.Probes += o.Probes
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Records += o.Records
	s.Collisions += o.Collisions
	s.Evictions += o.Evictions
	return s
}

type entry struct {
	used bool
	// key holds the entry's input pattern as bytes (not a string) so a
	// replacement can reuse the buffer's capacity instead of allocating:
	// the probe/record hot path must stay at zero allocations in steady
	// state (formula 3 counts every nanosecond of overhead O against the
	// segment's profitability).
	key   []byte
	valid uint64
	outs  [][]uint64
}

// reclaim repoints an entry at key, reusing the key buffer and the
// per-segment output-slice headers it already owns. The valid bits are
// cleared; stale words left in the output buffers are unreachable until
// a Record re-validates their segment.
func (e *entry) reclaim(key []byte, segs int) {
	e.used = true
	e.key = append(e.key[:0], key...)
	e.valid = 0
	if cap(e.outs) < segs {
		e.outs = make([][]uint64, segs)
	} else {
		e.outs = e.outs[:segs]
	}
}

// storeOuts copies outs into dst, reusing dst's capacity when it
// suffices. The copy (rather than retaining the caller's slice) keeps
// the table the sole owner of its stored words.
func storeOuts(dst, outs []uint64) []uint64 {
	if cap(dst) < len(outs) {
		dst = make([]uint64, len(outs))
	}
	dst = dst[:len(outs)]
	copy(dst, outs)
	return dst
}

// Table is one reuse table instance.
type Table struct {
	cfg   Config
	stats []SegStats
	// resident is the number of entries currently stored (distinct keys
	// for unbounded tables, occupied slots otherwise).
	resident int
	// occGauge, when non-nil, is the per-table occupancy gauge updated on
	// instrumented records. Sharded clears it on its per-shard tables and
	// maintains the whole-table gauge itself.
	occGauge *obs.Gauge

	// Direct-addressed or LRU storage.
	slots []entry
	// LRU bookkeeping: resident key → slot, the recency list, and the
	// next never-used slot (slots fill in index order before the first
	// eviction, matching the historical first-free-slot scan).
	lruIdx  map[string]int
	lruList *LRUList
	lruFree int
	// Optimal (unbounded) storage.
	byKey map[string]*entry

	// accessCounts counts probes per table entry (Figures 7 and 8): per
	// slot index for the direct-addressed and LRU modes, per first-seen
	// rank in ModeProfile, where it is the union census. Unbounded reuse
	// tables keep none.
	accessCounts []int64
	// The profiling census (ModeProfile only), indexed by rank: rank maps
	// every probed key to its first-seen rank and rankKeys[r] is the key
	// of rank r. A merged table's members probe with their own dynamic
	// key streams, so their N_ds values differ: segCounts[seg][r] is the
	// probe count of rank r by seg, and segDistinct[seg] the number of
	// nonzero segCounts[seg] entries.
	rank        map[string]int
	rankKeys    []string
	segCounts   [][]int64
	segDistinct []int
}

// New creates a table from cfg. It panics on malformed configs (these are
// produced by the compiler, not end users).
func New(cfg Config) *Table {
	if cfg.Segs < 1 {
		panic("reusetab: Segs must be >= 1")
	}
	if len(cfg.OutWords) != cfg.Segs || len(cfg.OutBytes) != cfg.Segs {
		panic(fmt.Sprintf("reusetab %q: output specs (%d/%d) do not match Segs=%d",
			cfg.Name, len(cfg.OutWords), len(cfg.OutBytes), cfg.Segs))
	}
	if cfg.Segs > 64 {
		panic("reusetab: merged tables support at most 64 segments (one valid-bit word)")
	}
	t := &Table{
		cfg:      cfg,
		stats:    make([]SegStats, cfg.Segs),
		occGauge: OccupancyGauge(cfg.Name),
	}
	switch {
	case cfg.Mode == ModeProfile:
		t.rank = map[string]int{}
		t.segCounts = make([][]int64, cfg.Segs)
		t.segDistinct = make([]int, cfg.Segs)
	case cfg.Entries > 0:
		t.slots = make([]entry, cfg.Entries)
		t.accessCounts = make([]int64, cfg.Entries)
		if cfg.LRU {
			t.lruIdx = make(map[string]int, cfg.Entries)
			t.lruList = NewLRUList(cfg.Entries)
		}
	default:
		t.byKey = map[string]*entry{}
	}
	return t
}

// Config returns the table's configuration.
func (t *Table) Config() Config { return t.cfg }

// Stats returns the statistics for segment seg.
func (t *Table) Stats(seg int) SegStats { return t.stats[seg] }

// index maps a key to a direct-addressed slot.
func (t *Table) index(key []byte) int {
	return IndexOfBytes(key, len(t.slots))
}

// IndexOf is IndexOfBytes over a string key. The conversion copies
// nothing: IndexOfBytes neither keeps nor writes the bytes.
func IndexOf(key string, entries int) int {
	return IndexOfBytes([]byte(key), entries)
}

// IndexOfBytes maps a key to a slot in a direct-addressed table of the
// given entry count. Keys of at most 32 bits use the value itself modulo
// the table size; wider keys are first reduced with the Jenkins hash
// (§3.1). A non-positive entry count has a single conceptual slot:
// IndexOfBytes returns 0 rather than dividing by zero. The probe, table
// sizing (OptimalEntries) and the profile's collision deduction all place
// keys with it.
func IndexOfBytes(key []byte, entries int) int {
	if entries <= 0 {
		return 0
	}
	var h uint32
	if len(key) <= 4 {
		for i := len(key) - 1; i >= 0; i-- {
			h = h<<8 | uint32(key[i])
		}
	} else {
		h = JenkinsHash(key, 0)
	}
	return int(h % uint32(entries))
}

// OptimalEntries picks the table size the paper derives from value
// profiling: the smallest entry count, starting at the number of distinct
// input patterns, for which the profiled keys map injectively under the
// hash — growing geometrically up to maxFactor times the distinct count.
// When no size in range is collision-free (the paper observed this only
// for MPEG2), the best size tried is returned.
func OptimalEntries(keys []string, maxFactor float64) int {
	nds := len(keys)
	if nds == 0 {
		return 1
	}
	if maxFactor < 1 {
		maxFactor = 1
	}
	limit := int(float64(nds) * maxFactor)
	bestSize, bestColl := nds, nds+1
	used := make(map[int]struct{}, nds)
	for size := nds; size <= limit; size = grow(size) {
		clear(used)
		coll := 0
		for _, k := range keys {
			idx := IndexOf(k, size)
			if _, dup := used[idx]; dup {
				coll++
			} else {
				used[idx] = struct{}{}
			}
		}
		if coll < bestColl {
			bestColl, bestSize = coll, size
		}
		if coll == 0 {
			return size
		}
	}
	return bestSize
}

func grow(size int) int {
	next := size + size/8 + 1
	return next
}

// Probe looks key up for segment seg. On a hit it returns the stored
// output words. In ModeProfile, Probe always reports a miss and records
// the key in the census. When instrumentation is enabled (obs.Enable),
// the probe also feeds the latency/size histograms and outcome counters;
// disabled, the only added cost is the single obs.On() atomic load.
func (t *Table) Probe(seg int, key []byte) ([]uint64, bool) {
	if obs.On() {
		return t.probeObserved(seg, key)
	}
	return t.probe(seg, key)
}

// probe is the uninstrumented hot path. It allocates nothing in steady
// state: every map access spells the string conversion inline
// (m[string(key)]), which the compiler elides to a hash of the bytes; a
// string is only materialized when a profiling probe inserts a first-seen
// key into the census. A profiling probe is that one rank lookup plus
// slice increments; a reuse probe touches only the table's storage. The
// returned slice is the table's own storage — it stays valid until the
// next Record for the same key and segment, which overwrites it in place
// (callers that retain hits across records, like the concurrent Sharded
// wrapper, must copy; the VM consumes hits immediately).
func (t *Table) probe(seg int, key []byte) ([]uint64, bool) {
	st := &t.stats[seg]
	st.Probes++

	if t.cfg.Mode == ModeProfile {
		r := t.rankOf(key)
		t.accessCounts[r]++
		sc := t.segCounts[seg]
		for len(sc) <= r {
			sc = append(sc, 0)
		}
		if sc[r] == 0 {
			t.segDistinct[seg]++
		}
		sc[r]++
		t.segCounts[seg] = sc
		return nil, false
	}

	bit := uint64(1) << uint(seg)
	switch {
	case t.byKey != nil:
		e, ok := t.byKey[string(key)]
		if !ok {
			st.Misses++
			return nil, false
		}
		if e.valid&bit == 0 {
			st.Misses++
			return nil, false
		}
		st.Hits++
		return e.outs[seg], true

	case t.cfg.LRU:
		i, resident := t.lruIdx[string(key)]
		if !resident {
			st.Misses++
			return nil, false
		}
		e := &t.slots[i]
		t.lruList.MoveToFront(i)
		t.accessCounts[i]++
		if e.valid&bit == 0 {
			st.Misses++
			return nil, false
		}
		st.Hits++
		return e.outs[seg], true

	default:
		i := t.index(key)
		t.accessCounts[i]++
		e := &t.slots[i]
		if !e.used {
			st.Misses++
			return nil, false
		}
		if !bytes.Equal(e.key, key) {
			st.Misses++
			st.Collisions++
			return nil, false
		}
		if e.valid&bit == 0 {
			st.Misses++
			return nil, false
		}
		st.Hits++
		return e.outs[seg], true
	}
}

// rankOf returns key's first-seen rank in the profiling census,
// assigning the next rank to a new key, whose union count starts at 0.
func (t *Table) rankOf(key []byte) int {
	if r, ok := t.rank[string(key)]; ok {
		return r
	}
	ks := string(key)
	r := len(t.rank)
	t.rank[ks] = r
	t.rankKeys = append(t.rankKeys, ks)
	t.accessCounts = append(t.accessCounts, 0)
	return r
}

// Record stores the outputs computed for key by segment seg. In
// ModeProfile it is a no-op (the census is taken in Probe). Like Probe,
// Record is instrumented only when obs.On().
func (t *Table) Record(seg int, key []byte, outs []uint64) {
	if obs.On() {
		t.recordObserved(seg, key, outs)
		return
	}
	t.record(seg, key, outs)
}

// record is the uninstrumented hot path. Like probe it allocates nothing
// in steady state: re-records of a resident key copy the outputs into
// the entry's existing buffers in place, and a direct-addressed or LRU
// replacement reclaims the victim entry's key and output buffers. Only
// genuinely new storage — a first-seen key's map insert, an unbounded
// table's new entry, a buffer growing past its capacity — allocates.
func (t *Table) record(seg int, key []byte, outs []uint64) {
	if t.cfg.Mode == ModeProfile {
		return
	}
	if len(outs) != t.cfg.OutWords[seg] {
		panic(fmt.Sprintf("reusetab %q: segment %d recorded %d words, want %d",
			t.cfg.Name, seg, len(outs), t.cfg.OutWords[seg]))
	}
	st := &t.stats[seg]
	st.Records++
	bit := uint64(1) << uint(seg)

	switch {
	case t.byKey != nil:
		e, ok := t.byKey[string(key)]
		if !ok {
			e = &entry{}
			e.reclaim(key, t.cfg.Segs)
			t.byKey[string(key)] = e
			t.resident++
		}
		e.valid |= bit
		e.outs[seg] = storeOuts(e.outs[seg], outs)

	case t.cfg.LRU:
		// Update in place if resident.
		if i, resident := t.lruIdx[string(key)]; resident {
			e := &t.slots[i]
			e.valid |= bit
			e.outs[seg] = storeOuts(e.outs[seg], outs)
			t.lruList.MoveToFront(i)
			return
		}
		// Otherwise claim the next never-used slot, or evict the least
		// recently used entry.
		var victim int
		if t.lruFree < len(t.slots) {
			victim = t.lruFree
			t.lruFree++
			t.lruList.PushFront(victim)
			t.resident++
		} else {
			victim = t.lruList.Back()
			delete(t.lruIdx, string(t.slots[victim].key))
			t.lruList.MoveToFront(victim)
			st.Evictions++
		}
		t.lruIdx[string(key)] = victim
		e := &t.slots[victim]
		e.reclaim(key, t.cfg.Segs)
		e.valid = bit
		e.outs[seg] = storeOuts(e.outs[seg], outs)

	default:
		i := t.index(key)
		e := &t.slots[i]
		if !e.used || !bytes.Equal(e.key, key) {
			// Direct-addressed collision: replace the resident entry
			// (paper §3.1: "the previously recorded inputs and outputs in
			// the entry is replaced by the new inputs and outputs").
			if e.used {
				st.Evictions++
			} else {
				t.resident++
			}
			e.reclaim(key, t.cfg.Segs)
		}
		e.valid |= bit
		e.outs[seg] = storeOuts(e.outs[seg], outs)
	}
}

// AppendEntries appends a copy of every entry valid for segment seg —
// key bytes and output words both copied out of table-owned storage —
// to keys and vals, returning the extended slices. It is the snapshot
// walk: the copies stay valid after the table mutates, so a caller
// (Sharded.Range) can release the table's lock before serializing them.
// ModeProfile tables have no stored entries and append nothing.
func (t *Table) AppendEntries(seg int, keys [][]byte, vals [][]uint64) ([][]byte, [][]uint64) {
	bit := uint64(1) << uint(seg)
	add := func(e *entry) {
		keys = append(keys, append([]byte(nil), e.key...))
		vals = append(vals, append([]uint64(nil), e.outs[seg]...))
	}
	switch {
	case t.byKey != nil:
		for _, e := range t.byKey {
			if e.valid&bit != 0 {
				add(e)
			}
		}
	default:
		for i := range t.slots {
			if e := &t.slots[i]; e.used && e.valid&bit != 0 {
				add(e)
			}
		}
	}
	return keys, vals
}

// Reset empties the table and zeroes its statistics without
// reallocating storage: slots are cleared in place, maps are cleared
// with their buckets retained, and the LRU recency list is unlinked.
// After Reset the table behaves exactly like a freshly built one — the
// remote tier's FLUSH operation and the admission governor's
// BYPASS→READMIT transition (which must re-measure the reuse rate R
// from a cold table) are both built on it.
func (t *Table) Reset() {
	for i := range t.stats {
		t.stats[i] = SegStats{}
	}
	t.resident = 0
	for i := range t.slots {
		t.slots[i] = entry{}
	}
	if t.lruIdx != nil {
		clear(t.lruIdx)
		t.lruList.Reset()
		t.lruFree = 0
	}
	if t.byKey != nil {
		clear(t.byKey)
	}
	clear(t.accessCounts)
	if t.cfg.Mode == ModeProfile {
		clear(t.rank)
		clear(t.rankKeys)
		t.rankKeys = t.rankKeys[:0]
		t.accessCounts = t.accessCounts[:0]
	}
	for i := range t.segCounts {
		t.segCounts[i] = t.segCounts[i][:0]
		t.segDistinct[i] = 0
	}
	if t.occGauge != nil && obs.On() {
		t.occGauge.Set(0)
	}
}

// Distinct returns the number of distinct input sets across all merged
// segments. In ModeProfile it is the union census size, the paper's
// N_ds. In reuse modes it is the number of keys stored since the last
// Reset, Resident plus Evictions: for an unbounded table that is N_ds of
// the recorded keys, and a bounded table counts a key again each time
// it is stored after its eviction. A reuse table keeps no key it does
// not hold.
func (t *Table) Distinct() int {
	if t.cfg.Mode == ModeProfile {
		return len(t.rank)
	}
	return t.resident + int(t.TotalStats().Evictions)
}

// SegDistinct returns the paper's N_ds for one segment: the number of
// distinct input sets that segment probed with (ModeProfile only; falls
// back to Distinct otherwise).
func (t *Table) SegDistinct(seg int) int {
	if t.segDistinct != nil {
		return t.segDistinct[seg]
	}
	return t.Distinct()
}

// AccessCounts returns a copy of the probe counts per table entry (slot
// index for bounded tables, first-seen rank for profiling tables), sorted
// by index; unbounded reuse tables count none. This regenerates the
// paper's Figures 7 and 8. The slice ends at the last entry probed at
// least once; it is nil when no entry was.
func (t *Table) AccessCounts() []int64 {
	n := len(t.accessCounts)
	for n > 0 && t.accessCounts[n-1] == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	return append([]int64(nil), t.accessCounts[:n]...)
}

// SizeBytes reports the modeled memory consumption of the table:
// EntryBytes times the entry count. For optimal tables the entry count
// is the number of distinct keys stored so far, in ModeProfile the
// census size.
func (t *Table) SizeBytes() int {
	n := t.cfg.Entries
	if t.byKey != nil {
		n = len(t.byKey)
	}
	if t.cfg.Mode == ModeProfile {
		n = len(t.rank)
	}
	return t.EntryBytes() * n
}

// EntryBytes returns the modeled bytes of one table entry: the input key
// plus every merged segment's outputs plus (for merged tables) an 8-byte
// valid-bit vector.
func (t *Table) EntryBytes() int {
	per := t.cfg.KeyBytes
	for _, b := range t.cfg.OutBytes {
		per += b
	}
	if t.cfg.Segs > 1 {
		per += 8
	}
	return per
}

// TotalStats sums the per-segment statistics.
func (t *Table) TotalStats() SegStats {
	var sum SegStats
	for _, s := range t.stats {
		sum = sum.add(s)
	}
	return sum
}

// Resident returns the number of entries currently stored: distinct keys
// for unbounded tables, occupied slots for bounded ones (never more than
// Entries), 0 in ModeProfile (the census is not storage).
func (t *Table) Resident() int { return t.resident }

// SortedCensus returns the union profiling census as (key, count) pairs
// in first-seen order, for histogram rendering and table sizing.
// It is nil outside ModeProfile.
func (t *Table) SortedCensus() []KeyCount {
	if t.cfg.Mode != ModeProfile {
		return nil
	}
	return t.censusPairs(t.accessCounts, len(t.rank))
}

// SegSortedCensus returns one segment's census in first-seen order.
func (t *Table) SegSortedCensus(seg int) []KeyCount {
	if t.cfg.Mode != ModeProfile {
		return nil
	}
	return t.censusPairs(t.segCounts[seg], t.segDistinct[seg])
}

// censusPairs lists the n nonzero entries of a rank-indexed count slice
// as census lines, in rank order.
func (t *Table) censusPairs(counts []int64, n int) []KeyCount {
	out := make([]KeyCount, 0, n)
	for r, c := range counts {
		if c > 0 {
			out = append(out, KeyCount{Key: t.rankKeys[r], Count: c, Rank: r})
		}
	}
	return out
}

// KeyCount is one census line: a distinct input set, its execution count,
// and its first-seen rank.
type KeyCount struct {
	Key   string
	Count int64
	Rank  int
}
