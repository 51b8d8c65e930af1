package reusetab

import (
	"fmt"
	"sync"
	"sync/atomic"

	"compreuse/internal/obs"
)

// shardSeed decorrelates shard selection from the direct-addressed slot
// hash (both use the Jenkins function; a shared seed would make every
// shard see only keys that agree with it modulo the shard count).
const shardSeed uint32 = 0x9e3779b9

// Sharded is a concurrency-safe reuse table: the same semantics as Table,
// striped over 2^k independently locked shards by a hash of the input key.
// It is the serving-path variant of the paper's software hash table — the
// VM-facing Table stays single-threaded and bit-for-bit faithful to §3.1,
// while Sharded lets many goroutines probe and record at once with
// contention limited to 1/shards of the traffic. A probe touches only
// its shard's table; Stats and Distinct sum the shard tables' own
// counters, taking each shard's lock in turn, so the statistics cost the
// hot path nothing.
//
// Every key deterministically maps to one shard, so for unbounded
// ("optimal") tables the hit/miss behavior is identical to a single
// Table. Bounded tables divide their capacity across shards (each shard
// is a direct-addressed or LRU table of Entries/shards slots, rounded
// up), which preserves total capacity but redistributes collisions and
// eviction order; use a single shard when the exact §3.1 bounded-table
// behavior matters more than parallelism.
type Sharded struct {
	cfg  Config
	mask uint32
	// resident counts entries currently stored across all shards,
	// maintained from the records that change it; occGauge is the
	// whole-table occupancy gauge, set from resident on every record
	// (the per-shard tables' own gauges are disabled so shards do not
	// clobber each other's partial counts).
	resident atomic.Int64
	occGauge *obs.Gauge
	shards   []tableShard
	// base and baseDistinct are what RestoreStats added to the shards'
	// own counters (see RestoreStats); reads add them on.
	baseMu       sync.Mutex
	base         []SegStats
	baseDistinct int
}

// tableShard pads each shard's lock+table to its own cache line so the
// stripes do not false-share under parallel probing.
type tableShard struct {
	mu  sync.Mutex
	tab *Table
	_   [64 - 16]byte
}

// NewSharded builds a sharded table over cfg. The shard count is rounded
// up to a power of two and clamped to at least 1; for bounded configs it
// is additionally clamped so every shard holds at least one entry, and
// cfg.Entries is split evenly (rounded up) across the shards. ModeProfile
// is rejected: value-set profiling is a compile-time, single-threaded
// activity that needs the census maps of the plain Table.
func NewSharded(cfg Config, shards int) *Sharded {
	if cfg.Mode == ModeProfile {
		panic(fmt.Sprintf("reusetab %q: Sharded does not support ModeProfile; profile with a plain Table", cfg.Name))
	}
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	if cfg.Entries > 0 && n > cfg.Entries {
		for n > 1 && n > cfg.Entries {
			n >>= 1
		}
	}
	shardCfg := cfg
	if cfg.Entries > 0 {
		shardCfg.Entries = (cfg.Entries + n - 1) / n
	}
	s := &Sharded{
		cfg:      cfg,
		mask:     uint32(n - 1),
		base:     make([]SegStats, cfg.Segs),
		occGauge: OccupancyGauge(cfg.Name),
		shards:   make([]tableShard, n),
	}
	for i := range s.shards {
		s.shards[i].tab = New(shardCfg)
		s.shards[i].tab.occGauge = nil
	}
	return s
}

// Config returns the table-wide configuration (Entries is the total
// capacity, not the per-shard split).
func (s *Sharded) Config() Config { return s.cfg }

// Shards returns the number of lock stripes.
func (s *Sharded) Shards() int { return len(s.shards) }

func (s *Sharded) shardFor(key []byte) *tableShard {
	if s.mask == 0 {
		return &s.shards[0]
	}
	return &s.shards[JenkinsHash(key, shardSeed)&s.mask]
}

// Probe looks key up for segment seg in the key's shard. It is safe for
// concurrent use with other probes, records and stats reads. A hit's
// outputs are returned as a fresh copy (the underlying Table overwrites
// its stored buffers in place on re-records, so handing out the live
// slice would race); callers on the zero-allocation path should use
// ProbeInto or ProbeWord instead.
func (s *Sharded) Probe(seg int, key []byte) ([]uint64, bool) {
	return s.ProbeInto(seg, key, nil)
}

// ProbeInto probes like Probe but appends a hit's outputs to dst and
// returns the extended slice. The copy happens under the shard lock, so
// the result can never be torn by a concurrent Record of the same key;
// with a dst of sufficient capacity a hit allocates nothing.
func (s *Sharded) ProbeInto(seg int, key []byte, dst []uint64) ([]uint64, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	outs, hit := sh.tab.Probe(seg, key)
	if hit {
		dst = append(dst, outs...)
	}
	sh.mu.Unlock()
	return dst, hit
}

// ProbeWord is the single-output fast path (OutWords == 1, the MemoTable
// configuration): the stored word is read under the shard lock and
// returned by value, so a hit allocates nothing and needs no caller
// buffer.
func (s *Sharded) ProbeWord(seg int, key []byte) (uint64, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	outs, hit := sh.tab.Probe(seg, key)
	var v uint64
	if hit && len(outs) > 0 {
		v = outs[0]
	}
	sh.mu.Unlock()
	return v, hit
}

// Record stores the outputs computed for key by segment seg in the key's
// shard.
func (s *Sharded) Record(seg int, key []byte, outs []uint64) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	resBefore := sh.tab.resident
	sh.tab.Record(seg, key, outs)
	resDelta := sh.tab.resident - resBefore
	sh.mu.Unlock()
	if resDelta != 0 {
		s.resident.Add(int64(resDelta))
	}
	if obs.On() {
		s.occGauge.Set(s.resident.Load())
	}
}

// each calls fn with every shard's table, holding that shard's lock
// (and only that one) for the call.
func (s *Sharded) each(fn func(t *Table)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		fn(sh.tab)
		sh.mu.Unlock()
	}
}

// Stats returns segment seg's counters, summed over the shards. Each
// shard's counters are read under its lock, so they are exact for that
// shard (Hits+Misses == Probes); probes racing the walk land in the sum
// or not, shard by shard.
func (s *Sharded) Stats(seg int) SegStats {
	s.baseMu.Lock()
	sum := s.base[seg]
	s.baseMu.Unlock()
	s.each(func(t *Table) { sum = sum.add(t.stats[seg]) })
	return sum
}

// TotalStats sums the per-segment statistics.
func (s *Sharded) TotalStats() SegStats {
	var sum SegStats
	for seg := range s.base {
		sum = sum.add(s.Stats(seg))
	}
	return sum
}

// Reset empties every shard and zeroes all statistics without
// reallocating. Reset locks each shard in turn rather than all at once,
// so concurrent probes never deadlock against it; a probe racing the
// reset lands either before or after its shard is cleared. Intended
// for quiescent or best-effort use (the server's FLUSH op, the
// governor's readmission).
func (s *Sharded) Reset() {
	s.each((*Table).Reset)
	s.baseMu.Lock()
	clear(s.base)
	s.baseDistinct = 0
	s.baseMu.Unlock()
	s.resident.Store(0)
	if obs.On() {
		s.occGauge.Set(0)
	}
}

// Range calls fn with every resident entry valid for segment seg, one
// shard at a time, until fn returns false. The entries are copied out
// under each shard's lock and fn runs without it, so fn may take as
// long as it likes (serialize to disk, hold other locks) without
// stalling probes for more than one shard's copy-out. The key and
// output slices are fn's to keep. Entries recorded or evicted while
// the walk is in flight may or may not be seen — Range is a
// shard-consistent snapshot, not a global one, which is all the warm
// restart needs.
func (s *Sharded) Range(seg int, fn func(key []byte, outs []uint64) bool) {
	var keys [][]byte
	var vals [][]uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		keys, vals = sh.tab.AppendEntries(seg, keys[:0], vals[:0])
		sh.mu.Unlock()
		for j := range keys {
			if !fn(keys[j], vals[j]) {
				return
			}
		}
	}
}

// RestoreStats sets segment seg's outcome counters and the table-wide
// Distinct count to snapshot-recorded values. It exists for warm
// restarts only: a restore replays the dumped entries through Record
// (rebuilding storage and the resident count), then calls RestoreStats
// so the probe/hit/miss/record counters and Distinct report the
// pre-crash history instead of the replay's. The restored values, less
// what the shards had counted by the call, become a base that reads add
// on: a read right after the call returns the restored values, and
// later traffic counts on top of them, so Distinct goes on counting the
// keys stored after the restore. Collision and eviction counters are
// left at their replay values — the snapshot format does not carry
// them, and nothing downstream reads them for admission; the governor's
// R window is recomputed live either way.
func (s *Sharded) RestoreStats(seg int, st SegStats, distinct int64) {
	live, liveDistinct := s.Stats(seg), s.Distinct()
	s.baseMu.Lock()
	b := &s.base[seg]
	b.Probes += st.Probes - live.Probes
	b.Hits += st.Hits - live.Hits
	b.Misses += st.Misses - live.Misses
	b.Records += st.Records - live.Records
	s.baseDistinct += int(distinct) - liveDistinct
	s.baseMu.Unlock()
}

// Resident returns the number of entries currently stored across all
// shards (maintained from per-record deltas; never blocks probes).
func (s *Sharded) Resident() int { return int(s.resident.Load()) }

// Distinct returns the number of keys stored since the last Reset,
// summed over the shards (see Table.Distinct), plus the RestoreStats
// base. For an unbounded table it is N_ds of the recorded keys, as the
// shards partition the key space; a bounded table counts a key again
// each time it is stored after its eviction.
func (s *Sharded) Distinct() int {
	s.baseMu.Lock()
	n := s.baseDistinct
	s.baseMu.Unlock()
	s.each(func(t *Table) { n += t.Distinct() })
	return n
}

// SizeBytes reports the modeled memory consumption summed over shards.
func (s *Sharded) SizeBytes() int {
	total := 0
	s.each(func(t *Table) { total += t.SizeBytes() })
	return total
}

// EntryBytes returns the modeled bytes of one table entry.
func (s *Sharded) EntryBytes() int { return s.shards[0].tab.EntryBytes() }
