package reusetab

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// refTable is the reference model of a Table's statistics: the simplest
// storage that behaves like the table. A profiling reference ranks every
// probed key; a reuse reference counts each key it stores that was not
// resident, which Table.Distinct must equal.
type refTable struct {
	cfg    Config
	rank   map[string]int // profiling census
	access []int64        // per rank (profiling) or per slot (bounded)
	stats  []SegStats
	slots  []refSlot           // bounded storage
	byKey  map[string]*refSlot // unbounded storage
	seq    int64               // LRU recency: bumped on every touch
	stored int                 // keys stored since the last reset
}

type refSlot struct {
	used  bool
	key   string
	valid uint64
	outs  [][]uint64
	seq   int64
}

func newRef(cfg Config) *refTable {
	r := &refTable{cfg: cfg}
	r.reset()
	return r
}

func (r *refTable) reset() {
	r.rank = map[string]int{}
	r.stats = make([]SegStats, r.cfg.Segs)
	r.seq, r.stored = 0, 0
	r.access, r.slots, r.byKey = nil, nil, nil
	switch {
	case r.cfg.Mode == ModeProfile:
	case r.cfg.Entries > 0:
		r.slots = make([]refSlot, r.cfg.Entries)
		r.access = make([]int64, r.cfg.Entries)
	default:
		r.byKey = map[string]*refSlot{}
	}
}

func (r *refTable) rankOf(k string) int {
	if n, ok := r.rank[k]; ok {
		return n
	}
	n := len(r.rank)
	r.rank[k] = n
	r.access = append(r.access, 0)
	return n
}

// distinct is what Table.Distinct must return: the census size when
// profiling, the keys stored since the last reset otherwise.
func (r *refTable) distinct() int {
	if r.cfg.Mode == ModeProfile {
		return len(r.rank)
	}
	return r.stored
}

// find returns the bounded slot holding k, or -1.
func (r *refTable) find(k string) int {
	if !r.cfg.LRU {
		if i := IndexOf(k, len(r.slots)); r.slots[i].used && r.slots[i].key == k {
			return i
		}
		return -1
	}
	for i := range r.slots {
		if r.slots[i].used && r.slots[i].key == k {
			return i
		}
	}
	return -1
}

func (r *refTable) probe(seg int, k string) ([]uint64, bool) {
	st := &r.stats[seg]
	st.Probes++
	var e *refSlot
	switch {
	case r.cfg.Mode == ModeProfile:
		// A profiling probe takes the census and counts no outcome.
		r.access[r.rankOf(k)]++
		return nil, false
	case r.byKey != nil:
		e = r.byKey[k]
	case r.cfg.LRU:
		if i := r.find(k); i >= 0 {
			r.access[i]++
			r.seq++
			e = &r.slots[i]
			e.seq = r.seq
		}
	default:
		i := IndexOf(k, len(r.slots))
		r.access[i]++
		if r.slots[i].used && r.slots[i].key != k {
			st.Collisions++
		}
		e = &r.slots[i]
		if !e.used || e.key != k {
			e = nil
		}
	}
	if e == nil || e.valid&(1<<uint(seg)) == 0 {
		st.Misses++
		return nil, false
	}
	st.Hits++
	return e.outs[seg], true
}

func (r *refTable) record(seg int, k string, outs []uint64) {
	if r.cfg.Mode == ModeProfile {
		return
	}
	st := &r.stats[seg]
	st.Records++
	var e *refSlot
	switch {
	case r.byKey != nil:
		if e = r.byKey[k]; e == nil {
			e = &refSlot{used: true, key: k}
			r.byKey[k] = e
			r.stored++
		}
	case r.cfg.LRU:
		i := r.find(k)
		if i < 0 {
			// The first never-used slot, else the least recently used.
			i = 0
			for j := range r.slots {
				if !r.slots[j].used {
					i = j
					break
				}
				if r.slots[j].seq < r.slots[i].seq {
					i = j
				}
			}
			if r.slots[i].used {
				st.Evictions++
			}
			r.slots[i] = refSlot{used: true, key: k}
			r.stored++
		}
		e = &r.slots[i]
		r.seq++
		e.seq = r.seq
	default:
		i := IndexOf(k, len(r.slots))
		if e = &r.slots[i]; !e.used || e.key != k {
			if e.used {
				st.Evictions++
			}
			*e = refSlot{used: true, key: k}
			r.stored++
		}
	}
	if e.outs == nil {
		e.outs = make([][]uint64, r.cfg.Segs)
	}
	e.valid |= 1 << uint(seg)
	e.outs[seg] = append([]uint64(nil), outs...)
}

func (r *refTable) resident() int {
	n := len(r.byKey)
	for i := range r.slots {
		if r.slots[i].used {
			n++
		}
	}
	return n
}

// accessCounts trims like Table.AccessCounts.
func (r *refTable) accessCounts() []int64 {
	n := len(r.access)
	for n > 0 && r.access[n-1] == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	return append([]int64(nil), r.access[:n]...)
}

// exactConfigs are the table shapes the statistics must stay exact in:
// unmerged and merged (three segments, mixed output widths) in every
// storage mode, sized so the key pool overflows the bounded ones.
func exactConfigs() []Config {
	var cfgs []Config
	for _, segs := range []int{1, 3} {
		base := Config{Segs: segs, KeyBytes: 8}
		for s := 0; s < segs; s++ {
			base.OutWords = append(base.OutWords, 1+s%2)
			base.OutBytes = append(base.OutBytes, 4*(1+s%2))
		}
		for _, mode := range []string{"unbounded", "direct", "lru", "profile"} {
			c := base
			c.Name = fmt.Sprintf("%s/segs=%d", mode, segs)
			switch mode {
			case "direct":
				c.Entries = 8
			case "lru":
				c.Entries, c.LRU = 8, true
			case "profile":
				c.Mode = ModeProfile
			}
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

// exactKeys is the key pool: 4-byte keys (the modulo index) and 8-byte
// keys (the Jenkins index), more of them than a bounded table holds.
func exactKeys() [][]byte {
	var keys [][]byte
	for i := int64(0); i < 24; i++ {
		keys = append(keys, key32(i*5))
		keys = append(keys, AppendInt(key32(i), i*7+1))
	}
	return keys
}

// TestTableStatsMatchReference drives random Probe/Record/Reset streams
// through a Table and the reference, and compares every result and
// statistic after every op. Records of never-probed keys, probes of
// never-recorded keys, in-place re-records, direct-addressed collisions,
// evictions and merged segments all occur in the streams. In reuse
// modes Distinct is the reference's count of stored keys and must also
// be Resident plus Evictions.
func TestTableStatsMatchReference(t *testing.T) {
	keys := exactKeys()
	for _, cfg := range exactConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			tab, ref := New(cfg), newRef(cfg)
			rng := rand.New(rand.NewSource(11))
			for op := 0; op < 4000; op++ {
				k := keys[rng.Intn(len(keys))]
				seg := rng.Intn(cfg.Segs)
				var what string
				switch x := rng.Intn(200); {
				case x == 0:
					what = "reset"
					tab.Reset()
					ref.reset()
				case x < 110:
					what = "probe"
					got, hit := tab.Probe(seg, k)
					want, wantHit := ref.probe(seg, string(k))
					if hit != wantHit || !reflect.DeepEqual(got, want) {
						t.Fatalf("op %d: probe seg %d %x = %v,%v, want %v,%v", op, seg, k, got, hit, want, wantHit)
					}
				default:
					what = "record"
					outs := make([]uint64, cfg.OutWords[seg])
					for i := range outs {
						outs[i] = uint64(op*4 + i)
					}
					tab.Record(seg, k, outs)
					ref.record(seg, string(k), outs)
				}
				if d, w := tab.Distinct(), ref.distinct(); d != w {
					t.Fatalf("op %d (%s): Distinct = %d, want %d", op, what, d, w)
				}
				if d, w := tab.Distinct(), tab.Resident()+int(tab.TotalStats().Evictions); cfg.Mode != ModeProfile && d != w {
					t.Fatalf("op %d (%s): Distinct = %d, want Resident+Evictions = %d", op, what, d, w)
				}
				if a, w := tab.AccessCounts(), ref.accessCounts(); !reflect.DeepEqual(a, w) {
					t.Fatalf("op %d (%s): AccessCounts = %v, want %v", op, what, a, w)
				}
				for s := 0; s < cfg.Segs; s++ {
					if st, w := tab.Stats(s), ref.stats[s]; st != w {
						t.Fatalf("op %d (%s): Stats(%d) = %+v, want %+v", op, what, s, st, w)
					}
				}
				if r, w := tab.Resident(), ref.resident(); cfg.Mode != ModeProfile && r != w {
					t.Fatalf("op %d (%s): Resident = %d, want %d", op, what, r, w)
				}
			}
		})
	}
}

// TestShardedStatsMatchReference is the same check for Sharded with one
// and four shards: each shard has its own reference table, and
// RestoreStats sets a base the reference adds to its shards' sums.
func TestShardedStatsMatchReference(t *testing.T) {
	keys := exactKeys()
	for _, cfg := range exactConfigs() {
		if cfg.Mode == ModeProfile {
			continue
		}
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", cfg.Name, shards), func(t *testing.T) {
				s := NewSharded(cfg, shards)
				refs := make([]*refTable, s.Shards())
				for i := range refs {
					refs[i] = newRef(s.shards[i].tab.cfg)
				}
				refFor := func(k []byte) *refTable {
					return refs[JenkinsHash(k, shardSeed)&s.mask]
				}
				base := make([]SegStats, cfg.Segs)
				var baseDistinct int
				refStats := func(seg int) SegStats {
					sum := base[seg]
					for _, r := range refs {
						sum = sum.add(r.stats[seg])
					}
					return sum
				}
				refDistinct := func() int {
					n := baseDistinct
					for _, r := range refs {
						n += r.distinct()
					}
					return n
				}
				rng := rand.New(rand.NewSource(23))
				for op := 0; op < 4000; op++ {
					k := keys[rng.Intn(len(keys))]
					seg := rng.Intn(cfg.Segs)
					var what string
					switch x := rng.Intn(200); {
					case x == 0:
						what = "reset"
						s.Reset()
						for _, r := range refs {
							r.reset()
						}
						clear(base)
						baseDistinct = 0
					case x == 1:
						what = "restore"
						st := SegStats{Probes: int64(rng.Intn(1000)), Hits: int64(rng.Intn(500)),
							Misses: int64(rng.Intn(500)), Records: int64(rng.Intn(500))}
						distinct := int64(rng.Intn(300))
						live := refStats(seg)
						base[seg].Probes += st.Probes - live.Probes
						base[seg].Hits += st.Hits - live.Hits
						base[seg].Misses += st.Misses - live.Misses
						base[seg].Records += st.Records - live.Records
						baseDistinct += int(distinct) - refDistinct()
						s.RestoreStats(seg, st, distinct)
						if got := s.Stats(seg); got.Probes != st.Probes || got.Hits != st.Hits ||
							got.Misses != st.Misses || got.Records != st.Records {
							t.Fatalf("op %d: Stats after RestoreStats = %+v, want %+v", op, got, st)
						}
						if got := s.Distinct(); got != int(distinct) {
							t.Fatalf("op %d: Distinct after RestoreStats = %d, want %d", op, got, distinct)
						}
					case x < 110:
						what = "probe"
						got, hit := s.Probe(seg, k)
						want, wantHit := refFor(k).probe(seg, string(k))
						if hit != wantHit || !reflect.DeepEqual(got, want) {
							t.Fatalf("op %d: probe seg %d %x = %v,%v, want %v,%v", op, seg, k, got, hit, want, wantHit)
						}
					default:
						what = "record"
						outs := make([]uint64, cfg.OutWords[seg])
						for i := range outs {
							outs[i] = uint64(op*4 + i)
						}
						s.Record(seg, k, outs)
						refFor(k).record(seg, string(k), outs)
					}
					if d, w := s.Distinct(), refDistinct(); d != w {
						t.Fatalf("op %d (%s): Distinct = %d, want %d", op, what, d, w)
					}
					var total SegStats
					for seg := 0; seg < cfg.Segs; seg++ {
						w := refStats(seg)
						total = total.add(w)
						if st := s.Stats(seg); st != w {
							t.Fatalf("op %d (%s): Stats(%d) = %+v, want %+v", op, what, seg, st, w)
						}
					}
					if st := s.TotalStats(); st != total {
						t.Fatalf("op %d (%s): TotalStats = %+v, want %+v", op, what, st, total)
					}
					res := 0
					for _, r := range refs {
						res += r.resident()
					}
					if r := s.Resident(); r != res {
						t.Fatalf("op %d (%s): Resident = %d, want %d", op, what, r, res)
					}
				}
			})
		}
	}
}

// TestEntrySize pins the size of a table entry: the used flag, the key
// and output slice headers and the valid bits, with no per-key rank or
// recency stamp.
func TestEntrySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("size pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(entry{}); got != 64 {
		t.Fatalf("unsafe.Sizeof(entry{}) = %d, want 64", got)
	}
}
