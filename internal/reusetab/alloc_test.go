package reusetab

import (
	"testing"
)

// The paper's admission rule (formula 3, R·C − O > 0) makes the probe
// and record overhead O the margin every segment is judged against:
// shaving allocations off the hot path does not just speed it up, it
// flips currently-rejected segments profitable. These tests pin the
// steady-state hot path at exactly zero allocations per operation —
// asserted with testing.AllocsPerRun, not just observed in benchmarks —
// for every table mode the runtime serves (unbounded, direct-addressed,
// LRU, and the concurrent Sharded wrapper).

// fillKeys returns n distinct 8-byte keys.
func fillKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = AppendInt(AppendInt(nil, int64(i)), int64(i*31))
	}
	return keys
}

// slotDistinctKeys returns n 8-byte keys that map to n distinct slots of
// a direct-addressed table with the given entry count, so a warm working
// set stays fully resident (no replace-on-collision evictions).
func slotDistinctKeys(n, entries int) [][]byte {
	keys := make([][]byte, 0, n)
	seen := map[int]bool{}
	for i := 0; len(keys) < n; i++ {
		k := AppendInt(AppendInt(nil, int64(i)), int64(i*31))
		if idx := IndexOfBytes(k, entries); !seen[idx] {
			seen[idx] = true
			keys = append(keys, k)
		}
	}
	return keys
}

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		t.Errorf("%s: %.1f allocs/op, want 0", name, avg)
	}
}

func warmTable(t *Table, keys [][]byte) {
	for _, k := range keys {
		t.Probe(0, k)
		t.Record(0, k, []uint64{1, 2})
	}
}

func allocTableConfigs() map[string]Config {
	base := Config{Segs: 1, KeyBytes: 8, OutWords: []int{2}, OutBytes: []int{16}}
	unbounded := base
	unbounded.Name = "alloc-unbounded"
	direct := base
	direct.Name = "alloc-direct"
	direct.Entries = 512
	lru := base
	lru.Name = "alloc-lru"
	lru.Entries = 512
	lru.LRU = true
	return map[string]Config{"unbounded": unbounded, "direct": direct, "lru": lru}
}

// TestTableZeroAllocSteadyState asserts that probing and re-recording a
// warm working set allocates nothing in any table mode.
func TestTableZeroAllocSteadyState(t *testing.T) {
	for mode, cfg := range allocTableConfigs() {
		// Direct-addressed tables replace on slot collision (§3.1), so a
		// colliding warm set would not stay resident; pick keys mapping to
		// distinct slots.
		var keys [][]byte
		if cfg.Entries > 0 && !cfg.LRU {
			keys = slotDistinctKeys(64, cfg.Entries)
		} else {
			keys = fillKeys(64)
		}
		tab := New(cfg)
		warmTable(tab, keys)
		outs := []uint64{7, 8}
		i := 0
		assertZeroAllocs(t, mode+"/probe-hit", func() {
			k := keys[i%len(keys)]
			i++
			if _, hit := tab.Probe(0, k); !hit {
				t.Fatalf("%s: warm probe missed", mode)
			}
		})
		assertZeroAllocs(t, mode+"/record-resident", func() {
			tab.Record(0, keys[i%len(keys)], outs)
			i++
		})
		// A miss allocates nothing either: a reuse probe keeps no key it
		// does not store (a never-recorded key, probed repeatedly).
		miss := AppendInt(AppendInt(nil, 1<<20), 1<<21)
		assertZeroAllocs(t, mode+"/probe-miss", func() {
			if _, hit := tab.Probe(0, miss); hit {
				t.Fatalf("%s: unrecorded key hit", mode)
			}
		})
	}
}

// TestTableZeroAllocDirectChurn asserts that even the direct-addressed
// replace-on-collision path stays allocation-free in steady state: the
// victim entry's key and output buffers are reclaimed, not reallocated.
func TestTableZeroAllocDirectChurn(t *testing.T) {
	cfg := allocTableConfigs()["direct"]
	cfg.Entries = 8 // force constant collisions
	tab := New(cfg)
	keys := fillKeys(64)
	// Warm: every key probed once and recorded once.
	for _, k := range keys {
		tab.Probe(0, k)
		tab.Record(0, k, []uint64{1, 2})
	}
	outs := []uint64{3, 4}
	i := 0
	assertZeroAllocs(t, "direct/record-churn", func() {
		tab.Record(0, keys[i%len(keys)], outs)
		i++
	})
}

// TestTableZeroAllocProfileProbe asserts that a value-set profiling
// probe of a key the table has already seen allocates nothing, on every
// segment of a merged table: the census is one rank lookup plus slice
// increments.
func TestTableZeroAllocProfileProbe(t *testing.T) {
	cfg := Config{Name: "alloc-profile", Segs: 2, KeyBytes: 8,
		OutWords: []int{2, 1}, OutBytes: []int{16, 8}, Mode: ModeProfile}
	tab := New(cfg)
	keys := fillKeys(64)
	for seg := range cfg.Segs {
		for _, k := range keys {
			tab.Probe(seg, k)
		}
	}
	i := 0
	assertZeroAllocs(t, "profile/probe-seen", func() {
		if _, hit := tab.Probe(i%2, keys[i%len(keys)]); hit {
			t.Fatal("profile mode must never hit")
		}
		i++
	})
}

// TestShardedZeroAllocSteadyState asserts the concurrent wrapper adds no
// allocations of its own: ProbeWord and ProbeInto hits and resident
// re-records are allocation-free.
func TestShardedZeroAllocSteadyState(t *testing.T) {
	for _, shards := range []int{1, 8} {
		cfg := Config{Name: "alloc-sharded", Segs: 1, KeyBytes: 8,
			OutWords: []int{2}, OutBytes: []int{16}}
		s := NewSharded(cfg, shards)
		keys := fillKeys(64)
		for _, k := range keys {
			s.Probe(0, k)
			s.Record(0, k, []uint64{1, 2})
		}
		outs := []uint64{7, 8}
		dst := make([]uint64, 0, 2)
		i := 0
		assertZeroAllocs(t, "sharded/probe-word", func() {
			if _, hit := s.ProbeWord(0, keys[i%len(keys)]); !hit {
				t.Fatal("warm ProbeWord missed")
			}
			i++
		})
		assertZeroAllocs(t, "sharded/probe-into", func() {
			got, hit := s.ProbeInto(0, keys[i%len(keys)], dst[:0])
			if !hit || len(got) != 2 {
				t.Fatalf("warm ProbeInto: hit=%v len=%d", hit, len(got))
			}
			i++
		})
		assertZeroAllocs(t, "sharded/record-resident", func() {
			s.Record(0, keys[i%len(keys)], outs)
			i++
		})
	}
}

// BenchmarkTableProbe measures the single-threaded probe hit path; its
// 0 allocs/op is pinned by TestTableZeroAllocSteadyState.
func BenchmarkTableProbe(b *testing.B) {
	for mode, cfg := range allocTableConfigs() {
		b.Run(mode, func(b *testing.B) {
			tab := New(cfg)
			var keys [][]byte
			if cfg.Entries > 0 && !cfg.LRU {
				keys = slotDistinctKeys(256, cfg.Entries)
			} else {
				keys = fillKeys(256)
			}
			warmTable(tab, keys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.Probe(0, keys[i&255])
			}
		})
	}
}

// BenchmarkTableRecord measures the single-threaded re-record path; the
// acceptance gate is 0 allocs/op.
func BenchmarkTableRecord(b *testing.B) {
	for mode, cfg := range allocTableConfigs() {
		b.Run(mode, func(b *testing.B) {
			tab := New(cfg)
			var keys [][]byte
			if cfg.Entries > 0 && !cfg.LRU {
				keys = slotDistinctKeys(256, cfg.Entries)
			} else {
				keys = fillKeys(256)
			}
			warmTable(tab, keys)
			outs := []uint64{7, 8}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tab.Record(0, keys[i&255], outs)
			}
		})
	}
}

// BenchmarkShardedProbeWord measures the MemoTable fast path under
// parallel load.
func BenchmarkShardedProbeWord(b *testing.B) {
	cfg := Config{Name: "bench-sharded", Segs: 1, KeyBytes: 8,
		OutWords: []int{1}, OutBytes: []int{8}}
	s := NewSharded(cfg, 16)
	keys := fillKeys(256)
	for _, k := range keys {
		s.Probe(0, k)
		s.Record(0, k, []uint64{1})
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s.ProbeWord(0, keys[i&255])
			i++
		}
	})
}

// BenchmarkShardedRecord measures the concurrent re-record path.
func BenchmarkShardedRecord(b *testing.B) {
	cfg := Config{Name: "bench-sharded-rec", Segs: 1, KeyBytes: 8,
		OutWords: []int{1}, OutBytes: []int{8}}
	s := NewSharded(cfg, 16)
	keys := fillKeys(256)
	for _, k := range keys {
		s.Probe(0, k)
		s.Record(0, k, []uint64{1})
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		vals := []uint64{9}
		for pb.Next() {
			s.Record(0, keys[i&255], vals)
			i++
		}
	})
}

// TestIndexOfZeroAlloc pins the string form of the slot placement, which
// OptimalEntries and the profile's collision deduction run over every
// census key: a 276-byte key (wider than a copying conversion's stack
// buffer) is placed as IndexOfBytes places it, with no allocation.
func TestIndexOfZeroAlloc(t *testing.T) {
	var wide []byte
	for i := int64(0); i < 69; i++ {
		wide = AppendInt(wide, i*7919)
	}
	key := string(wide)
	if got, want := IndexOf(key, 4093), IndexOfBytes(wide, 4093); got != want {
		t.Fatalf("IndexOf = %d, IndexOfBytes = %d", got, want)
	}
	assertZeroAllocs(t, "IndexOf/wide", func() { IndexOf(key, 4093) })
}
