package compreuse

import (
	"runtime"
	"testing"
)

// The memoization runtime's profitability condition (paper formula 3,
// R·C − O > 0) is judged against the lookup overhead O; these tests pin
// the warm hit paths — generic Memoized, byte-keyed MemoTable, and the
// TieredMemo L1 tier, including KeyBuf key encoding — at exactly zero
// allocations per operation.

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		t.Errorf("%s: %.1f allocs/op, want 0", name, avg)
	}
}

func TestMemoizedHitZeroAlloc(t *testing.T) {
	m := NewMemoized(func(x int) int { return x * x })
	for i := 0; i < 64; i++ {
		m.Call(i)
	}
	i := 0
	assertZeroAllocs(t, "memoized/hit", func() {
		if got := m.Call(i & 63); got != (i&63)*(i&63) {
			t.Fatalf("Call(%d) = %d", i&63, got)
		}
		i++
	})
}

func TestMemoTableHitZeroAlloc(t *testing.T) {
	for _, cfg := range []MemoTableConfig{
		{Name: "alloc-unbounded"},
		{Name: "alloc-sharded", Shards: 8},
		{Name: "alloc-lru", Entries: 256, LRU: true},
	} {
		m := NewMemoTable(cfg)
		var kb KeyBuf
		for i := 0; i < 64; i++ {
			m.Store(kb.Reset().Int(int64(i)).Int(int64(i*31)).Bytes(), uint64(i))
		}
		i := 0
		assertZeroAllocs(t, cfg.Name+"/lookup-hit", func() {
			k := kb.Reset().Int(int64(i & 63)).Int(int64((i & 63) * 31)).Bytes()
			v, ok := m.Lookup(k)
			if !ok || v != uint64(i&63) {
				t.Fatalf("Lookup: ok=%v v=%d want %d", ok, v, i&63)
			}
			i++
		})
		assertZeroAllocs(t, cfg.Name+"/store-resident", func() {
			m.Store(kb.Reset().Int(int64(i&63)).Int(int64((i&63)*31)).Bytes(), uint64(i))
			i++
		})
	}
}

// TestTieredMemoL1HitZeroAlloc pins the tiered fast path: an L1 hit
// returns before the remote tier is consulted and must allocate nothing,
// key encoding included.
func TestTieredMemoL1HitZeroAlloc(t *testing.T) {
	tm := &TieredMemo{l1: NewMemoTable(MemoTableConfig{Name: "alloc-tiered/l1", Shards: 4})}
	var kb KeyBuf
	compute := func() uint64 { t.Fatal("L1 hit must not compute"); return 0 }
	for i := 0; i < 64; i++ {
		tm.l1.Store(kb.Reset().Int(int64(i)).Float(float64(i)).Bytes(), uint64(i))
	}
	i := 0
	assertZeroAllocs(t, "tiered/l1-hit", func() {
		k := kb.Reset().Int(int64(i & 63)).Float(float64(i & 63)).Bytes()
		if got := tm.Do(k, compute); got != uint64(i&63) {
			t.Fatalf("Do = %d, want %d", got, i&63)
		}
		i++
	})
}

// BenchmarkMemoizedHit measures the generic memo hit path; its 0
// allocs/op is pinned by TestMemoizedHitZeroAlloc.
func BenchmarkMemoizedHit(b *testing.B) {
	m := NewMemoized(func(x int) int { return x * x })
	for i := 0; i < 256; i++ {
		m.Call(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Call(i & 255)
	}
}

// BenchmarkMemoTableHit measures the byte-keyed table hit path with
// KeyBuf encoding inside the measured loop.
func BenchmarkMemoTableHit(b *testing.B) {
	m := NewMemoTable(MemoTableConfig{Name: "bench-memotable", Shards: 8})
	var kb KeyBuf
	for i := 0; i < 256; i++ {
		k := kb.Reset().Int(int64(i)).Int(int64(i * 31)).Bytes()
		m.Store(k, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lookup(kb.Reset().Int(int64(i & 255)).Int(int64((i & 255) * 31)).Bytes())
	}
}

// TestMemoTableBoundedHeap pins a bounded MemoTable's heap to its
// entries: a 4096-entry table (TieredMemo's L1 shape, and a
// direct-addressed one) that looks up and then stores 500 000 distinct
// keys may hold at most 2 MB more live heap than after its first 8 192
// keys. A table that kept each key it was ever probed with grows by
// tens of megabytes.
func TestMemoTableBoundedHeap(t *testing.T) {
	const entries, warm, total, slack = 4096, 8192, 500_000, 2 << 20
	for _, cfg := range []MemoTableConfig{
		{Name: "heap-lru", Entries: entries, LRU: true},
		{Name: "heap-direct", Entries: entries},
	} {
		mt := NewMemoTable(cfg)
		var kb KeyBuf
		feed := func(from, to int64) {
			for i := from; i < to; i++ {
				key := kb.Reset().Int(i).Bytes()
				if _, ok := mt.Lookup(key); !ok {
					mt.Store(key, uint64(i))
				}
			}
		}
		feed(0, warm)
		base := liveHeap()
		feed(warm, total)
		if grown := liveHeap() - base; grown > slack {
			t.Errorf("%s: heap grew %d bytes over %d more distinct keys, want at most %d",
				cfg.Name, grown, total-warm, slack)
		}
		if got := mt.Resident(); got != entries {
			t.Errorf("%s: %d resident entries, want %d", cfg.Name, got, entries)
		}
	}
}

// liveHeap returns the bytes of live heap objects after a full GC.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
