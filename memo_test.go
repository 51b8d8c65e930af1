package compreuse

// Concurrency tests for the Go-facing reuse runtime: run with -race.
// These cover the sharded Memo/Memo2 wrappers (singleflight duplicate
// suppression, atomic stats) and the sharded MemoTable (parallel lookups
// and stores with eviction churn, race-free Stats).

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMemoSingleflight asserts f runs exactly once per distinct in-flight
// key: ten goroutines request the same key while the leader's computation
// is blocked, so nine of them must join it rather than recompute.
func TestMemoSingleflight(t *testing.T) {
	var invocations atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	f, stats := Memo(func(x int) int {
		if invocations.Add(1) == 1 {
			close(started)
		}
		<-release
		return x * 2
	})

	const callers = 10
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func() {
			defer wg.Done()
			if got := f(21); got != 42 {
				t.Errorf("f(21) = %d", got)
			}
		}()
	}
	<-started // the leader is inside f
	close(release)
	wg.Wait()

	if n := invocations.Load(); n != 1 {
		t.Fatalf("f invoked %d times for one key, want 1 (singleflight)", n)
	}
	st := stats.Snapshot()
	if st.Calls != callers || st.Distinct != 1 || st.Hits != callers-1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestMemoizedPanicReleasesKey: a panic in f must propagate to its
// caller and release the key. A flight left open by the panicking
// leader would park every later Call of the key forever.
func TestMemoizedPanicReleasesKey(t *testing.T) {
	var calls atomic.Int64
	m := NewMemoized(func(x int) int {
		if calls.Add(1) == 1 {
			panic("f exploded")
		}
		return x + 1
	})
	func() {
		defer func() {
			if r := recover(); r != "f exploded" {
				t.Fatalf("first Call recovered %v, want the panic of f", r)
			}
		}()
		m.Call(7)
	}()

	got := make(chan int, 1)
	go func() { got <- m.Call(7) }()
	select {
	case v := <-got:
		if v != 8 {
			t.Fatalf("second Call = %d, want 8", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second Call of the key still parked 10s after the leader panicked")
	}
	if st := m.Stats(); st.Calls != 2 || st.Hits != 0 || st.Distinct != 1 {
		t.Fatalf("stats %+v, want 2 calls, 0 hits, 1 distinct", st)
	}
}

// TestMemoSingleflightDistinctKeys checks dedup is per key: concurrent
// callers with different keys still each compute their own value once.
func TestMemoSingleflightDistinctKeys(t *testing.T) {
	var invocations atomic.Int64
	release := make(chan struct{})
	var started sync.WaitGroup
	const keys = 4
	started.Add(keys)
	f, stats := Memo(func(x int) int {
		invocations.Add(1)
		started.Done()
		<-release
		return -x
	})
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		for dup := 0; dup < 3; dup++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				if got := f(k); got != -k {
					t.Errorf("f(%d) = %d", k, got)
				}
			}(k)
		}
	}
	started.Wait() // one leader per key is inside f
	close(release)
	wg.Wait()
	if n := invocations.Load(); n != keys {
		t.Fatalf("f invoked %d times, want %d (once per distinct key)", n, keys)
	}
	if st := stats.Snapshot(); st.Distinct != keys || st.Calls != 3*keys {
		t.Fatalf("stats: %+v", st)
	}
}

// TestMemoParallelSnapshot hammers a memoized function from many
// goroutines while others read the stats through Snapshot; under -race
// this is the stats-visibility regression test (the old runtime's bare
// field reads raced with the wrapper's mutations).
func TestMemoParallelSnapshot(t *testing.T) {
	f, stats := Memo(func(x int) int { return x * x })
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					st := stats.Snapshot()
					if st.Hits > st.Calls || st.Distinct > st.Calls {
						t.Error("impossible snapshot")
						return
					}
					_ = st.HitRatio()
					_ = st.ReuseRate()
				}
			}
		}()
	}
	const workers, ops, keys = 8, 5000, 97
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				x := rng.Intn(keys)
				if f(x) != x*x {
					t.Error("wrong value")
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	st := stats.Snapshot()
	if st.Calls != workers*ops {
		t.Fatalf("calls = %d, want %d", st.Calls, workers*ops)
	}
	if st.Distinct != keys {
		t.Fatalf("distinct = %d, want %d", st.Distinct, keys)
	}
	if st.Hits != st.Calls-keys {
		t.Fatalf("hits = %d, want %d", st.Hits, st.Calls-keys)
	}
}

func TestMemo2Parallel(t *testing.T) {
	f, stats := Memo2(func(a, b int) int { return a*1000 + b })
	var wg sync.WaitGroup
	const workers, ops = 8, 2000
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				a, b := rng.Intn(10), rng.Intn(10)
				if f(a, b) != a*1000+b {
					t.Error("wrong value")
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	st := stats.Snapshot()
	if st.Calls != workers*ops || st.Distinct != 100 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestMemoTableParallel drives sharded MemoTables — unbounded, bounded
// direct-addressed, and bounded LRU (eviction churn) — from parallel
// goroutines with overlapping keys while a reader polls Stats.
func TestMemoTableParallel(t *testing.T) {
	configs := []MemoTableConfig{
		{Name: "opt", Shards: 8},
		{Name: "direct", Entries: 64, Shards: 8},
		{Name: "lru", Entries: 32, LRU: true, Shards: 8},
	}
	for _, cfg := range configs {
		t.Run(cfg.Name, func(t *testing.T) {
			mt := NewMemoTable(cfg)
			stop := make(chan struct{})
			var reader sync.WaitGroup
			reader.Add(1)
			go func() {
				defer reader.Done()
				for {
					select {
					case <-stop:
						return
					default:
						st := mt.Stats()
						if st.Hits > st.Calls {
							t.Error("impossible stats")
							return
						}
					}
				}
			}()
			const workers, ops, keys = 8, 3000, 200
			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < ops; i++ {
						k := EncodeInt(nil, int64(rng.Intn(keys)))
						if v, ok := mt.Lookup(k); ok {
							if v >= keys {
								t.Errorf("impossible value %d", v)
								return
							}
						} else {
							mt.Store(k, uint64(rng.Intn(keys)))
						}
					}
				}(int64(w))
			}
			wg.Wait()
			close(stop)
			reader.Wait()
			st := mt.Stats()
			if st.Calls != workers*ops {
				t.Fatalf("calls = %d, want %d", st.Calls, workers*ops)
			}
			// Distinct counts stored keys: Resident plus Evictions, which
			// stays within the key universe only when nothing is evicted.
			if want := int64(mt.Resident()) + st.Evictions; st.Distinct != want ||
				st.Distinct <= 0 || (cfg.Entries == 0 && st.Distinct > keys) {
				t.Fatalf("distinct = %d, want Resident+Evictions = %d, in 1..%d if unbounded",
					st.Distinct, want, keys)
			}
		})
	}
}

// TestMemoTableBoundedDistinct is the regression test for the wrong-stats
// bug: bounded tables used to report Distinct = 0, which made ReuseRate()
// return 1.0 regardless of the input stream. Distinct counts the keys
// stored, Resident plus Evictions: a table too small for the stream
// stores a key again on every pass and reuses nothing, one that holds
// the stream stores each key once. A Store with no Lookup before it can
// take Distinct past Calls; ReuseRate stays in [0, 1].
func TestMemoTableBoundedDistinct(t *testing.T) {
	for _, cfg := range []struct {
		MemoTableConfig
		distinct int64 // 0: only Resident+Evictions is pinned
	}{
		// Keys k and k+8 share a slot and alternate, so every lookup misses.
		{MemoTableConfig{Name: "direct8", Entries: 8}, 160},
		// The 16-key cycle evicts each key before it comes back.
		{MemoTableConfig{Name: "lru8", Entries: 8, LRU: true}, 160},
		{MemoTableConfig{Name: "lru16", Entries: 16, LRU: true}, 16},
		{MemoTableConfig{Name: "direct-sharded", Entries: 16, Shards: 4}, 0},
	} {
		mt := NewMemoTable(cfg.MemoTableConfig)
		// 16 distinct keys, 10 rounds each: a repeating input stream.
		const distinct, rounds = 16, 10
		for r := 0; r < rounds; r++ {
			for k := int64(0); k < distinct; k++ {
				key := EncodeInt(nil, k)
				if _, ok := mt.Lookup(key); !ok {
					mt.Store(key, uint64(k))
				}
			}
		}
		st := mt.Stats()
		want := int64(mt.Resident()) + st.Evictions
		if st.Distinct != want || (cfg.distinct != 0 && st.Distinct != cfg.distinct) {
			t.Errorf("%s: Distinct = %d, want Resident+Evictions = %d (pinned %d)",
				cfg.Name, st.Distinct, want, cfg.distinct)
		}
		if st.Calls != distinct*rounds {
			t.Errorf("%s: Calls = %d, want %d", cfg.Name, st.Calls, distinct*rounds)
		}
		r := st.ReuseRate()
		if wantR := 1 - float64(min(st.Distinct, st.Calls))/float64(st.Calls); r != wantR || r >= 1 || r < 0 {
			t.Errorf("%s: ReuseRate = %v, want %v in [0, 1)", cfg.Name, r, wantR)
		}
	}

	// One Lookup, then three Stores with no Lookup before them.
	mt := NewMemoTable(MemoTableConfig{Name: "store-only", Entries: 8, LRU: true})
	mt.Lookup(EncodeInt(nil, 0))
	for k := int64(0); k < 3; k++ {
		mt.Store(EncodeInt(nil, k), uint64(k))
	}
	if st := mt.Stats(); st.Calls != 1 || st.Distinct != 3 || st.ReuseRate() != 0 {
		t.Errorf("store-only: Calls %d Distinct %d ReuseRate %v, want 1, 3, 0",
			st.Calls, st.Distinct, st.ReuseRate())
	}
}

// TestMemoStatsSnapshotSequential pins the Snapshot accessor's behavior
// in the simple single-goroutine case.
func TestMemoStatsSnapshotSequential(t *testing.T) {
	f, stats := Memo(func(x int) int { return x + 1 })
	for i := 0; i < 10; i++ {
		f(i % 5)
	}
	st := stats.Snapshot()
	if st.Calls != 10 || st.Distinct != 5 || st.Hits != 5 {
		t.Fatalf("snapshot: %+v", st)
	}
	if st.HitRatio() != 0.5 || st.ReuseRate() != 0.5 {
		t.Fatalf("ratios: %v %v", st.HitRatio(), st.ReuseRate())
	}
}
