package reusetab

import (
	"math/rand"
	"sync"
	"testing"
)

func TestShardedShardCountRounding(t *testing.T) {
	cases := []struct {
		req, entries, want int
	}{
		{0, 0, 1},
		{1, 0, 1},
		{3, 0, 4},
		{8, 0, 8},
		{9, 0, 16},
		// Bounded tables clamp so every shard holds at least one entry.
		{8, 2, 2},
		{8, 1, 1},
		{4, 6, 4},
	}
	for _, c := range cases {
		cfg := cfg1()
		cfg.Entries = c.entries
		s := NewSharded(cfg, c.req)
		if s.Shards() != c.want {
			t.Errorf("NewSharded(entries=%d, %d shards) = %d stripes, want %d",
				c.entries, c.req, s.Shards(), c.want)
		}
	}
}

func TestShardedRejectsProfileMode(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ModeProfile")
		}
	}()
	cfg := cfg1()
	cfg.Mode = ModeProfile
	NewSharded(cfg, 4)
}

// TestShardedMatchesSingleTableUnbounded drives one deterministic op
// sequence through a plain Table and an 8-way Sharded table in optimal
// (unbounded) mode. Every key lives in exactly one shard, so per-op
// results and the aggregate statistics must agree exactly.
func TestShardedMatchesSingleTableUnbounded(t *testing.T) {
	single := New(cfg1())
	sharded := NewSharded(cfg1(), 8)
	rng := rand.New(rand.NewSource(42))
	for op := 0; op < 5000; op++ {
		k := key32(int64(rng.Intn(300)))
		if rng.Intn(2) == 0 {
			o1, h1 := single.Probe(0, k)
			o2, h2 := sharded.Probe(0, k)
			if h1 != h2 {
				t.Fatalf("op %d: probe hit mismatch: single=%v sharded=%v", op, h1, h2)
			}
			if h1 && o1[0] != o2[0] {
				t.Fatalf("op %d: probe value mismatch: %d vs %d", op, o1[0], o2[0])
			}
		} else {
			v := []uint64{uint64(op)}
			single.Record(0, k, v)
			sharded.Record(0, k, v)
		}
	}
	ss, sh := single.Stats(0), sharded.Stats(0)
	if ss != sh {
		t.Fatalf("stats diverged: single=%+v sharded=%+v", ss, sh)
	}
	if single.Distinct() != sharded.Distinct() {
		t.Fatalf("distinct diverged: %d vs %d", single.Distinct(), sharded.Distinct())
	}
}

func TestShardedBoundedCapacitySplit(t *testing.T) {
	cfg := cfg1()
	cfg.Entries = 16
	s := NewSharded(cfg, 4)
	if s.Shards() != 4 {
		t.Fatalf("shards = %d", s.Shards())
	}
	// Total modeled capacity must cover the requested entry count.
	for i := 0; i < 64; i++ {
		s.Record(0, key32(int64(i)), []uint64{uint64(i)})
	}
	if got, want := s.SizeBytes(), 16*s.EntryBytes(); got != want {
		t.Fatalf("size = %d, want %d", got, want)
	}
	// A recorded key probes back through the same shard.
	s.Record(0, key32(1000), []uint64{77})
	outs, hit := s.Probe(0, key32(1000))
	if !hit || outs[0] != 77 {
		t.Fatalf("probe after record: %v %v", hit, outs)
	}
}

func TestShardedMergedSegments(t *testing.T) {
	cfg := Config{
		Name: "m", Segs: 2, KeyBytes: 8,
		OutWords: []int{1, 1}, OutBytes: []int{4, 4},
	}
	s := NewSharded(cfg, 4)
	key := AppendInt(AppendInt(nil, 3), 9)
	s.Record(0, key, []uint64{5})
	if _, hit := s.Probe(1, key); hit {
		t.Fatal("segment 1 must miss before its own record")
	}
	if outs, hit := s.Probe(0, key); !hit || outs[0] != 5 {
		t.Fatal("segment 0 must hit")
	}
	if st := s.Stats(1); st.Probes != 1 || st.Misses != 1 {
		t.Fatalf("segment 1 stats: %+v", st)
	}
	if st := s.Stats(0); st.Probes != 1 || st.Hits != 1 || st.Records != 1 {
		t.Fatalf("segment 0 stats: %+v", st)
	}
}

// TestShardedConcurrent exercises parallel probe/record churn with
// overlapping keys while other goroutines continuously read the atomic
// statistics; run under -race this is the no-torn-stats regression test.
func TestShardedConcurrent(t *testing.T) {
	for _, cfg := range []Config{
		cfg1(), // unbounded
		{Name: "lru", Segs: 1, KeyBytes: 4, OutWords: []int{1}, OutBytes: []int{4}, Entries: 32, LRU: true},
		{Name: "dir", Segs: 1, KeyBytes: 4, OutWords: []int{1}, OutBytes: []int{4}, Entries: 64},
	} {
		s := NewSharded(cfg, 8)
		var workersWG, readersWG sync.WaitGroup
		stop := make(chan struct{})
		// Stats readers poll until the workers are done.
		for r := 0; r < 2; r++ {
			readersWG.Add(1)
			go func() {
				defer readersWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
						_ = s.Stats(0)
						_ = s.TotalStats()
						_ = s.Distinct()
					}
				}
			}()
		}
		// Probe/record workers over an overlapping key space (bigger than
		// the bounded capacities, so LRU mode churns through evictions).
		const workers, ops, keys = 8, 2000, 100
		workersWG.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer workersWG.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < ops; i++ {
					k := key32(int64(rng.Intn(keys)))
					if outs, hit := s.Probe(0, k); hit {
						if outs[0] >= keys {
							t.Errorf("%s: impossible value %d", cfg.Name, outs[0])
							return
						}
					} else {
						s.Record(0, k, []uint64{uint64(rng.Intn(keys))})
					}
				}
			}(w)
		}
		workersWG.Wait()
		close(stop)
		readersWG.Wait()
		st := s.Stats(0)
		if st.Probes != workers*ops {
			t.Fatalf("%s: probes = %d, want %d", cfg.Name, st.Probes, workers*ops)
		}
		if st.Hits+st.Misses != st.Probes {
			t.Fatalf("%s: hits+misses = %d, want %d", cfg.Name, st.Hits+st.Misses, st.Probes)
		}
		// A bounded table counts a key again when it is stored after its
		// eviction; only an unbounded one stays within the key universe.
		d, want := s.Distinct(), s.Resident()+int(s.TotalStats().Evictions)
		if d <= 0 || d != want || (cfg.Entries == 0 && d > keys) {
			t.Fatalf("%s: distinct = %d, want Resident+Evictions = %d, in 1..%d if unbounded",
				cfg.Name, d, want, keys)
		}
	}
}
