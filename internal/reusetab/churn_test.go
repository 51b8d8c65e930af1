package reusetab

import (
	"fmt"
	"sync"
	"testing"
)

// These tests cover the Evictions counter (previously LRU churn was only
// inferable from Collisions) and extend the PR 2 bounded-Distinct suite
// with the concurrent-churn consistency regression.

func evictCfg(entries int, lru bool) Config {
	return Config{
		Name: "evict", Segs: 1, KeyBytes: 4,
		OutWords: []int{1}, OutBytes: []int{4},
		Entries: entries, LRU: lru,
	}
}

func TestLRUEvictionCounter(t *testing.T) {
	tab := New(evictCfg(4, true))
	for i := int64(0); i < 10; i++ {
		key := AppendInt(nil, i)
		if _, hit := tab.Probe(0, key); hit {
			t.Fatalf("key %d: unexpected hit", i)
		}
		tab.Record(0, key, []uint64{uint64(i)})
	}
	st := tab.TotalStats()
	if st.Evictions != 6 {
		t.Errorf("Evictions = %d, want 6 (10 distinct keys through 4 slots)", st.Evictions)
	}
	if tab.Resident() != 4 {
		t.Errorf("Resident = %d, want 4", tab.Resident())
	}
	if tab.Distinct() != 10 {
		t.Errorf("Distinct = %d, want 10", tab.Distinct())
	}
	// Re-recording a resident key updates in place: no eviction.
	tab.Record(0, AppendInt(nil, 9), []uint64{99})
	if got := tab.TotalStats().Evictions; got != 6 {
		t.Errorf("in-place update evicted: %d", got)
	}
}

func TestDirectAddressedEvictionCounter(t *testing.T) {
	tab := New(evictCfg(1, false)) // every distinct key maps to slot 0
	keys := []int64{1, 2, 3}
	for _, k := range keys {
		key := AppendInt(nil, k)
		tab.Probe(0, key)
		tab.Record(0, key, []uint64{uint64(k)})
	}
	st := tab.TotalStats()
	// First record fills the slot; the next two overwrite a different key.
	if st.Evictions != 2 {
		t.Errorf("Evictions = %d, want 2", st.Evictions)
	}
	if tab.Resident() != 1 {
		t.Errorf("Resident = %d, want 1", tab.Resident())
	}
	// Unbounded tables never evict.
	opt := New(evictCfg(0, false))
	for _, k := range keys {
		key := AppendInt(nil, k)
		opt.Probe(0, key)
		opt.Record(0, key, []uint64{uint64(k)})
	}
	if got := opt.TotalStats().Evictions; got != 0 {
		t.Errorf("unbounded table evicted %d times", got)
	}
	if opt.Resident() != 3 {
		t.Errorf("unbounded Resident = %d, want 3", opt.Resident())
	}
}

// TestShardedChurnConsistency hammers a bounded LRU Sharded from 8
// goroutines with far more distinct keys than capacity, then checks that
// Distinct() counts every key stored (Resident plus Evictions, at least
// every key the generator emits) and that the Evictions counter is
// consistent with the shard tables' own books. Run under -race this is
// also the data-race check for the eviction plumbing.
func TestShardedChurnConsistency(t *testing.T) {
	const (
		workers  = 8
		keySpace = 512
		entries  = 32
		rounds   = 4000
	)
	s := NewSharded(evictCfg(entries, true), 4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			x := seed*7919 + 1
			for i := 0; i < rounds; i++ {
				x = (x*75 + 74) % keySpace
				key := AppendInt(nil, x)
				if _, hit := s.Probe(0, key); !hit {
					s.Record(0, key, []uint64{uint64(x)})
				}
			}
		}(int64(w))
	}
	wg.Wait()

	// Every key the generator can emit was probed, missed and stored at
	// least once.
	covered := map[int64]bool{}
	for w := 0; w < workers; w++ {
		x := int64(w)*7919 + 1
		for i := 0; i < rounds; i++ {
			x = (x*75 + 74) % keySpace
			covered[x] = true
		}
	}
	st := s.TotalStats()
	if got := s.Distinct(); got < len(covered) || got != s.Resident()+int(st.Evictions) {
		t.Errorf("Distinct = %d, want Resident %d + Evictions %d, at least %d",
			got, s.Resident(), st.Evictions, len(covered))
	}
	if st.Probes != workers*rounds {
		t.Errorf("Probes = %d, want %d", st.Probes, workers*rounds)
	}
	if st.Hits+st.Misses != st.Probes {
		t.Errorf("Hits(%d)+Misses(%d) != Probes(%d)", st.Hits, st.Misses, st.Probes)
	}
	if st.Evictions == 0 {
		t.Error("no evictions under churn (keySpace >> entries)")
	}
	if st.Evictions > st.Records {
		t.Errorf("Evictions(%d) > Records(%d)", st.Evictions, st.Records)
	}

	// The atomic Sharded counters must agree with the per-shard tables'
	// own (lock-protected) statistics once quiescent.
	var shardEv, shardRes int64
	capacity := 0
	for i := range s.shards {
		shardEv += s.shards[i].tab.TotalStats().Evictions
		shardRes += int64(s.shards[i].tab.Resident())
		capacity += s.shards[i].tab.Config().Entries
	}
	if st.Evictions != shardEv {
		t.Errorf("Sharded evictions %d != shard-table sum %d", st.Evictions, shardEv)
	}
	if int64(s.Resident()) != shardRes {
		t.Errorf("Sharded resident %d != shard-table sum %d", s.Resident(), shardRes)
	}
	if s.Resident() > capacity {
		t.Errorf("Resident %d exceeds capacity %d", s.Resident(), capacity)
	}
	// Every record either updated a resident key in place, filled a fresh
	// slot, or evicted: fresh fills equal final residency, so evictions
	// can never exceed records minus residency.
	if st.Evictions > st.Records-int64(s.Resident()) {
		t.Errorf("Evictions(%d) > Records(%d) - Resident(%d)", st.Evictions, st.Records, s.Resident())
	}
	if testing.Verbose() {
		fmt.Printf("churn: probes=%d hits=%d evictions=%d resident=%d distinct=%d\n",
			st.Probes, st.Hits, st.Evictions, s.Resident(), s.Distinct())
	}
}
