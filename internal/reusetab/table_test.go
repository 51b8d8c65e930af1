package reusetab

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func cfg1() Config {
	return Config{
		Name:     "t",
		Segs:     1,
		KeyBytes: 4,
		OutWords: []int{1},
		OutBytes: []int{4},
	}
}

func key32(v int64) []byte { return AppendInt(nil, v) }

func TestOptimalTableHitMiss(t *testing.T) {
	tab := New(cfg1())
	if _, hit := tab.Probe(0, key32(7)); hit {
		t.Fatal("hit on empty table")
	}
	tab.Record(0, key32(7), []uint64{42})
	outs, hit := tab.Probe(0, key32(7))
	if !hit || outs[0] != 42 {
		t.Fatalf("probe after record: hit=%v outs=%v", hit, outs)
	}
	if _, hit := tab.Probe(0, key32(8)); hit {
		t.Fatal("hit on unrecorded key")
	}
	st := tab.Stats(0)
	if st.Probes != 3 || st.Hits != 1 || st.Misses != 2 || st.Records != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// Key 8 was probed but never stored: a reuse table counts stored keys.
	if tab.Distinct() != 1 {
		t.Fatalf("distinct = %d, want 1", tab.Distinct())
	}
}

func TestOptimalTableOverwrite(t *testing.T) {
	tab := New(cfg1())
	tab.Record(0, key32(1), []uint64{10})
	tab.Record(0, key32(1), []uint64{11})
	outs, hit := tab.Probe(0, key32(1))
	if !hit || outs[0] != 11 {
		t.Fatalf("latest record must win: hit=%v outs=%v", hit, outs)
	}
}

func TestDirectAddressedCollision(t *testing.T) {
	c := cfg1()
	c.Entries = 8
	tab := New(c)
	// Keys 3 and 11 collide modulo 8 (key <= 32 bits indexes by value).
	tab.Record(0, key32(3), []uint64{100})
	if _, hit := tab.Probe(0, key32(11)); hit {
		t.Fatal("11 must not hit 3's entry")
	}
	if tab.Stats(0).Collisions != 1 {
		t.Fatalf("collisions = %d, want 1", tab.Stats(0).Collisions)
	}
	// Recording 11 replaces 3 (paper: replacement on collision).
	tab.Record(0, key32(11), []uint64{200})
	if _, hit := tab.Probe(0, key32(3)); hit {
		t.Fatal("3 must have been evicted")
	}
	outs, hit := tab.Probe(0, key32(11))
	if !hit || outs[0] != 200 {
		t.Fatalf("11 must hit after replacement: %v %v", hit, outs)
	}
}

func TestDirectAddressedModularization(t *testing.T) {
	// A 32-bit key indexes by value mod size; verify two congruent keys
	// land on the same slot via access counts.
	c := cfg1()
	c.Entries = 16
	tab := New(c)
	tab.Record(0, key32(5), []uint64{1})
	tab.Probe(0, key32(5))
	tab.Probe(0, key32(21)) // 21 mod 16 == 5
	acc := tab.AccessCounts()
	if acc[5] != 2 {
		t.Fatalf("slot 5 accesses = %d, want 2 (%v)", acc[5], acc)
	}
}

func TestWideKeyUsesJenkins(t *testing.T) {
	c := cfg1()
	c.KeyBytes = 16
	c.Entries = 64
	tab := New(c)
	var key []byte
	for i := 0; i < 4; i++ {
		key = AppendInt(key, int64(i*1000))
	}
	tab.Record(0, key, []uint64{7})
	outs, hit := tab.Probe(0, key)
	if !hit || outs[0] != 7 {
		t.Fatal("wide-key probe failed")
	}
}

func TestJenkinsMatchesLength(t *testing.T) {
	// Different lengths and contents should give different hashes almost
	// always; sanity-check determinism and spread.
	h1 := JenkinsHash([]byte("hello world, this is a key"), 0)
	h2 := JenkinsHash([]byte("hello world, this is a key"), 0)
	if h1 != h2 {
		t.Fatal("Jenkins hash not deterministic")
	}
	seen := map[uint32]bool{}
	buf := make([]byte, 13)
	for i := 0; i < 1000; i++ {
		buf[i%13]++
		seen[JenkinsHash(buf, 0)] = true
	}
	if len(seen) < 990 {
		t.Fatalf("poor hash spread: %d distinct of 1000", len(seen))
	}
}

func TestLRUEviction(t *testing.T) {
	c := cfg1()
	c.Entries = 2
	c.LRU = true
	tab := New(c)
	tab.Record(0, key32(1), []uint64{1})
	tab.Record(0, key32(2), []uint64{2})
	tab.Probe(0, key32(1)) // 1 is now more recent than 2
	tab.Record(0, key32(3), []uint64{3})
	if _, hit := tab.Probe(0, key32(2)); hit {
		t.Fatal("2 should have been evicted (LRU)")
	}
	if _, hit := tab.Probe(0, key32(1)); !hit {
		t.Fatal("1 should be resident")
	}
	if _, hit := tab.Probe(0, key32(3)); !hit {
		t.Fatal("3 should be resident")
	}
}

func TestLRUUpdateInPlace(t *testing.T) {
	c := cfg1()
	c.Entries = 2
	c.LRU = true
	tab := New(c)
	tab.Record(0, key32(1), []uint64{1})
	tab.Record(0, key32(1), []uint64{9})
	outs, hit := tab.Probe(0, key32(1))
	if !hit || outs[0] != 9 {
		t.Fatalf("update in place failed: %v %v", hit, outs)
	}
}

func TestMergedTableBitVector(t *testing.T) {
	c := Config{
		Name:     "merged",
		Segs:     3,
		KeyBytes: 8,
		OutWords: []int{1, 2, 1},
		OutBytes: []int{4, 8, 4},
	}
	tab := New(c)
	key := AppendInt(AppendInt(nil, 5), 6)
	tab.Record(0, key, []uint64{10})
	// Segment 1 must miss on the same key: its valid bit is clear.
	if _, hit := tab.Probe(1, key); hit {
		t.Fatal("segment 1 must miss before its own record")
	}
	if _, hit := tab.Probe(0, key); !hit {
		t.Fatal("segment 0 must hit")
	}
	tab.Record(1, key, []uint64{20, 21})
	outs, hit := tab.Probe(1, key)
	if !hit || outs[0] != 20 || outs[1] != 21 {
		t.Fatalf("segment 1 outputs: %v %v", hit, outs)
	}
	// Segment 2 still misses.
	if _, hit := tab.Probe(2, key); hit {
		t.Fatal("segment 2 must miss")
	}
}

func TestMergedSizeIncludesBitVector(t *testing.T) {
	c := Config{
		Name: "m", Segs: 2, KeyBytes: 4,
		OutWords: []int{1, 1}, OutBytes: []int{4, 4},
		Entries: 10,
	}
	tab := New(c)
	if got := tab.EntryBytes(); got != 4+4+4+8 {
		t.Fatalf("entry bytes = %d, want 20", got)
	}
	if got := tab.SizeBytes(); got != 200 {
		t.Fatalf("size = %d, want 200", got)
	}
}

func TestProfileModeCensus(t *testing.T) {
	c := cfg1()
	c.Mode = ModeProfile
	tab := New(c)
	seq := []int64{1, 2, 1, 1, 3, 2, 1}
	for _, v := range seq {
		if _, hit := tab.Probe(0, key32(v)); hit {
			t.Fatal("profile mode must never hit")
		}
		tab.Record(0, key32(v), []uint64{uint64(v * 10)})
	}
	if tab.Distinct() != 3 {
		t.Fatalf("distinct = %d, want 3", tab.Distinct())
	}
	cen := tab.SortedCensus()
	if len(cen) != 3 {
		t.Fatalf("census size %d", len(cen))
	}
	if cen[0].Count != 4 || cen[1].Count != 2 || cen[2].Count != 1 {
		t.Fatalf("census counts: %+v", cen)
	}
	if cen[0].Rank != 0 || cen[1].Rank != 1 || cen[2].Rank != 2 {
		t.Fatalf("census ranks: %+v", cen)
	}
	st := tab.Stats(0)
	if st.Probes != 7 || st.Hits != 0 {
		t.Fatalf("profile stats: %+v", st)
	}
}

// TestProfileModeMergedCensus pins the census of a merged profiling
// table whose two segments probe overlapping key streams: per-segment
// N_ds and counts in first-seen rank order, the union census, access
// counts and modeled size, before and after Reset.
func TestProfileModeMergedCensus(t *testing.T) {
	cfg := Config{Name: "merged", Segs: 2, KeyBytes: 4,
		OutWords: []int{2, 1}, OutBytes: []int{8, 4}, Mode: ModeProfile}
	tab := New(cfg)
	a, b, c, d := string(key32(10)), string(key32(20)), string(key32(30)), string(key32(40))
	probe := func(seg int, k string) {
		if _, hit := tab.Probe(seg, []byte(k)); hit {
			t.Fatal("profile mode must never hit")
		}
	}
	// Ranks by first sight: a=0, b=1, d=2, c=3.
	for _, p := range []struct {
		seg int
		key string
	}{{0, a}, {1, b}, {0, b}, {1, d}, {0, a}, {1, b}, {0, c}, {1, a}} {
		probe(p.seg, p.key)
	}
	check := func(when string, segDistinct []int, segCensus [][]KeyCount, census []KeyCount,
		access []int64, size int) {
		t.Helper()
		for seg := range cfg.Segs {
			if got := tab.SegDistinct(seg); got != segDistinct[seg] {
				t.Errorf("%s: SegDistinct(%d) = %d, want %d", when, seg, got, segDistinct[seg])
			}
			if got := tab.SegSortedCensus(seg); len(got)+len(segCensus[seg]) > 0 &&
				!reflect.DeepEqual(got, segCensus[seg]) {
				t.Errorf("%s: SegSortedCensus(%d) = %+v, want %+v", when, seg, got, segCensus[seg])
			}
		}
		if got := tab.Distinct(); got != len(census) {
			t.Errorf("%s: Distinct = %d, want %d", when, got, len(census))
		}
		if got := tab.SortedCensus(); len(got)+len(census) > 0 && !reflect.DeepEqual(got, census) {
			t.Errorf("%s: SortedCensus = %+v, want %+v", when, got, census)
		}
		if got := tab.AccessCounts(); !reflect.DeepEqual(got, access) {
			t.Errorf("%s: AccessCounts = %v, want %v", when, got, access)
		}
		if got := tab.SizeBytes(); got != size {
			t.Errorf("%s: SizeBytes = %d, want %d", when, got, size)
		}
	}
	// One entry models the 4-byte key, 8+4 output bytes and the 8-byte
	// valid-bit word of a merged table: 24 bytes.
	check("before reset", []int{3, 3},
		[][]KeyCount{
			{{Key: a, Count: 2, Rank: 0}, {Key: b, Count: 1, Rank: 1}, {Key: c, Count: 1, Rank: 3}},
			{{Key: a, Count: 1, Rank: 0}, {Key: b, Count: 2, Rank: 1}, {Key: d, Count: 1, Rank: 2}},
		},
		[]KeyCount{{Key: a, Count: 3, Rank: 0}, {Key: b, Count: 3, Rank: 1},
			{Key: d, Count: 1, Rank: 2}, {Key: c, Count: 1, Rank: 3}},
		[]int64{3, 3, 1, 1}, 4*24)

	tab.Reset()
	check("after reset", []int{0, 0}, [][]KeyCount{nil, nil}, nil, nil, 0)

	// Ranks restart at 0 and no count survives the reset.
	probe(1, c)
	probe(1, c)
	check("after reset and replay", []int{0, 1},
		[][]KeyCount{nil, {{Key: c, Count: 2, Rank: 0}}},
		[]KeyCount{{Key: c, Count: 2, Rank: 0}},
		[]int64{2}, 24)
}

func TestKeyEncodingRoundTrip(t *testing.T) {
	vals := []int64{0, 1, -1, 1 << 20, -(1 << 20), 2147483647, -2147483648}
	var key []byte
	for _, v := range vals {
		key = AppendInt(key, v)
	}
	dec, ok := DecodeIntsInto(nil, string(key))
	if !ok || len(dec) != len(vals) {
		t.Fatalf("decoded %d values", len(dec))
	}
	for i, v := range vals {
		if int64(dec[i]) != v {
			t.Errorf("value %d: got %d, want %d", i, dec[i], v)
		}
	}
}

func TestKeyEncodingProperty(t *testing.T) {
	// Distinct int32 pairs produce distinct keys; equal pairs equal keys.
	f := func(a, b int32) bool {
		k1 := string(AppendInt(nil, int64(a)))
		k2 := string(AppendInt(nil, int64(b)))
		return (k1 == k2) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloatKeyEncodingProperty(t *testing.T) {
	f := func(a, b float64) bool {
		k1 := string(AppendFloat(nil, a))
		k2 := string(AppendFloat(nil, b))
		// Bit-pattern equality, so NaN != NaN is fine (distinct bits equal).
		return (k1 == k2) == (a == b || (a != a && b != b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableProperty_RecordThenProbeHits(t *testing.T) {
	// Property: in optimal mode, any recorded (key, out) is retrievable.
	f := func(keys []int32, outs []uint32) bool {
		tab := New(cfg1())
		n := len(keys)
		if len(outs) < n {
			n = len(outs)
		}
		want := map[int32]uint64{}
		for i := 0; i < n; i++ {
			tab.Record(0, key32(int64(keys[i])), []uint64{uint64(outs[i])})
			want[keys[i]] = uint64(outs[i])
		}
		for k, v := range want {
			got, hit := tab.Probe(0, key32(int64(k)))
			if !hit || got[0] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad config")
		}
	}()
	New(Config{Name: "bad", Segs: 2, OutWords: []int{1}, OutBytes: []int{4, 4}})
}

func TestIndexOfNonPositiveEntries(t *testing.T) {
	// A degenerate table has one conceptual slot; IndexOf must not divide
	// by zero (it used to panic for entries <= 0).
	for _, entries := range []int{0, -1, -100} {
		if got := IndexOf("abcd", entries); got != 0 {
			t.Fatalf("IndexOf(_, %d) = %d, want 0", entries, got)
		}
		if got := IndexOf(string(key32(7)), entries); got != 0 {
			t.Fatalf("IndexOf(key32, %d) = %d, want 0", entries, got)
		}
	}
}

// TestBoundedTableDistinct is the regression test for Distinct() returning
// 0 on bounded tables: both replacement policies report the keys stored
// since the last Reset, Resident plus Evictions, so a key stored again
// after its eviction counts again.
func TestBoundedTableDistinct(t *testing.T) {
	for _, lru := range []bool{false, true} {
		c := cfg1()
		c.Entries = 4
		c.LRU = lru
		tab := New(c)
		// 10 distinct keys, each probed 3 times, through a 4-entry table:
		// far more distinct keys than capacity. Each key is evicted before
		// the cycle comes back to it, so every probe misses and stores.
		for round := 0; round < 3; round++ {
			for k := int64(0); k < 10; k++ {
				if _, hit := tab.Probe(0, key32(k)); !hit {
					tab.Record(0, key32(k), []uint64{uint64(k)})
				}
			}
		}
		st := tab.Stats(0)
		if got := tab.Distinct(); got != 30 || got != tab.Resident()+int(st.Evictions) {
			t.Errorf("LRU=%v: Distinct() = %d, want 30 = Resident %d + Evictions %d",
				lru, got, tab.Resident(), st.Evictions)
		}
		if st.Probes != 30 {
			t.Errorf("LRU=%v: probes = %d, want 30", lru, st.Probes)
		}
	}
}

// referenceLRUVictim reimplements the historical O(n) eviction scan:
// first free slot, else the lowest-indexed entry whose key was used
// longest ago, by the op index the test recorded in lastUse.
func referenceLRUVictim(slots []entry, lastUse map[string]int) int {
	victim, oldest := -1, math.MaxInt
	for i := range slots {
		if !slots[i].used {
			return i
		}
		if u := lastUse[string(slots[i].key)]; u < oldest {
			oldest, victim = u, i
		}
	}
	return victim
}

// TestLRUMatchesReferenceScan drives a randomized probe-then-record
// workload (the shape the VM and MemoTable generate: every Record is
// preceded by its Probe) through the O(1) LRU and checks each insertion
// picks exactly the slot the historical O(n) timestamp scan would have.
func TestLRUMatchesReferenceScan(t *testing.T) {
	c := cfg1()
	c.Entries = 8
	c.LRU = true
	tab := New(c)
	rng := rand.New(rand.NewSource(7))
	// lastUse is the op index of each key's latest hit or record.
	lastUse := map[string]int{}
	for op := 0; op < 4000; op++ {
		k := key32(int64(rng.Intn(40)))
		if _, hit := tab.Probe(0, k); !hit {
			want := referenceLRUVictim(tab.slots, lastUse)
			tab.Record(0, k, []uint64{uint64(op)})
			got := tab.lruIdx[string(k)]
			if got != want {
				t.Fatalf("op %d: O(1) LRU placed key in slot %d, reference scan wants %d", op, got, want)
			}
		}
		lastUse[string(k)] = op
	}
	// The resident set is exactly the keys the index maps.
	if len(tab.lruIdx) != c.Entries {
		t.Fatalf("resident keys = %d, want %d", len(tab.lruIdx), c.Entries)
	}
	for k, i := range tab.lruIdx {
		if string(tab.slots[i].key) != k {
			t.Fatalf("slot %d holds %q, index says %q", i, tab.slots[i].key, k)
		}
	}
}
