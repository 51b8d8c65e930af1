package reusetab

import (
	"testing"

	"compreuse/internal/obs"
)

// TestProbeInstrumentation checks that enabled instrumentation feeds the
// global counters, histograms and the per-table occupancy gauge, and that
// disabling stops the flow. Deltas are used throughout because the
// counters are process-global.
func TestProbeInstrumentation(t *testing.T) {
	defer obs.Disable()

	tab := New(Config{
		Name: "instr", Segs: 1, KeyBytes: 4,
		OutWords: []int{1}, OutBytes: []int{4},
		Entries: 2, LRU: true,
	})
	probes0 := mProbes.Value()
	hits0 := mHits.Value()
	ev0 := mEvictions.Value()
	lat0 := mProbeLatency.Count()
	key0 := mKeyBytes.Count()

	// Disabled: nothing moves (the key is outside the enabled loop's set).
	tab.Probe(0, AppendInt(nil, 1000))
	tab.Record(0, AppendInt(nil, 1000), []uint64{1})
	if mProbes.Value() != probes0 || mProbeLatency.Count() != lat0 {
		t.Fatal("disabled instrumentation still counted")
	}

	obs.Enable()
	for i := int64(0); i < 4; i++ {
		key := AppendInt(nil, i)
		if _, hit := tab.Probe(0, key); !hit {
			tab.Record(0, key, []uint64{uint64(i)})
		}
		tab.Probe(0, key) // immediate re-probe hits while key is hot
	}
	if got := mProbes.Value() - probes0; got != 8 {
		t.Errorf("probe counter delta = %d, want 8", got)
	}
	if got := mHits.Value() - hits0; got != 4 {
		t.Errorf("hit counter delta = %d, want 4", got)
	}
	if got := mEvictions.Value() - ev0; got != 3 {
		t.Errorf("eviction counter delta = %d, want 3 (5 keys through 2 LRU slots)", got)
	}
	if got := mProbeLatency.Count() - lat0; got != 8 {
		t.Errorf("latency samples = %d, want 8", got)
	}
	if got := mKeyBytes.Count() - key0; got != 8 {
		t.Errorf("key-size samples = %d, want 8", got)
	}
	if got := OccupancyGauge("instr").Value(); got != 2 {
		t.Errorf("occupancy gauge = %d, want 2", got)
	}
}

// TestShardedOccupancyGauge checks the sharded table maintains one
// whole-table gauge instead of per-shard clobbering, and that the gauge
// reads the table's occupancy: records made while metrics were off, an
// older table under the same name and re-records do not skew it.
func TestShardedOccupancyGauge(t *testing.T) {
	defer obs.Disable()
	cfg := Config{
		Name: "instr_sharded", Segs: 1, KeyBytes: 4,
		OutWords: []int{1}, OutBytes: []int{4},
	}
	gauge := OccupancyGauge("instr_sharded")

	obs.Enable()
	old := NewSharded(cfg, 4)
	for i := int64(0); i < 25; i++ {
		old.Record(0, AppendInt(nil, -i-1), []uint64{uint64(i)})
	}
	if got := gauge.Value(); got != 25 {
		t.Errorf("occupancy gauge = %d after the first table's records, want 25", got)
	}

	// A second table under the same name, filled with metrics off.
	obs.Disable()
	s := NewSharded(cfg, 4)
	for i := int64(0); i < 40; i++ {
		key := AppendInt(nil, i*977)
		s.Probe(0, key)
		s.Record(0, key, []uint64{uint64(i)})
	}
	obs.Enable()
	s.Record(0, AppendInt(nil, 0), []uint64{7}) // re-record: no resident delta
	if got := gauge.Value(); got != 40 {
		t.Errorf("sharded occupancy gauge = %d, want 40", got)
	}
	if s.Resident() != 40 {
		t.Errorf("Resident = %d, want 40", s.Resident())
	}
	s.Reset()
	if got := gauge.Value(); got != 0 {
		t.Errorf("occupancy gauge = %d after Reset, want 0", got)
	}
}

// benchProbeTable builds a warm unbounded table: the hot path the
// disabled-overhead budget protects.
func benchProbeTable() (*Table, [][]byte) {
	tab := New(Config{
		Name: "bench", Segs: 1, KeyBytes: 4,
		OutWords: []int{1}, OutBytes: []int{4},
	})
	keys := make([][]byte, 256)
	for i := range keys {
		keys[i] = AppendInt(nil, int64(i))
		tab.Record(0, keys[i], []uint64{uint64(i)})
	}
	return tab, keys
}

// BenchmarkProbeDisabled is the PR 2-comparable probe hot path with
// instrumentation compiled in but disabled: the delta vs the seed is the
// single obs.On() load (see obs.TestDisabledCheckUnder2ns for the <2 ns
// assertion on that load).
func BenchmarkProbeDisabled(b *testing.B) {
	obs.Disable()
	tab, keys := benchProbeTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Probe(0, keys[i&255])
	}
}

// BenchmarkProbeEnabled prices the full instrumentation: two time.Now
// calls, three histogram observes' worth of atomics, and the counters.
func BenchmarkProbeEnabled(b *testing.B) {
	obs.Enable()
	defer obs.Disable()
	tab, keys := benchProbeTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Probe(0, keys[i&255])
	}
}
