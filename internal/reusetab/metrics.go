package reusetab

import (
	"fmt"
	"time"

	"compreuse/internal/obs"
)

// Runtime metrics of the reuse tables. All metric updates are gated on
// obs.On() at the call site: with instrumentation disabled the probe and
// record hot paths pay exactly one atomic load. Counters aggregate over
// every live table (plain and sharded alike — Sharded delegates to Table
// inside the shard lock, so nothing is double-counted); per-table
// occupancy is exported as one labeled gauge per table name.
var (
	mProbes = obs.NewCounter("crc_probes_total",
		"reuse-table probes across all tables")
	mHits = obs.NewCounter("crc_probe_hits_total",
		"probes answered from a reuse table")
	mMisses = obs.NewCounter("crc_probe_misses_total",
		"probes that fell through to the computation")
	mCollisions = obs.NewCounter("crc_collisions_total",
		"probes lost to a different key holding the direct-addressed slot")
	mRecords = obs.NewCounter("crc_records_total",
		"outputs recorded into reuse tables")
	mEvictions = obs.NewCounter("crc_evictions_total",
		"resident entries displaced by LRU replacement or direct-addressed overwrite")
	mResident = obs.NewGauge("crc_resident_entries",
		"entries currently resident across live reuse tables")
	mProbeLatency = obs.NewHistogram("crc_probe_latency_ns",
		"reuse-table probe latency in nanoseconds", obs.LatencyBuckets)
	mRecordLatency = obs.NewHistogram("crc_record_latency_ns",
		"reuse-table record latency in nanoseconds", obs.LatencyBuckets)
	mKeyBytes = obs.NewHistogram("crc_key_bytes",
		"probed key size in bytes", obs.SizeBuckets)
)

// OccupancyGauge returns the labeled per-table occupancy gauge for a table
// name. Tables sharing a name (e.g. the per-shard tables of one Sharded)
// share the gauge; callers Set it to the full table's resident count.
func OccupancyGauge(name string) *obs.Gauge {
	return obs.NewGauge(fmt.Sprintf("crc_table_occupancy{table=%q}", name),
		"resident entries per reuse table")
}

// probeObserved wraps probe with latency/size/outcome instrumentation.
// Collision effects are recovered as before/after deltas
// of the table's own statistics, so the uninstrumented path stays free of
// metric branches.
func (t *Table) probeObserved(seg int, key []byte) ([]uint64, bool) {
	collBefore := t.stats[seg].Collisions
	start := time.Now()
	outs, hit := t.probe(seg, key)
	mProbeLatency.Observe(time.Since(start).Nanoseconds())
	mKeyBytes.Observe(int64(len(key)))
	mProbes.Inc()
	if hit {
		mHits.Inc()
	} else {
		mMisses.Inc()
	}
	if d := t.stats[seg].Collisions - collBefore; d > 0 {
		mCollisions.Add(d)
	}
	return outs, hit
}

// recordObserved wraps record with latency/eviction/occupancy
// instrumentation. ModeProfile records are no-ops and stay uncounted.
func (t *Table) recordObserved(seg int, key []byte, outs []uint64) {
	if t.cfg.Mode == ModeProfile {
		return
	}
	evBefore := t.stats[seg].Evictions
	resBefore := t.resident
	start := time.Now()
	t.record(seg, key, outs)
	mRecordLatency.Observe(time.Since(start).Nanoseconds())
	mRecords.Inc()
	if d := t.stats[seg].Evictions - evBefore; d > 0 {
		mEvictions.Add(d)
	}
	if d := t.resident - resBefore; d != 0 {
		mResident.Add(int64(d))
	}
	if t.occGauge != nil {
		t.occGauge.Set(int64(t.resident))
	}
}
