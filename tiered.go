package compreuse

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"

	"compreuse/internal/obs"
)

// TieredMemoConfig sizes a TieredMemo.
type TieredMemoConfig struct {
	// Name is the shared segment name on the server; every process in
	// the fleet using the same name shares one L2 table.
	Name string
	// L1Entries bounds the process-local L1 table (0 = unbounded).
	L1Entries int
	// L1LRU selects LRU replacement for a bounded L1.
	L1LRU bool
	// L1Shards stripes the L1 for parallel callers (0 = 1).
	L1Shards int
	// Remote configures the server-side table (Entries/LRU; OutWords
	// is forced to 1 — TieredMemo caches single-word values).
	Remote SegmentConfig
}

// TieredStats counts where a TieredMemo's calls were served from.
type TieredStats struct {
	// Calls is the number of Do invocations.
	Calls int64
	// L1Hits were served from the process-local table — no round trip.
	L1Hits int64
	// L2Hits were served from the shared remote table — one RTT, no
	// computation.
	L2Hits int64
	// Computes ran the computation (remote miss, bypass, or error).
	Computes int64
	// Bypassed is the subset of Computes short-circuited by the
	// governor's BYPASS verdict (locally cached or fresh).
	Bypassed int64
	// Errors is the subset of Computes taken because the remote tier
	// failed; the caller still got a value, computed locally.
	Errors int64
}

// TieredMemo layers a process-local MemoTable (L1) over a remote
// crcserve segment (L2): an L1 hit costs a hash probe, an L2 hit costs
// one round trip, and only a fleet-wide first encounter of a key pays
// the computation — a warm fleet shares every distinct result. The
// remote tier degrades gracefully: on server errors, and for segments
// the admission governor has bypassed (a round trip is only worth
// paying while R·C − O > 0 holds on the server's live numbers), Do
// simply computes locally.
type TieredMemo struct {
	remoteTier
	l1 *MemoTable

	// flights deduplicates concurrent misses on one key, by a maphash
	// of its bytes: the first caller (the leader) does the remote GET
	// and, on a fleet-wide miss, the compute; everyone else waits for it
	// and re-probes L1 — one round trip and one computation per
	// in-flight key, not one per caller.
	seed    maphash.Seed
	sfMu    sync.Mutex
	flights flightTable
}

// remoteCache is the L2 surface the tiered memos drive: a
// RemoteSegment, or a test double. It degrades to errors rather than
// blocking, which is all Do's never-fails contract needs. GET and PUT
// each have one method, so a double sees every call of either kind.
type remoteCache interface {
	GetTraced(key []byte, tr obs.TraceCtx) ([]uint64, GetStatus, error)
	PutTraced(key []byte, vals []uint64, cost time.Duration, tr obs.TraceCtx) error
	Stats() (RemoteStats, error)
	Flush() error
}

// remoteTier is the remote half both tiered memos share: the L2
// segment, the where-served counters and a flight leader's L2 leg.
type remoteTier struct {
	seg   remoteCache
	stats tierCounters
}

// tierCounters are a tiered memo's where-served counters, in TieredStats
// field order; TieredDepMemo keeps the same block, its ghost refills in
// the L2 slot.
type tierCounters [6]atomic.Int64

const (
	tsCalls = iota
	tsL1Hits
	tsL2Hits
	tsComputes
	tsBypassed
	tsErrors
)

// leg is the remote half of a flight leader's miss, the same for both
// tiered memos. When get is set it asks L2 for key; a hit is served, and otherwise
// compute runs under a timed "compute" span. keep stores the value in
// the memo's local table and lands the leader's flight, and returns the
// key to publish the value under. Only then is a computed value PUT with
// its measured cost C — the cost the server's governor weighs against
// the overhead O of serving the segment — so followers never wait out
// the PUT. It is PUT after a clean Miss or when no GET was made: after a
// Bypass the governor has turned the segment off, and after an error the
// tier is not answering. Errors (a failed GET or PUT) and bypasses are
// counted. root is the request's span: the GET and PUT stitch into it
// across the wire, the compute becomes a child span, and root's outcome
// records which level served the request.
func (t *remoteTier) leg(key []byte, get bool, root *obs.Span, compute func() uint64, keep func(v uint64, publish bool) []byte) uint64 {
	publish := true
	if get {
		vals, status, err := t.seg.GetTraced(key, root.Context())
		switch {
		case err == nil && status == Hit && len(vals) > 0:
			t.stats[tsL2Hits].Add(1)
			root.Outcome("l2_hit")
			keep(vals[0], false)
			return vals[0]
		case err != nil:
			t.stats[tsErrors].Add(1)
			root.Outcome("l2_err")
		case status == Bypass:
			t.stats[tsBypassed].Add(1)
			root.Outcome("bypass")
		default:
			root.Outcome("compute")
		}
		publish = err == nil && status == Miss
	} else {
		root.Outcome("compute")
	}

	t.stats[tsComputes].Add(1)
	csp := obs.StartSpan(root.Context(), "compute")
	start := time.Now()
	v := compute()
	cost := time.Since(start)
	csp.End()
	put := keep(v, publish)
	if publish {
		if err := t.seg.PutTraced(put, []uint64{v}, cost, root.Context()); err != nil {
			t.stats[tsErrors].Add(1)
		}
	}
	return v
}

// reset zeroes the counters and flushes the L2 segment (which also
// readmits it).
func (t *remoteTier) reset() error {
	for i := range t.stats {
		t.stats[i].Store(0)
	}
	return t.seg.Flush()
}

// remoteSegment registers a tiered memo's single-word L2 segment.
func remoteSegment(c *Client, name string, cfg SegmentConfig) (*RemoteSegment, error) {
	cfg.OutWords = 1
	return c.Segment(name, cfg)
}

// NewTieredMemo registers the segment on the client's nodes and builds
// the two-level table. On a fleet, keys route by consistent hash, PUTs
// replicate, and reads fail over to the next ring node when the primary
// errors.
func NewTieredMemo(c *Client, cfg TieredMemoConfig) (*TieredMemo, error) {
	seg, err := remoteSegment(c, cfg.Name, cfg.Remote)
	if err != nil {
		return nil, err
	}
	return newTieredMemo(seg, cfg), nil
}

func newTieredMemo(seg remoteCache, cfg TieredMemoConfig) *TieredMemo {
	return &TieredMemo{
		l1: NewMemoTable(MemoTableConfig{
			Name:    cfg.Name + "/l1",
			Entries: cfg.L1Entries,
			LRU:     cfg.L1LRU,
			Shards:  cfg.L1Shards,
		}),
		remoteTier: remoteTier{seg: seg},
		seed:       maphash.MakeSeed(),
	}
}

// Do returns the value for key, from L1, then L2, then by running
// compute. A computed value is recorded in both tiers together with its
// measured cost C (unless the governor has bypassed the segment). Do
// never fails: remote errors are counted and absorbed by computing
// locally. Safe for concurrent use; concurrent misses on one key
// singleflight — one remote GET and at most one compute run however
// many callers pile onto the key — and the followers, which re-probe L1
// once the leader is done, count as L1 hits, since they are served from
// another caller's work.
func (t *TieredMemo) Do(key []byte, compute func() uint64) uint64 {
	// The root span of the request's trace. With tracing disabled (the
	// default) StartRoot is one atomic load returning an inert zero Span
	// and every method on it no-ops — the L1-hit path stays 0 allocs/op
	// (pinned by TestTieredMemoL1HitZeroAlloc).
	root := obs.StartRoot("tiered.do")
	t.stats[tsCalls].Add(1)
	if v, ok := t.l1.Lookup(key); ok {
		t.stats[tsL1Hits].Add(1)
		root.Outcome("l1_hit")
		root.End()
		return v
	}

	t.sfMu.Lock()
	fl, wait := t.flights.join(maphash.Bytes(t.seed, key))
	t.sfMu.Unlock()
	if wait != nil {
		// Another caller's flight holds the key: wait it out and
		// re-probe L1. A caller that still misses (the leader panicked,
		// or its value was evicted) takes the miss path without a
		// flight of its own.
		<-wait
		if v, ok := t.l1.Lookup(key); ok {
			t.stats[tsL1Hits].Add(1)
			root.Outcome("coalesced")
			root.End()
			return v
		}
	}
	v := t.miss(key, compute, fl, &root)
	root.End()
	return v
}

// miss is the slow path: the shared L2 leg (see remoteTier.leg), which
// stores the value in L1 and lands the caller's flight fl (nil when it
// has none) before any PUT. The landing is also deferred: compute is
// user code and may panic, and the panic propagates to the caller, as
// an un-memoized compute's would.
func (t *TieredMemo) miss(key []byte, compute func() uint64, fl *flight, root *obs.Span) uint64 {
	defer t.flights.release(&t.sfMu, fl)
	return t.leg(key, true, root, compute, func(v uint64, _ bool) []byte {
		t.l1.Store(key, v)
		t.flights.release(&t.sfMu, fl)
		return key
	})
}

// Stats returns a snapshot of the tier counters.
func (t *TieredMemo) Stats() TieredStats {
	return TieredStats{
		Calls:    t.stats[tsCalls].Load(),
		L1Hits:   t.stats[tsL1Hits].Load(),
		L2Hits:   t.stats[tsL2Hits].Load(),
		Computes: t.stats[tsComputes].Load(),
		Bypassed: t.stats[tsBypassed].Load(),
		Errors:   t.stats[tsErrors].Load(),
	}
}

// L1Stats returns the local table's counters.
func (t *TieredMemo) L1Stats() MemoStats { return t.l1.Stats() }

// RemoteStats fetches the shared segment's live server-side counters.
func (t *TieredMemo) RemoteStats() (RemoteStats, error) { return t.seg.Stats() }

// Reset drops both tiers: the local table is emptied in place and the
// server-side segment is flushed (which also readmits it).
func (t *TieredMemo) Reset() error {
	t.l1.Reset()
	return t.remoteTier.reset()
}
