package compreuse

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"compreuse/internal/obs"
	"compreuse/internal/wire"
)

// Ring metrics. The aggregate series are registered at init; the
// per-node series (up/down gauge, failover counter) are registered
// when DialCache first sees the address — registration is idempotent by
// name, so clients sharing an address share the series.
var (
	mPoolFailovers = obs.NewCounter("crc_pool_failovers_total",
		"fleet reads or writes re-routed away from a failed node")
	mPoolReplicaDrops = obs.NewCounter("crc_pool_replica_drops_total",
		"fire-and-forget replica writes dropped because the queue was full")
	mPoolNodesDown = obs.NewGauge("crc_pool_nodes_down",
		"fleet nodes currently marked down")
	mPoolRedials = obs.NewCounter("crc_pool_redial_attempts_total",
		"background redial attempts against nodes marked down")
)

func nodeUpGauge(addr string) *obs.Gauge {
	return obs.NewGauge(fmt.Sprintf("crc_pool_node_up{node=%q}", addr),
		"1 while the fleet node is dialed and serving, 0 while marked down")
}

func nodeFailoverCounter(addr string) *obs.Counter {
	return obs.NewCounter(fmt.Sprintf("crc_pool_node_failovers_total{node=%q}", addr),
		"calls re-routed away from this node because it errored or was down")
}

// Ring geometry and replica plumbing.
const (
	// virtualNodes is the number of ring points per node; more points
	// smooth the key distribution at the cost of a larger ring.
	virtualNodes = 64
	// replicaQueue bounds the fire-and-forget replica write queue; when
	// it is full further replica writes are dropped (and counted), never
	// blocked on.
	replicaQueue   = 1024
	replicaWorkers = 4
)

// ErrNodeDown is the per-node fast-fail error while a node is marked
// down and being re-dialed; callers never see it unless every ring node
// for a key is down at once.
var ErrNodeDown = errors.New("compreuse: fleet node is down")

// Client is the handle to the remote reuse tier: one consistent-hash
// ring over the crcserve nodes named by ClientConfig.Addr. A single
// address is a ring of one. Every (segment, key) pair maps to a primary
// node and an ordered list of fallbacks (the next distinct nodes on the
// ring), so all workers dialing the same address set agree on placement
// without coordination. Reads go to the primary and fall back along the
// ring on transport errors; writes go synchronously to the first live
// ring node and fire-and-forget to the next Replicas-1, so a node crash
// loses no acknowledged record that had a replica. A node that fails is
// marked down — subsequent calls skip it without a network timeout — and
// re-dialed in the background until it comes back (a restarted crcserve
// answers warm when it was started from a snapshot; see cmd/crcserve
// -snapshot). A Client is safe for concurrent use.
type Client struct {
	cfg      ClientConfig
	node     []*ringNode
	ring     []ringPoint // sorted by hash
	replicas int

	repCh   chan repWrite
	closed  atomic.Bool
	closeCh chan struct{}
	wg      sync.WaitGroup

	segMu sync.Mutex
	segs  map[string]*RemoteSegment
}

// ringPoint is one virtual node on the hash ring.
type ringPoint struct {
	hash uint64
	node int
}

// ringNode is one fleet member: its address, its live client (nil while
// down), and its failure counters.
type ringNode struct {
	addr string
	c    atomic.Pointer[nodeClient]

	// mu orders the liveness transitions: mark-down, redial and Close.
	mu        sync.Mutex
	down      atomic.Bool
	redialing bool
	// failovers counts calls re-routed away from this node because it
	// errored or was down.
	failovers atomic.Int64

	// up mirrors the node's liveness into the metrics registry; fo is
	// the per-node failover series. Liveness flips are cold-path, so up
	// is kept current unconditionally; fo increments are gated on
	// obs.On() like every other hot-path metric.
	up *obs.Gauge
	fo *obs.Counter
}

// repWrite is one queued fire-and-forget replica record.
type repWrite struct {
	node int
	seg  *RemoteSegment
	key  []byte
	vals []uint64
	cost time.Duration
}

// DialCache connects to every node named by cfg.Addr, dialing eagerly so
// a misconfigured address fails at startup, not mid-traffic. A node that
// dies later only degrades the client (failover and background redial);
// it never fails it.
func DialCache(cfg ClientConfig) (*Client, error) {
	addrs := cfg.addrs()
	if len(addrs) == 0 {
		return nil, errors.New("compreuse: ClientConfig.Addr is empty")
	}
	c := &Client{
		cfg:      cfg,
		replicas: cfg.replicas(len(addrs)),
		closeCh:  make(chan struct{}),
		segs:     map[string]*RemoteSegment{},
	}
	for i, addr := range addrs {
		nc, err := dialNode(addr, cfg)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("dial node %q: %w", addr, err)
		}
		n := &ringNode{addr: addr, up: nodeUpGauge(addr), fo: nodeFailoverCounter(addr)}
		n.c.Store(nc)
		n.up.Set(1)
		c.node = append(c.node, n)
		for v := 0; v < virtualNodes; v++ {
			c.ring = append(c.ring, ringPoint{hash: ringHash(addr, v), node: i})
		}
	}
	sort.Slice(c.ring, func(i, j int) bool { return c.ring[i].hash < c.ring[j].hash })
	if c.replicas > 1 {
		c.repCh = make(chan repWrite, replicaQueue)
		for i := 0; i < replicaWorkers; i++ {
			c.wg.Add(1)
			go c.replicaLoop()
		}
	}
	return c, nil
}

// Close tears down every node's connections and stops the background
// workers. In-flight calls fail with ErrClientClosed.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	close(c.closeCh)
	for _, n := range c.node {
		n.mu.Lock()
		if nc := n.c.Swap(nil); nc != nil {
			nc.close()
		}
		n.mu.Unlock()
	}
	c.wg.Wait()
	return nil
}

// RTT returns the smoothed round-trip estimate, averaged over the nodes
// currently dialed.
func (c *Client) RTT() time.Duration {
	var sum time.Duration
	live := 0
	for _, n := range c.node {
		if nc := n.c.Load(); nc != nil {
			sum += nc.rtt()
			live++
		}
	}
	if live == 0 {
		return 0
	}
	return sum / time.Duration(live)
}

// DownNodes returns the addresses currently marked down.
func (c *Client) DownNodes() []string {
	var out []string
	for _, n := range c.node {
		if n.down.Load() {
			out = append(out, n.addr)
		}
	}
	return out
}

// mix64 is the murmur3 finalizer: full avalanche over 64 bits. FNV-1a
// alone is not enough here — on short inputs that differ only in their
// trailing bytes (sequential keys, a node's vnode counter) its high
// bits barely change, so raw FNV values cluster in bands narrower than
// a ring arc and the "ring" degenerates to one node owning every key.
// The finalizer spreads those bands over the whole 64-bit circle.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// ringHash places one virtual node on the ring.
func ringHash(addr string, vnode int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	h.Write([]byte{'#'})
	h.Write([]byte(strconv.Itoa(vnode)))
	return mix64(h.Sum64())
}

// keyHash is the routing hash over (segment name, key bytes). The
// segment name participates so two segments' identical keys spread to
// different primaries, and the zero byte separates the fields so
// ("ab","c") and ("a","bc") cannot collide structurally.
func keyHash(seg string, key []byte) uint64 {
	h := fnv.New64a()
	h.Write([]byte(seg))
	h.Write([]byte{0})
	h.Write(key)
	return mix64(h.Sum64())
}

// route walks the ring clockwise from h and returns the first
// maxNodes distinct node indices: the primary first, then the
// replica/fallback order. The walk is deterministic in the address
// set, so every client routes identically.
func (c *Client) route(h uint64, maxNodes int, dst []int) []int {
	if maxNodes > len(c.node) {
		maxNodes = len(c.node)
	}
	start := sort.Search(len(c.ring), func(i int) bool { return c.ring[i].hash >= h })
	seen := 0
	for i := 0; i < len(c.ring) && seen < maxNodes; i++ {
		pt := c.ring[(start+i)%len(c.ring)]
		dup := false
		for _, d := range dst {
			if d == pt.node {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, pt.node)
			seen++
		}
	}
	return dst
}

// live returns the node's dialed client, or a transport error at once —
// a down node must cost a ring hop, not a dial timeout, and callers fall
// back along the ring exactly as they would for a freshly dead socket.
func (c *Client) live(n *ringNode) (*nodeClient, error) {
	if nc := n.c.Load(); nc != nil {
		return nc, nil
	}
	if c.closed.Load() {
		return nil, &transportError{ErrClientClosed}
	}
	return nil, &transportError{ErrNodeDown}
}

// markDown flags the node dead after a transport error, closes its
// client so every in-flight and future call on it fails fast, and
// starts the background redial if one is not already running. The
// closed check and the WaitGroup add share n.mu with Close, so no
// redial starts after Close has swept the nodes.
func (c *Client) markDown(n *ringNode) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if c.closed.Load() {
		return
	}
	if nc := n.c.Swap(nil); nc != nil {
		nc.close()
	}
	if !n.down.Swap(true) {
		// Liveness flips are rare; keep the gauges truthful even while
		// instrumentation is globally off, so enabling obs later shows
		// the fleet's actual state instead of a stale zero.
		n.up.Set(0)
		mPoolNodesDown.Add(1)
	}
	if !n.redialing {
		n.redialing = true
		c.wg.Add(1)
		go c.redial(n)
	}
}

// redial retries the node until it answers again, then swaps the fresh
// client in. Segment handles re-register lazily on first use (the new
// client's HELLO), so a node restarted from a snapshot resumes serving
// its warm table without any ring-level re-registration pass.
func (c *Client) redial(n *ringNode) {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.redialEvery())
	defer t.Stop()
	for {
		select {
		case <-c.closeCh:
			return
		case <-t.C:
		}
		mPoolRedials.Inc()
		nc, err := dialNode(n.addr, c.cfg)
		if err != nil {
			continue
		}
		n.mu.Lock()
		n.redialing = false
		if c.closed.Load() {
			// Close ran while this dial was in flight: it already
			// cleared the node and will not look again, so the fresh
			// client is this goroutine's to close.
			n.mu.Unlock()
			nc.close()
			return
		}
		n.c.Store(nc)
		n.down.Store(false)
		n.mu.Unlock()
		n.up.Set(1)
		mPoolNodesDown.Add(-1)
		return
	}
}

// replicaLoop drains the fire-and-forget replica queue. Errors are
// absorbed: a replica write is a durability bet, not an acknowledged
// record, and the primary copy already succeeded.
func (c *Client) replicaLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.closeCh:
			return
		case w := <-c.repCh:
			seg, err := w.seg.on(w.node)
			if err == nil {
				_, _, err = seg.rpc(wire.OpPut, w.key, w.vals, w.cost, obs.TraceCtx{})
			}
			if err != nil && isTransportErr(err) {
				c.markDown(c.node[w.node])
			}
		}
	}
}

// Segment registers (or re-attaches to) a named segment on every live
// node and returns its routed handle; handles are cached per name. The
// first client to register a name on a node fixes its geometry there. A
// down node registers lazily once it is redialed, so it does not block
// Segment; Segment fails only when no node accepts the segment.
func (c *Client) Segment(name string, cfg SegmentConfig) (*RemoteSegment, error) {
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	c.segMu.Lock()
	if s, ok := c.segs[name]; ok {
		c.segMu.Unlock()
		return s, nil
	}
	c.segMu.Unlock()

	if cfg.OutWords <= 0 {
		cfg.OutWords = 1
	}
	s := &RemoteSegment{c: c, name: name, cfg: cfg,
		nodes: make([]atomic.Pointer[nodeSegment], len(c.node))}
	live := 0
	lastErr := s.each(func(int, *nodeSegment) error {
		live++
		return nil
	})
	if live == 0 {
		return nil, fmt.Errorf("register segment %q: %w", name, lastErr)
	}
	c.segMu.Lock()
	if prior, ok := c.segs[name]; ok {
		s = prior
	} else {
		c.segs[name] = s
	}
	c.segMu.Unlock()
	return s, nil
}

// RemoteSegment is the routed handle to one named segment's shared
// table: consistent-hash routing, replicated writes and ring-fallback
// reads over the nodes' per-node handles. On a ring of one it routes
// without hashing and adds no span of its own.
type RemoteSegment struct {
	c    *Client
	name string
	cfg  SegmentConfig
	// nodes caches the segment's handle on each node, by node index. A
	// handle is used only while its client is the node's dialed one; a
	// redialed node re-registers on first use.
	nodes []atomic.Pointer[nodeSegment]

	// replicaDrops counts fire-and-forget replica writes dropped
	// because the queue was full.
	replicaDrops atomic.Int64
}

// on returns the segment's handle on node i, registering the segment
// with the node's current client when the cached handle is from an
// earlier one.
func (s *RemoteSegment) on(i int) (*nodeSegment, error) {
	nc, err := s.c.live(s.c.node[i])
	if err != nil {
		return nil, err
	}
	if seg := s.nodes[i].Load(); seg != nil && seg.c == nc {
		return seg, nil
	}
	seg, err := nc.segment(s.name, s.cfg)
	if err != nil {
		return nil, err
	}
	s.nodes[i].Store(seg)
	return seg, nil
}

// route returns the node indices for key in failover order: the
// primary, then its ring successors.
func (s *RemoteSegment) route(key []byte, dst []int) []int {
	if len(s.c.node) == 1 {
		return append(dst, 0)
	}
	return s.c.route(keyHash(s.name, key), len(s.c.node), dst)
}

// span opens the segment's own routing span on a fleet, annotated with
// the failover walk; a ring of one returns the inert zero Span and tr
// itself, so its per-node spans hang directly under the caller's.
func (s *RemoteSegment) span(tr obs.TraceCtx, name string) (obs.Span, obs.TraceCtx) {
	if len(s.c.node) == 1 {
		return obs.Span{}, tr
	}
	sp := obs.StartSpan(tr, name)
	return sp, sp.Context()
}

// Get probes the shared table; see GetTraced.
func (s *RemoteSegment) Get(key []byte) ([]uint64, GetStatus, error) {
	return s.GetTraced(key, obs.TraceCtx{})
}

// GetTraced probes the key's primary first, then — on transport errors
// only; a governor BYPASS or a plain miss is an answer — each fallback
// node along the ring. A dead primary therefore costs one failed round
// trip at most (nothing at all once it is marked down), and the
// replicas answer with the same data the PUT fanned out. Concurrent
// probes for one key share at most an MGET frame (the tiered memos
// coalesce their misses before they get here), and the returned slice
// is owned by the caller. When tr is sampled a fleet records a "pool.get"
// span whose hops annotation counts the failover walk, and the per-node
// probe (an "rpc.get" child) carries the trace id to whichever node
// answered.
func (s *RemoteSegment) GetTraced(key []byte, tr obs.TraceCtx) ([]uint64, GetStatus, error) {
	return s.walk(wire.OpGet, key, nil, 0, tr)
}

// Put records the outputs computed for key; see PutTraced.
func (s *RemoteSegment) Put(key []byte, vals []uint64, cost time.Duration) error {
	return s.PutTraced(key, vals, cost, obs.TraceCtx{})
}

// PutTraced records the outputs computed for key with the measured
// computation cost — the paper's C, which the server's governor weighs
// against its measured overhead O. Skip the Put after a Bypass status.
// The record goes synchronously to the first live ring node (normally
// the primary; writes re-route past a dead one) and fire-and-forget to
// the next Replicas-1, so a PUT costs one round trip and losing any one
// node still leaves a copy for its ring successor to serve. When tr is
// sampled a fleet records a "pool.put" span annotated with the failover
// hops, the replicas queued and any dropped on a full queue; the
// synchronous write carries the trace id to its node.
func (s *RemoteSegment) PutTraced(key []byte, vals []uint64, cost time.Duration, tr obs.TraceCtx) error {
	_, _, err := s.walk(wire.OpPut, key, vals, cost, tr)
	return err
}

// walk is the failover walk of a GET or PUT: the first node along the
// key's ring route that answers — anything but a transport error — takes
// the call, and every node that failed on the way is marked down and
// charged a failover. A protocol error is the request's problem, not the
// node's: it surfaces at once. A PUT that lands then fans out to its
// replicas.
func (s *RemoteSegment) walk(op wire.Op, key []byte, vals []uint64, cost time.Duration, tr obs.TraceCtx) ([]uint64, GetStatus, error) {
	name := "pool.get"
	if op == wire.OpPut {
		name = "pool.put"
	}
	sp, ctx := s.span(tr, name)
	var scratch [8]int
	nodes := s.route(key, scratch[:0])
	var lastErr error
	for i, ni := range nodes {
		seg, err := s.on(ni)
		if err == nil {
			var out []uint64
			var status GetStatus
			if out, status, err = seg.rpc(op, key, vals, cost, ctx); err == nil {
				s.countFailover(nodes[:i])
				sp.Annotate("hops", int64(i))
				outcome := status.String()
				if op == wire.OpPut {
					s.replicate(&sp, nodes[i+1:], key, vals, cost)
					outcome = "ok"
				}
				sp.Outcome(outcome)
				sp.End()
				return out, status, nil
			}
		}
		lastErr = err
		if !isTransportErr(err) {
			sp.Annotate("hops", int64(i))
			sp.Outcome("proto_err")
			sp.End()
			return nil, Miss, err
		}
		s.c.markDown(s.c.node[ni])
	}
	s.countFailover(nodes)
	sp.Annotate("hops", int64(len(nodes)))
	sp.Outcome("all_down")
	sp.End()
	return nil, Miss, lastErr
}

// replicate queues a landed PUT's copies for the ring successors of the
// node that took it (rest), up to Replicas total, and annotates sp with
// the replicas queued and dropped. Fire-and-forget: the queue is bounded
// and never blocks the caller; an overflowing fleet drops replicas
// (counted) rather than stalling the hot path.
func (s *RemoteSegment) replicate(sp *obs.Span, rest []int, key []byte, vals []uint64, cost time.Duration) {
	queued, dropped := int64(0), int64(0)
	for _, ni := range rest[:min(s.c.replicas-1, len(rest))] {
		w := repWrite{
			node: ni,
			seg:  s,
			key:  append([]byte(nil), key...),
			vals: append([]uint64(nil), vals...),
			cost: cost,
		}
		select {
		case s.c.repCh <- w:
			queued++
		default:
			dropped++
			s.replicaDrops.Add(1)
			if obs.On() {
				mPoolReplicaDrops.Inc()
			}
		}
	}
	sp.Annotate("replicas", queued)
	if dropped > 0 {
		sp.Annotate("replica_drops", dropped)
	}
}

// countFailover charges one failover to each node that was skipped.
func (s *RemoteSegment) countFailover(skipped []int) {
	for _, ni := range skipped {
		n := s.c.node[ni]
		n.failovers.Add(1)
		if obs.On() {
			mPoolFailovers.Inc()
			n.fo.Inc()
		}
	}
}

// each runs fn on the segment's handle on every node, in Addr order, and
// returns the last error. A node whose handle or call fails with a
// transport error is marked down.
func (s *RemoteSegment) each(fn func(i int, seg *nodeSegment) error) error {
	var lastErr error
	for i, n := range s.c.node {
		seg, err := s.on(i)
		if err == nil {
			err = fn(i, seg)
		}
		if err != nil {
			lastErr = err
			if isTransportErr(err) {
				s.c.markDown(n)
			}
		}
	}
	return lastErr
}

// Flush empties the segment on every live node and resets its
// admission state there.
func (s *RemoteSegment) Flush() error {
	return s.each(func(_ int, seg *nodeSegment) error { return seg.flush() })
}

// Stats fetches the segment's live server-side statistics, aggregated
// across live nodes: counter fields sum, the governor estimates R, C and
// O are probe-weighted averages, and BypassedNow is true when any node's
// governor has the segment bypassed. Down nodes contribute nothing
// (their state is whatever their snapshot will restore); a single live
// node's statistics are returned as the node reported them.
func (s *RemoteSegment) Stats() (RemoteStats, error) {
	var sum, one RemoteStats
	var rWeighted, cWeighted, oWeighted float64
	live := 0
	lastErr := s.each(func(_ int, seg *nodeSegment) error {
		st, err := seg.stats()
		if err != nil {
			return err
		}
		live++
		one = st
		sum.Probes += st.Probes
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Records += st.Records
		sum.Distinct += st.Distinct
		sum.Resident += st.Resident
		sum.Bypassed += st.Bypassed
		sum.BypassedNow = sum.BypassedNow || st.BypassedNow
		w := float64(max(st.Probes, 1))
		rWeighted += w * st.R
		cWeighted += w * float64(st.C)
		oWeighted += w * float64(st.O)
		return nil
	})
	switch live {
	case 0:
		return RemoteStats{}, lastErr
	case 1:
		return one, nil
	}
	totalW := float64(sum.Probes)
	if totalW == 0 {
		totalW = float64(live)
	}
	sum.R = rWeighted / totalW
	sum.C = time.Duration(cWeighted / totalW)
	sum.O = time.Duration(oWeighted / totalW)
	return sum, nil
}

// NodeStats is one node's view of a segment plus the client-side
// failure counters for that node.
type NodeStats struct {
	// Addr is the node's address.
	Addr string
	// Down reports whether the node is currently marked down.
	Down bool
	// Failovers counts calls re-routed away from this node.
	Failovers int64
	// Stats is the node's server-side view of the segment; zero while
	// the node is down or unreachable.
	Stats RemoteStats
}

// HitRate returns the node's segment hit rate, or 0 when never probed.
func (s NodeStats) HitRate() float64 {
	if s.Stats.Probes == 0 {
		return 0
	}
	return float64(s.Stats.Hits) / float64(s.Stats.Probes)
}

// NodeStats returns the per-node segment statistics in Addr order —
// the fleet loadgen's per-node hit-rate and failover report.
func (s *RemoteSegment) NodeStats() []NodeStats {
	out := make([]NodeStats, len(s.c.node))
	s.each(func(i int, seg *nodeSegment) (err error) {
		out[i].Stats, err = seg.stats()
		return err
	})
	// Read liveness after the stats calls, so a node one of them marked
	// down reports as down.
	for i, n := range s.c.node {
		out[i].Addr = n.addr
		out[i].Down = n.down.Load()
		out[i].Failovers = n.failovers.Load()
	}
	return out
}

// ReplicaDrops returns how many fire-and-forget replica writes were
// dropped on the floor because the replica queue was full.
func (s *RemoteSegment) ReplicaDrops() int64 { return s.replicaDrops.Load() }
