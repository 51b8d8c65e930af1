package compreuse

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"compreuse/internal/obs"
	"compreuse/internal/wire"
)

// Client metrics (live when obs is enabled, like everything else).
var (
	mRemoteRTT = obs.NewHistogram("crc_remote_rtt_ns",
		"remote reuse-cache round-trip latency in nanoseconds", obs.LatencyBuckets)
	mRemoteCalls = obs.NewCounter("crc_remote_calls_total",
		"requests sent to the remote reuse cache")
	mRemoteErrors = obs.NewCounter("crc_remote_errors_total",
		"remote reuse-cache requests that failed")
)

// ClientConfig configures a Client: the crcserve nodes it routes over
// and the connections it keeps to each.
type ClientConfig struct {
	// Addr names the crcserve node, or a comma-separated list of nodes
	// for a fleet. Each element is a TCP host:port, e.g. "cache:8345",
	// or a unix-domain socket path with the "unix://" scheme, e.g.
	// "unix:///run/crcserve.sock" (see ParseAddr). The unix transport
	// skips the loopback TCP stack for co-located fleets, shrinking the
	// round-trip share of the lookup overhead O. Order is irrelevant:
	// placement comes from the consistent-hash ring, so every Client
	// dialing the same set routes identically.
	Addr string
	// Replicas is the number of copies of each record, primary included.
	// PUTs go synchronously to the primary and fire-and-forget to the
	// next Replicas-1 ring nodes; GETs fall back along the same walk.
	// 0 means 2; clamped to the node count.
	Replicas int
	// RedialEvery is the retry period for re-dialing a node that was
	// marked down. 0 means 1s.
	RedialEvery time.Duration
	// Conns is the connection-pool size per node; requests round-robin
	// across it. It also bounds the GET frames, and separately the PUT
	// frames, one segment has in the air; calls beyond it queue and
	// leave together as one MGET/MPUT. 0 means 2.
	Conns int
	// DialTimeout bounds connection establishment. 0 means 5s.
	DialTimeout time.Duration
}

// addrs splits Addr into its node addresses, dropping empty elements.
func (c ClientConfig) addrs() []string {
	var out []string
	for _, a := range strings.Split(c.Addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func (c ClientConfig) replicas(nodes int) int {
	r := c.Replicas
	if r <= 0 {
		r = 2
	}
	return min(r, nodes)
}

func (c ClientConfig) redialEvery() time.Duration {
	if c.RedialEvery <= 0 {
		return time.Second
	}
	return c.RedialEvery
}

func (c ClientConfig) conns() int {
	if c.Conns <= 0 {
		return 2
	}
	return c.Conns
}

func (c ClientConfig) dialTimeout() time.Duration {
	if c.DialTimeout <= 0 {
		return 5 * time.Second
	}
	return c.DialTimeout
}

// nodeClient talks to one crcserve node over the internal/wire
// protocol. It is safe for concurrent use: requests are pipelined over
// a small pool of connections (many callers share one in-flight window
// per connection, matched back by sequence number), and every response
// round-trip feeds a smoothed RTT estimate that is reported to the
// server — the server folds it into the lookup overhead O of its
// formula-3 admission governor. It does not deduplicate GETs: the
// tiered memos coalesce misses above it, and concurrent GETs that find
// every connection busy share one MGET frame (see flights).
type nodeClient struct {
	conns []*clientConn
	next  atomic.Uint64

	// rttNS is the smoothed round-trip estimate, EWMA weight 1/8.
	rttNS atomic.Int64

	closed atomic.Bool
}

// dialNode connects to the crcserve node at addr, establishing the whole
// connection pool eagerly so a misconfigured address fails at startup,
// not mid-traffic.
func dialNode(addr string, cfg ClientConfig) (*nodeClient, error) {
	c := &nodeClient{}
	for i := 0; i < cfg.conns(); i++ {
		cc, err := dialConn(addr, cfg)
		if err != nil {
			c.close()
			return nil, err
		}
		c.conns = append(c.conns, cc)
	}
	return c, nil
}

// close tears down the connection pool. In-flight calls fail with
// ErrClientClosed.
func (c *nodeClient) close() {
	if c.closed.Swap(true) {
		return
	}
	for _, cc := range c.conns {
		cc.close(ErrClientClosed)
	}
}

// ErrClientClosed is returned by calls on a closed Client.
var ErrClientClosed = errors.New("compreuse: reuse-cache client closed")

// transportError wraps a failure of the connection itself — a dead
// socket, a closed client, an encode/decode error — as opposed to a
// per-request protocol error (FlagErr) the server answered with. The
// ring uses the distinction to decide whether a node is down (fail
// over and redial) or merely rejected one request.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// isTransportErr reports whether err (anywhere in its chain) is a
// connection-level failure rather than a server-answered protocol error.
func isTransportErr(err error) bool {
	var te *transportError
	return errors.As(err, &te)
}

// rtt returns the smoothed round-trip estimate to the node.
func (c *nodeClient) rtt() time.Duration { return time.Duration(c.rttNS.Load()) }

// observeRTT folds one measured round-trip into the estimate, tagging
// the RTT histogram's exemplar with the request's trace id (0 =
// untraced) so a p99 spike points at a concrete trace. The
// load/compute/store is a CAS loop: a plain store would silently drop
// concurrent observations, and this estimate is what the server charges
// as the network half of overhead O — a lossy EWMA would bias the
// governor's formula-3 arithmetic under parallel callers.
func (c *nodeClient) observeRTT(d time.Duration, tid uint64) {
	ns := d.Nanoseconds()
	if obs.On() {
		mRemoteRTT.ObserveTraced(ns, tid)
	}
	for {
		old := c.rttNS.Load()
		next := ns
		if old != 0 {
			next = old + (ns-old)/8
		}
		if c.rttNS.CompareAndSwap(old, next) {
			return
		}
	}
}

// call sends one request over a pooled connection and waits for its
// response frame.
func (c *nodeClient) call(req *wire.Frame) (wire.Frame, error) {
	if c.closed.Load() {
		return wire.Frame{}, &transportError{ErrClientClosed}
	}
	if obs.On() {
		mRemoteCalls.Inc()
	}
	cc := c.conns[c.next.Add(1)%uint64(len(c.conns))]
	start := time.Now()
	resp, err := cc.roundTrip(req)
	if err != nil {
		if obs.On() {
			mRemoteErrors.Inc()
		}
		return wire.Frame{}, &transportError{err}
	}
	c.observeRTT(time.Since(start), req.TraceID)
	if e := resp.Err(); e != nil {
		return wire.Frame{}, e
	}
	return resp, nil
}

// SegmentConfig describes the shared table a segment wants on the
// server. The first client to register a name fixes the geometry;
// later registrations share the existing table as-is.
type SegmentConfig struct {
	// Entries bounds the server-side table (0 = unbounded). A server
	// preallocates bounded tables and refuses a new segment whose
	// entries would take the total of all its segments past 2^20.
	Entries int
	// LRU selects associative LRU replacement over direct addressing.
	LRU bool
	// OutWords is the output width in 64-bit words (0 = 1).
	OutWords int
}

// nodeSegment is one node's handle to a named segment's shared table.
type nodeSegment struct {
	c    *nodeClient
	id   uint32
	name string
	// bypassed caches the server's last admission verdict so a
	// bypassed segment does not pay a round trip per call; every
	// bypassRecheck-th Get goes to the server anyway to notice
	// readmission.
	bypassed atomic.Bool
	sinceByp atomic.Int64

	// gets and puts are independent (a GET flight does not delay PUTs).
	gets, puts flights
}

// flights bounds one direction's frames in the air for a segment to one
// per node connection. A call that finds a slot free flies at once on
// its caller's goroutine; one that finds every slot taken queues, and
// the next flight to land carries the whole queue as one MGET/MPUT, so
// n calls queued during a round trip cost one more round trip, not n.
type flights struct {
	mu     sync.Mutex
	q      []*queuedCall
	flying int
}

// queuedCall is one GET or PUT waiting for a flight.
type queuedCall struct {
	key      []byte
	vals     []uint64      // PUT: the outputs to record; GET: a hit's outputs
	cost     time.Duration // PUT: the measured computation cost
	tid      uint64        // trace id to stamp on the frame (0 = untraced)
	queuedAt time.Time     // traced calls only
	done     chan struct{}
	status   GetStatus
	err      error
	// A traced call's span reports these: the wait from queueing to
	// takeoff, and the items in the frame that carried the call.
	queued time.Duration
	batch  int
}

// enter takes a free flight slot and returns nil, or, when max flights
// are already in the air, queues a call and returns it to wait on.
func (f *flights) enter(max int, key []byte, vals []uint64, cost time.Duration, tid uint64) *queuedCall {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.flying < max {
		f.flying++
		return nil
	}
	qc := &queuedCall{key: key, vals: vals, cost: cost, tid: tid, done: make(chan struct{})}
	if tid != 0 {
		qc.queuedAt = time.Now()
	}
	f.q = append(f.q, qc)
	return qc
}

// land ends one flight. It returns the calls that queued while it flew,
// keeping the flight's slot for them, or frees the slot when none did.
func (f *flights) land() []*queuedCall {
	f.mu.Lock()
	defer f.mu.Unlock()
	batch := f.q
	f.q = nil
	if len(batch) == 0 {
		f.flying--
	}
	return batch
}

// takeoff stamps a batch's traced calls with their queue wait and frame
// size, and returns the trace id the frame carries: the first traced
// member wins (one frame can only carry one id; the others' spans still
// record client-side, they just aren't stitched to this server
// execution).
func takeoff(batch []*queuedCall) uint64 {
	var now time.Time
	var tid uint64
	for _, qc := range batch {
		if qc.tid == 0 {
			continue
		}
		if tid == 0 {
			now, tid = time.Now(), qc.tid
		}
		qc.queued, qc.batch = now.Sub(qc.queuedAt), len(batch)
	}
	return tid
}

// annotate puts a call's queue wait and frame size on its rpc span.
func annotate(sp *obs.Span, queued time.Duration, batch int) {
	sp.Annotate("queued_ns", queued.Nanoseconds())
	sp.Annotate("batch", int64(batch))
}

// bypassRecheck is how many locally short-circuited calls a bypassed
// segment makes between probes that check for readmission.
const bypassRecheck = 64

// segment registers (or re-attaches to) a named segment on the node and
// returns a handle to it; RemoteSegment caches the handle per node.
// cfg.OutWords is already defaulted by Client.Segment.
func (c *nodeClient) segment(name string, cfg SegmentConfig) (*nodeSegment, error) {
	req := &wire.Frame{Op: wire.OpHello, Name: name,
		Vals: []uint64{uint64(cfg.Entries), b2u(cfg.LRU), uint64(cfg.OutWords)}}
	resp, err := c.call(req)
	if err != nil {
		return nil, err
	}
	return &nodeSegment{c: c, id: resp.Seg, name: name}, nil
}

// GetStatus classifies a remote probe's outcome.
type GetStatus int

// Get outcomes.
const (
	// Miss: the shared table has no value; compute and Put.
	Miss GetStatus = iota
	// Hit: the value came from the shared table.
	Hit
	// Bypass: the admission governor turned the segment off; compute
	// locally and skip the Put.
	Bypass
)

func (s GetStatus) String() string {
	switch s {
	case Hit:
		return "hit"
	case Bypass:
		return "bypass"
	default:
		return "miss"
	}
}

// rpc flies one GET (op wire.OpGet) or PUT (wire.OpPut) of key on the
// node and returns a GET's status and, on a hit, its outputs, owned by
// the caller. A PUT records vals with the measured computation cost.
// Both directions fly alike: a known-bypassed segment short-circuits
// (every bypassRecheck-th call, GET or PUT, goes to the server anyway,
// so readmission is noticed even when the traffic is all PUTs); a call
// that finds a connection slot free flies inline from its caller's
// goroutine; one that finds every slot taken queues and rides in the
// MGET or MPUT of the next flight to land, each record carrying its own
// cost. Concurrent GETs are not deduplicated by key (see nodeClient).
// When tr is sampled the call records an "rpc.get" or "rpc.put" span
// and stamps the trace id onto the wire frame (wire.FlagTraced), so the
// serving node's span stitches into the same trace; an unsampled
// context costs two branches.
func (s *nodeSegment) rpc(op wire.Op, key []byte, vals []uint64, cost time.Duration, tr obs.TraceCtx) ([]uint64, GetStatus, error) {
	name := "rpc.get"
	if op == wire.OpPut {
		name = "rpc.put"
	}
	sp := obs.StartSpan(tr, name)
	vals, status, err := s.fly(op, key, vals, cost, &sp)
	switch {
	case err != nil:
		sp.Outcome("err")
	case op == wire.OpPut:
		sp.Outcome("ok")
	default:
		sp.Outcome(status.String())
	}
	sp.End()
	return vals, status, err
}

// fly is rpc's flight path, annotating sp with the call's queue wait
// and frame size.
func (s *nodeSegment) fly(op wire.Op, key []byte, vals []uint64, cost time.Duration, sp *obs.Span) ([]uint64, GetStatus, error) {
	if s.bypassed.Load() && s.sinceByp.Add(1)%bypassRecheck != 0 {
		return nil, Bypass, nil // the governor said stop; don't pay the round trip
	}
	fl := s.lane(op)
	tid := sp.TraceID()
	qc := fl.enter(len(s.c.conns), key, vals, cost, tid)
	if qc == nil {
		annotate(sp, 0, 1)
		vals, status, err := s.one(op, key, vals, cost, tid)
		// Calls that queued behind this one leave at once, from a flight
		// loop of their own: the caller does not wait out their round
		// trip.
		if batch := fl.land(); batch != nil {
			go s.drain(op, batch)
		}
		return vals, status, err
	}
	<-qc.done
	annotate(sp, qc.queued, qc.batch)
	return qc.vals, qc.status, qc.err
}

// lane returns op's flights: GETs and PUTs are independent (a GET flight
// does not delay PUTs).
func (s *nodeSegment) lane(op wire.Op) *flights {
	if op == wire.OpPut {
		return &s.puts
	}
	return &s.gets
}

// drain flies batch and then every batch that queued behind it, until a
// landing finds the queue empty and frees the slot.
func (s *nodeSegment) drain(op wire.Op, batch []*queuedCall) {
	for ; batch != nil; batch = s.lane(op).land() {
		s.flyBatch(op, batch)
		for _, qc := range batch {
			close(qc.done)
		}
	}
}

// flyBatch flies a queued batch: a batch of one as a plain GET or PUT
// (identical wire cost to an inline call), larger batches as one MGET or
// MPUT.
func (s *nodeSegment) flyBatch(op wire.Op, batch []*queuedCall) {
	tid := takeoff(batch)
	if len(batch) == 1 {
		qc := batch[0]
		qc.vals, qc.status, qc.err = s.one(op, qc.key, qc.vals, qc.cost, tid)
		return
	}
	req := &wire.Frame{Op: wire.OpMGet, Seg: s.id, Items: make([]wire.Item, len(batch))}
	if op == wire.OpPut {
		req.Op = wire.OpMPut
	} else {
		req.Cost = uint64(s.c.rttNS.Load())
	}
	req.SetTrace(tid)
	for i, qc := range batch {
		req.Items[i].Key = qc.key
		if op == wire.OpPut {
			req.Items[i].Vals, req.Items[i].Cost = qc.vals, uint64(qc.cost.Nanoseconds())
		}
	}
	resp, err := s.c.call(req)
	var status GetStatus
	if err == nil {
		status = s.verdict(resp.Flags)
		if op == wire.OpGet && status == Miss && len(resp.Items) != len(batch) {
			err = fmt.Errorf("mget %q: %d response items, want %d",
				s.name, len(resp.Items), len(batch))
		}
	}
	for i, qc := range batch {
		qc.status, qc.err = status, err
		// The response frame is owned by this flight (the read loop
		// decodes each response into a fresh frame), so items hand their
		// Vals over without a copy.
		if op == wire.OpGet && status == Miss && err == nil && resp.Items[i].Flags&wire.FlagHit != 0 {
			qc.status, qc.vals = Hit, resp.Items[i].Vals
		}
	}
}

// one is the single-call wire exchange: a plain GET, whose Cost carries
// the smoothed RTT (the server's overhead O), or a plain PUT, whose Cost
// carries the measured computation cost C.
func (s *nodeSegment) one(op wire.Op, key []byte, vals []uint64, cost time.Duration, tid uint64) ([]uint64, GetStatus, error) {
	req := &wire.Frame{Op: op, Seg: s.id, Key: key, Vals: vals, Cost: uint64(cost.Nanoseconds())}
	if op == wire.OpGet {
		req.Cost = uint64(s.c.rttNS.Load())
	}
	req.SetTrace(tid)
	resp, err := s.c.call(req)
	if err != nil {
		return nil, Miss, err
	}
	status := s.verdict(resp.Flags)
	if status != Hit {
		return nil, status, nil
	}
	return resp.Vals, Hit, nil
}

// verdict reads a GET or PUT response's flags and tracks the admission
// verdict both ways: a BYPASS answer arms the local short-circuit, and
// any other answer clears a stale one (the server has readmitted the
// segment).
func (s *nodeSegment) verdict(flags uint8) GetStatus {
	switch {
	case flags&wire.FlagBypass != 0:
		s.bypassed.Store(true)
		return Bypass
	case flags&wire.FlagHit != 0:
		s.bypassed.Store(false)
		return Hit
	default:
		s.bypassed.Store(false)
		return Miss
	}
}

// flush empties the segment's table on the node and resets its
// admission state.
func (s *nodeSegment) flush() error {
	_, err := s.c.call(&wire.Frame{Op: wire.OpFlush, Seg: s.id})
	if err == nil {
		s.bypassed.Store(false)
	}
	return err
}

// RemoteStats is a snapshot of a segment's server-side counters and
// governor estimates.
type RemoteStats struct {
	Probes, Hits, Misses, Records int64
	Distinct, Resident            int64 // Distinct: keys stored since the last flush, Resident plus evictions
	Bypassed                      int64 // requests answered with FlagBypass
	BypassedNow                   bool  // current governor state
	R                             float64
	C, O                          time.Duration
}

// stats fetches the segment's live statistics from the node.
func (s *nodeSegment) stats() (RemoteStats, error) {
	resp, err := s.c.call(&wire.Frame{Op: wire.OpStats, Seg: s.id})
	if err != nil {
		return RemoteStats{}, err
	}
	if len(resp.Vals) < wire.StatsLen {
		return RemoteStats{}, fmt.Errorf("stats: short response (%d vals)", len(resp.Vals))
	}
	v := resp.Vals
	return RemoteStats{
		Probes:      int64(v[wire.StatsProbes]),
		Hits:        int64(v[wire.StatsHits]),
		Misses:      int64(v[wire.StatsMisses]),
		Records:     int64(v[wire.StatsRecords]),
		Distinct:    int64(v[wire.StatsDistinct]),
		Resident:    int64(v[wire.StatsResident]),
		Bypassed:    int64(v[wire.StatsBypassed]),
		BypassedNow: v[wire.StatsState] != 0,
		R:           float64(v[wire.StatsR]) / 1e6,
		C:           time.Duration(v[wire.StatsC]),
		O:           time.Duration(v[wire.StatsO]),
	}, nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// clientConn is one pooled connection. Callers write their own request
// frames, one at a time under wmu; a reader goroutine matches responses
// back to waiters by sequence number. The reader always drains the
// socket, so a server blocked writing responses never deadlocks against
// a caller blocked writing a request. Nothing caps the pending window
// here: each segment's flights keep at most Conns GETs and Conns PUTs
// of its own in the air across the node's pool, and every other request
// (HELLO, STATS, FLUSH) blocks its own caller until it is answered.
type clientConn struct {
	nc net.Conn

	wmu sync.Mutex // serializes request frames onto nc
	w   *wire.Writer

	mu      sync.Mutex
	pending map[uint64]chan wire.Frame
	err     error
	seq     uint64
}

// ParseAddr splits a crcserve address into the network and address
// arguments of net.Dial/net.Listen: "unix://<path>" selects a
// unix-domain socket at <path>, anything else is TCP.
func ParseAddr(addr string) (network, address string) {
	if path, ok := strings.CutPrefix(addr, "unix://"); ok {
		return "unix", path
	}
	return "tcp", addr
}

func dialConn(addr string, cfg ClientConfig) (*clientConn, error) {
	network, address := ParseAddr(addr)
	nc, err := net.DialTimeout(network, address, cfg.dialTimeout())
	if err != nil {
		return nil, err
	}
	cc := &clientConn{
		nc:      nc,
		w:       wire.NewWriter(nc),
		pending: map[uint64]chan wire.Frame{},
	}
	go cc.readLoop()
	return cc, nil
}

// replies pools the one-slot channels that carry a response to its
// waiter. A channel returns to the pool only after it delivered its one
// response: close shuts the channels of failed calls, and those are
// dropped.
var replies = sync.Pool{New: func() any { return make(chan wire.Frame, 1) }}

// roundTrip writes one request on the caller's goroutine and blocks for
// its response. The waiter is registered before the write because the
// response can arrive before Write returns. A failed write closes the
// connection, which fails this call along with every other pending one.
func (cc *clientConn) roundTrip(req *wire.Frame) (wire.Frame, error) {
	ch := replies.Get().(chan wire.Frame)
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		replies.Put(ch)
		return wire.Frame{}, err
	}
	cc.seq++
	req.Seq = cc.seq
	cc.pending[req.Seq] = ch
	cc.mu.Unlock()

	cc.wmu.Lock()
	err := cc.w.Write(req)
	cc.wmu.Unlock()
	if err != nil {
		cc.close(err)
	}
	resp, ok := <-ch
	if !ok {
		cc.mu.Lock()
		err := cc.err
		cc.mu.Unlock()
		return wire.Frame{}, err
	}
	replies.Put(ch)
	return resp, nil
}

// readLoop decodes responses and hands each to its waiter.
func (cc *clientConn) readLoop() {
	r := wire.NewReader(bufio.NewReaderSize(cc.nc, 64<<10))
	for {
		var f wire.Frame
		if err := r.Next(&f); err != nil {
			cc.close(err)
			return
		}
		cc.mu.Lock()
		ch, ok := cc.pending[f.Seq]
		delete(cc.pending, f.Seq)
		cc.mu.Unlock()
		if ok {
			ch <- f
		}
	}
}

// close fails every pending and future call with err: the stored error
// gates new round trips, and closing each pending channel fails the
// waiters.
func (cc *clientConn) close(err error) {
	cc.mu.Lock()
	if cc.err == nil {
		cc.err = err
		cc.nc.Close()
		for seq, ch := range cc.pending {
			close(ch)
			delete(cc.pending, seq)
		}
	}
	cc.mu.Unlock()
}
