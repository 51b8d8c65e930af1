package reused

import (
	"bufio"
	"net"
	"time"

	"compreuse/internal/obs"
	"compreuse/internal/wire"
)

// connBufBytes sizes the per-connection read and write buffers: large
// enough that a deep pipeline of small frames coalesces into few
// syscalls.
const connBufBytes = 64 << 10

// conn is one client connection, served by one goroutine that reads,
// executes and answers each request frame in turn.
type conn struct {
	srv *Server
	nc  net.Conn
}

// beginDrain puts the connection into drain mode: requests already
// written by the client keep being read, executed and answered until
// deadline, after which the blocked read returns and the connection
// winds down through the normal flush-then-close path — so no response
// to an accepted request is ever dropped.
func (c *conn) beginDrain(deadline time.Time) {
	c.nc.SetReadDeadline(deadline)
}

// run owns the connection's lifecycle. Responses are buffered and
// flushed whenever the read buffer holds no further request, so the
// answers to a pipelined burst leave in one write while a lone request
// is answered at once. A client that stops reading stalls only its own
// connection: the flush blocks, and so does reading its next request.
// run returns (and unregisters the connection) after flushing every
// response it wrote.
func (c *conn) run() {
	br := bufio.NewReaderSize(c.nc, connBufBytes)
	r := wire.NewReader(br)
	bw := bufio.NewWriterSize(c.nc, connBufBytes)
	w := wire.NewWriter(bw)
	// The frame's buffers are re-lent by NextReused for the next request:
	// processing copies whatever it keeps (the table records copies of
	// key and outputs), and each response is encoded before the next read.
	var f wire.Frame
	for {
		if err := r.NextReused(&f); err != nil {
			// Clean EOF, drain deadline, protocol garbage: all end the
			// connection once the responses already written are flushed.
			break
		}
		// Adopt the trace a FlagTraced frame carries: the server span
		// lands in this process's ring under the client's trace id, so a
		// /traces scrape stitches the request across the wire. Untraced
		// frames (TraceID 0) skip all span work.
		op := f.Op
		sp := obs.StartServerSpan(f.TraceID, serverSpanName(op))
		c.srv.process(&f, &sp)
		sp.Outcome(flagOutcome(op, f.Flags))
		sp.End()
		if err := w.Write(&f); err != nil {
			break
		}
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				break
			}
		}
	}
	bw.Flush()
	r.Release()
	c.nc.Close()
	c.srv.removeConn(c)
}

// serverSpanName names the server-side span of a traced request; one
// static string per op keeps the enabled tracing path allocation-free.
func serverSpanName(op wire.Op) string {
	switch op {
	case wire.OpGet:
		return "srv.get"
	case wire.OpPut:
		return "srv.put"
	case wire.OpMGet:
		return "srv.mget"
	case wire.OpMPut:
		return "srv.mput"
	case wire.OpHello:
		return "srv.hello"
	case wire.OpFlush:
		return "srv.flush"
	case wire.OpStats:
		return "srv.stats"
	default:
		return "srv.op"
	}
}

// flagOutcome classifies a processed frame's response flags as the
// server span's outcome. A GET/MGET response with no flags is a miss;
// other flag-less responses are plain acknowledgements.
func flagOutcome(op wire.Op, flags uint8) string {
	switch {
	case flags&wire.FlagErr != 0:
		return "err"
	case flags&wire.FlagBypass != 0:
		return "bypass"
	case flags&wire.FlagHit != 0:
		return "hit"
	case op == wire.OpGet || op == wire.OpMGet:
		return "miss"
	default:
		return "ok"
	}
}

// process executes one request frame in place, turning it into its
// response. The frame's Seq survives untouched, which is all the
// pipelining contract needs. sp is the request's server span (inert
// for untraced frames); the probe paths annotate it with where the
// server's time went.
func (s *Server) process(f *wire.Frame, sp *obs.Span) {
	instrumented := obs.On()
	if instrumented {
		opCounter(f.Op).Inc()
	}
	switch f.Op {
	case wire.OpHello:
		s.processHello(f)
	case wire.OpGet, wire.OpMGet:
		s.processGet(f, instrumented, sp)
	case wire.OpPut, wire.OpMPut:
		s.processPut(f, instrumented)
	case wire.OpFlush, wire.OpStats:
		seg, ok := s.segmentByID(f.Seg)
		if !ok {
			fail(f, "unknown segment id")
			return
		}
		if f.Op == wire.OpFlush {
			seg.tab.Reset()
			seg.gov.reset()
			respond(f, 0)
		} else {
			s.processStats(f, seg)
		}
	default:
		fail(f, "unsupported op")
	}
}

func (s *Server) processHello(f *wire.Frame) {
	var entries, lru, outWords uint64
	if len(f.Vals) > 0 {
		entries = f.Vals[0]
	}
	if len(f.Vals) > 1 {
		lru = f.Vals[1]
	}
	if len(f.Vals) > 2 {
		outWords = f.Vals[2]
	}
	seg, err := s.segmentFor(f.Name, int(entries), lru != 0, int(outWords))
	if err != nil {
		fail(f, err.Error())
		return
	}
	f.Seg = seg.id
	cfg := seg.tab.Config()
	respond(f, 0)
	f.Vals = append(f.Vals[:0], uint64(cfg.Entries), b2u(cfg.LRU), uint64(seg.outWords))
}

// admit is the prologue every GET, PUT, MGET and MPUT shares: it finds
// the segment, refuses an empty batch, observes a probe's client-reported
// RTT, and answers BYPASS while the governor has the segment off. It
// returns nil when f already holds its answer.
func (s *Server) admit(f *wire.Frame, instrumented bool) *segment {
	seg, ok := s.segmentByID(f.Seg)
	if !ok {
		fail(f, "unknown segment id")
		return nil
	}
	if f.Op.Batch() && len(f.Items) == 0 {
		fail(f, "empty batch")
		return nil
	}
	// A probe's Cost is the client's round-trip estimate; a record's is
	// the measured computation cost C.
	if instrumented && f.Cost > 0 && (f.Op == wire.OpGet || f.Op == wire.OpMGet) {
		mClientRTT.ObserveTraced(int64(f.Cost), f.TraceID)
	}
	if seg.bypassOrReadmit(s) {
		if instrumented {
			seg.bypassed.Inc()
		}
		respond(f, wire.FlagBypass)
		f.Items = nil
		return nil
	}
	return seg
}

// probe looks key up for a GET or one MGET item and charges the
// governor the probe's latency plus rttNS, the request's share of the
// client's round trip. It returns the table-owned outputs of a hit, the
// response flag and the probe latency.
func (s *Server) probe(seg *segment, key []byte, rttNS int64, instrumented bool) ([]uint64, uint8, int64) {
	start := time.Now()
	outs, hit := seg.tab.Probe(0, key)
	probeNS := time.Since(start).Nanoseconds()
	if d := seg.gov.observeGet(seg.name, hit, probeNS+rttNS); d != nil {
		s.recordDecision(*d)
	}
	if !hit {
		return nil, 0, probeNS
	}
	if instrumented {
		seg.hits.Inc()
	}
	return outs, wire.FlagHit, probeNS
}

// processGet answers a GET, or an MGET by scatter-gather: one frame, one
// round trip, many keys. Each item is probed independently and answered
// in place (per-item FlagHit plus the stored outputs); the request keys
// are dropped from the response — the client matches items by index.
// The client's RTT estimate is amortized evenly across the batch when
// the governor is charged overhead O, which is exactly the economics
// that make batching worthwhile under formula 3: the same round trip
// divided over n probes shrinks each probe's O by n. Hit outputs are
// copied into frame-owned buffers: the frame goes back to a pool, and
// the table keeps owning them.
func (s *Server) processGet(f *wire.Frame, instrumented bool, sp *obs.Span) {
	seg := s.admit(f, instrumented)
	if seg == nil {
		return
	}
	rttNS := int64(f.Cost)
	if f.Op == wire.OpGet {
		outs, flag, probeNS := s.probe(seg, f.Key, rttNS, instrumented)
		sp.Annotate("probe_ns", probeNS)
		respond(f, flag)
		f.Vals = append(f.Vals, outs...)
		return
	}
	sp.Annotate("items", int64(len(f.Items)))
	rttShare := rttNS / int64(len(f.Items))
	var totalProbeNS, hits int64
	for i := range f.Items {
		it := &f.Items[i]
		outs, flag, probeNS := s.probe(seg, it.Key, rttShare, instrumented)
		totalProbeNS += probeNS
		if flag != 0 {
			hits++
		}
		it.Flags, it.Key, it.Cost = flag, nil, 0
		it.Vals = append(it.Vals[:0], outs...)
	}
	sp.Annotate("probe_ns", totalProbeNS)
	sp.Annotate("hits", hits)
	respond(f, 0)
}

// processPut records a PUT's result, or an MPUT's batch of them in one
// frame. A wrong-arity record fails the whole frame (an MPUT is one
// client-side coalescing decision, not independent requests), and each
// record's Cost feeds the governor as that computation's measured C.
func (s *Server) processPut(f *wire.Frame, instrumented bool) {
	seg := s.admit(f, instrumented)
	if seg == nil {
		return
	}
	recs := f.Items
	if f.Op == wire.OpPut {
		recs = []wire.Item{{Key: f.Key, Vals: f.Vals, Cost: f.Cost}}
	}
	for i := range recs {
		if len(recs[i].Vals) != seg.outWords {
			fail(f, "wrong output arity")
			return
		}
	}
	for i := range recs {
		seg.gov.observePut(int64(recs[i].Cost))
		seg.tab.Record(0, recs[i].Key, recs[i].Vals)
	}
	s.enforceBudget()
	respond(f, 0)
	f.Items = nil
}

func (s *Server) processStats(f *wire.Frame, seg *segment) {
	respond(f, 0)
	f.Vals = statsVals(seg, f.Vals[:0])
}

// statsVals fills one segment's live STATS vector into dst. The same
// vector is the response payload of OpStats and the per-segment state
// record of a warm snapshot, so a restored node's Stats are, by
// construction, what the dump saw.
func statsVals(seg *segment, dst []uint64) []uint64 {
	st := seg.tab.TotalStats()
	g := seg.gov
	vals := append(dst, make([]uint64, wire.StatsLen)...)
	vals[wire.StatsProbes] = uint64(st.Probes)
	vals[wire.StatsHits] = uint64(st.Hits)
	vals[wire.StatsMisses] = uint64(st.Misses)
	vals[wire.StatsRecords] = uint64(st.Records)
	vals[wire.StatsDistinct] = uint64(seg.tab.Distinct())
	vals[wire.StatsResident] = uint64(seg.tab.Resident())
	vals[wire.StatsBypassed] = uint64(g.bypassTotal.Load())
	vals[wire.StatsState] = b2u(g.bypassed())
	vals[wire.StatsR] = uint64(g.rPPM.Load())
	vals[wire.StatsC] = uint64(g.cEWMA.Load())
	vals[wire.StatsO] = uint64(g.oEWMA.Load())
	return vals
}

// bypassOrReadmit reports whether this request should be answered with
// FlagBypass. A bypassed request advances the governor's probation; the
// request that exhausts it resets the segment's table (cold R
// re-measurement) and readmits — that request itself is still answered
// as bypassed, the next one probes.
func (sg *segment) bypassOrReadmit(s *Server) bool {
	if !sg.gov.bypassed() {
		return false
	}
	if d := sg.gov.observeBypass(sg.name, sg.tab.Reset); d != nil {
		s.recordDecision(*d)
	}
	return true
}

// respond turns a request frame into its success response in place.
func respond(f *wire.Frame, flags uint8) {
	f.Flags = wire.FlagResp | flags
	f.Name = ""
	f.Key = nil
	f.Vals = f.Vals[:0]
}

// fail turns a request frame into an error response carrying msg.
func fail(f *wire.Frame, msg string) {
	f.Flags = wire.FlagResp | wire.FlagErr
	f.Name = msg
	f.Key = nil
	f.Vals = nil
	f.Items = nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
