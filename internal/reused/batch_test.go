package reused_test

import (
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compreuse"
	"compreuse/internal/obs"
	"compreuse/internal/reused"
	"compreuse/internal/wire"
)

// rawConn is a frame-level client for driving exact MGET/MPUT shapes at
// the server — the high-level client decides for itself when to batch,
// so deterministic protocol coverage has to speak wire directly.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	w  *wire.Writer
	r  *wire.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{t: t, nc: nc, w: wire.NewWriter(nc), r: wire.NewReader(nc)}
}

// roundTrip writes req and returns the matching response.
func (c *rawConn) roundTrip(req *wire.Frame) *wire.Frame {
	c.t.Helper()
	if err := c.w.Write(req); err != nil {
		c.t.Fatalf("write %v: %v", req.Op, err)
	}
	var resp wire.Frame
	c.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := c.r.Next(&resp); err != nil {
		c.t.Fatalf("read %v response: %v", req.Op, err)
	}
	if resp.Seq != req.Seq {
		c.t.Fatalf("%v response seq %d, want %d", req.Op, resp.Seq, req.Seq)
	}
	return &resp
}

// TestBatchWire drives the MGET/MPUT ops frame by frame: a batch record,
// a scatter-gather probe answering hits and misses by index, and the
// error shapes (empty batch, wrong arity fails the whole MPUT).
func TestBatchWire(t *testing.T) {
	_, addr := startServer(t, reused.Config{})
	c := dialRaw(t, addr)

	hello := c.roundTrip(&wire.Frame{Op: wire.OpHello, Seq: 1, Name: "batch",
		Vals: []uint64{0, 0, 2}})
	if hello.Flags&wire.FlagErr != 0 {
		t.Fatalf("hello failed: %s", hello.Name)
	}
	seg := hello.Seg

	// MPUT three results in one frame, each with its own measured C.
	mput := &wire.Frame{Op: wire.OpMPut, Seq: 2, Seg: seg}
	for i := 0; i < 3; i++ {
		mput.Items = append(mput.Items, wire.Item{
			Cost: uint64(time.Millisecond),
			Key:  key(i),
			Vals: []uint64{uint64(i), uint64(i * i)},
		})
	}
	if resp := c.roundTrip(mput); resp.Flags&wire.FlagErr != 0 {
		t.Fatalf("mput failed: %s", resp.Name)
	}

	// MGET four keys: three recorded above, one never seen.
	mget := &wire.Frame{Op: wire.OpMGet, Seq: 3, Seg: seg}
	for i := 0; i < 4; i++ {
		mget.Items = append(mget.Items, wire.Item{Key: key(i)})
	}
	resp := c.roundTrip(mget)
	if resp.Flags&wire.FlagErr != 0 {
		t.Fatalf("mget failed: %s", resp.Name)
	}
	if len(resp.Items) != 4 {
		t.Fatalf("mget returned %d items, want 4", len(resp.Items))
	}
	for i := 0; i < 3; i++ {
		it := resp.Items[i]
		if it.Flags&wire.FlagHit == 0 {
			t.Fatalf("item %d: miss, want hit", i)
		}
		if len(it.Vals) != 2 || it.Vals[0] != uint64(i) || it.Vals[1] != uint64(i*i) {
			t.Fatalf("item %d: vals %v, want [%d %d]", i, it.Vals, i, i*i)
		}
	}
	if it := resp.Items[3]; it.Flags&wire.FlagHit != 0 || len(it.Vals) != 0 {
		t.Fatalf("item 3: flags %x vals %v, want a bare miss", it.Flags, it.Vals)
	}

	// An empty batch is a protocol error, not a no-op.
	for _, op := range []wire.Op{wire.OpMGet, wire.OpMPut} {
		if resp := c.roundTrip(&wire.Frame{Op: op, Seq: 4, Seg: seg}); resp.Flags&wire.FlagErr == 0 {
			t.Errorf("empty %v batch accepted, want error", op)
		}
	}

	// One wrong-arity item fails the whole MPUT: the batch is a single
	// client decision, and nothing from it may be recorded.
	bad := &wire.Frame{Op: wire.OpMPut, Seq: 5, Seg: seg, Items: []wire.Item{
		{Key: key(100), Vals: []uint64{1, 2}},
		{Key: key(101), Vals: []uint64{1}}, // arity 1, segment wants 2
	}}
	if resp := c.roundTrip(bad); resp.Flags&wire.FlagErr == 0 {
		t.Fatal("wrong-arity mput accepted, want error")
	}
	probe := c.roundTrip(&wire.Frame{Op: wire.OpMGet, Seq: 6, Seg: seg,
		Items: []wire.Item{{Key: key(100)}}})
	if len(probe.Items) != 1 || probe.Items[0].Flags&wire.FlagHit != 0 {
		t.Error("item from a failed mput batch was recorded anyway")
	}

	// Unknown segment id.
	if resp := c.roundTrip(&wire.Frame{Op: wire.OpMGet, Seq: 7, Seg: seg + 99,
		Items: []wire.Item{{Key: key(0)}}}); resp.Flags&wire.FlagErr == 0 {
		t.Error("mget on unknown segment accepted, want error")
	}

	// A single op and a batch of one answer alike: GET vs a one-item
	// MGET, PUT vs a one-item MPUT, each on its own twin segment, give
	// the same flags, values and error text, and leave the twins' STATS
	// equal, in every case. The governor closes a window every 2
	// probes: the first (a hit and a miss, large C) keeps the twins
	// admitted, the second (two misses) bypasses both.
	_, addr = startServer(t, reused.Config{Governor: reused.GovernorConfig{Window: 2}})
	c = dialRaw(t, addr)
	seq := uint64(0)
	send := func(f *wire.Frame) *wire.Frame {
		seq++
		f.Seq = seq
		return c.roundTrip(f)
	}
	twin := func(name string) uint32 {
		resp := send(&wire.Frame{Op: wire.OpHello, Name: name, Vals: []uint64{0, 0, 2}})
		if resp.Flags&wire.FlagErr != 0 {
			t.Fatalf("hello %s failed: %s", name, resp.Name)
		}
		return resp.Seg
	}
	single, batch := twin("single"), twin("batch")
	type answer struct {
		Flags uint8
		Vals  []uint64
		Err   string
	}
	// read folds a batch of one's item into the frame-level answer.
	read := func(resp *wire.Frame) answer {
		a := answer{Flags: resp.Flags, Vals: resp.Vals, Err: resp.Name}
		switch len(resp.Items) {
		case 0:
		case 1:
			a.Flags |= resp.Items[0].Flags
			a.Vals = resp.Items[0].Vals
		default:
			t.Fatalf("%v answered %d items for one", resp.Op, len(resp.Items))
		}
		if len(a.Vals) == 0 {
			a.Vals = nil
		}
		return a
	}
	// stats reads a twin's STATS vector; O is a measured latency, so it
	// is left out.
	stats := func(seg uint32) []uint64 {
		v := append([]uint64(nil), send(&wire.Frame{Op: wire.OpStats, Seg: seg}).Vals...)
		if len(v) != wire.StatsLen {
			t.Fatalf("stats: %d vals, want %d", len(v), wire.StatsLen)
		}
		v[wire.StatsO] = 0
		return v
	}
	const rtt, cost = 1000, uint64(time.Second)
	for _, tc := range []struct {
		name    string
		op      wire.Op // OpGet or OpPut
		unknown bool    // address a segment id the server never issued
		key     int
		vals    []uint64
		want    uint8 // the answer's flags besides FlagResp
	}{
		{name: "put", op: wire.OpPut, key: 0, vals: []uint64{1, 2}},
		{name: "hit", op: wire.OpGet, key: 0, want: wire.FlagHit},
		{name: "miss", op: wire.OpGet, key: 1},
		{name: "wrong arity", op: wire.OpPut, key: 2, vals: []uint64{7}, want: wire.FlagErr},
		{name: "unknown segment get", op: wire.OpGet, unknown: true, key: 0, want: wire.FlagErr},
		{name: "unknown segment put", op: wire.OpPut, unknown: true, key: 0, vals: []uint64{1, 2}, want: wire.FlagErr},
		{name: "miss before bypass", op: wire.OpGet, key: 1},
		{name: "miss closing a zero-R window", op: wire.OpGet, key: 1},
		{name: "bypassed get", op: wire.OpGet, key: 0, want: wire.FlagBypass},
		{name: "bypassed put", op: wire.OpPut, key: 0, vals: []uint64{1, 2}, want: wire.FlagBypass},
	} {
		segOne, segMany := single, batch
		if tc.unknown {
			segOne, segMany = single+99, batch+99
		}
		one := &wire.Frame{Op: tc.op, Seg: segOne, Key: key(tc.key), Vals: tc.vals, Cost: rtt}
		many := &wire.Frame{Op: wire.OpMGet, Seg: segMany, Cost: rtt,
			Items: []wire.Item{{Key: key(tc.key)}}}
		if tc.op == wire.OpPut {
			one.Cost = cost
			many.Op, many.Cost = wire.OpMPut, 0
			many.Items[0].Vals, many.Items[0].Cost = tc.vals, cost
		}
		a, b := read(send(one)), read(send(many))
		if a.Flags != wire.FlagResp|tc.want {
			t.Errorf("%s: %v answered flags %x (%s), want %x", tc.name, tc.op, a.Flags, a.Err, wire.FlagResp|tc.want)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: %v answered %+v, its batch of one %+v", tc.name, tc.op, a, b)
		}
		if sa, sb := stats(single), stats(batch); !reflect.DeepEqual(sa, sb) {
			t.Errorf("%s: STATS after the single op %v, after the batch %v", tc.name, sa, sb)
		}
	}
}

// TestBatchedClientTraffic hammers one segment with concurrent Gets and
// Puts through a single connection, so calls that arrive while its one
// flight is in the air coalesce into MGET/MPUT frames, and checks every
// caller still sees exactly its own key's values and that batch frames
// were served. Run under -race this is also the aliasing test for the
// batch paths (response vals handed to waiters, request keys owned by
// blocked callers).
func TestBatchedClientTraffic(t *testing.T) {
	srv, addr := startServer(t, reused.Config{
		Governor: reused.GovernorConfig{Window: -1}, // keep every probe admitted
	})
	_ = srv
	obs.Enable()
	defer obs.Disable()
	mgets := obs.NewCounter(`crcserve_requests_total{op="mget"}`, "")
	mputs := obs.NewCounter(`crcserve_requests_total{op="mput"}`, "")
	mgetsBefore, mputsBefore := mgets.Value(), mputs.Value()

	cl := dial(t, addr, compreuse.ClientConfig{Conns: 1})
	seg, err := cl.Segment("batched", compreuse.SegmentConfig{OutWords: 2})
	if err != nil {
		t.Fatal(err)
	}

	const n = 128
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, n)

	// Phase 1: n concurrent Puts on distinct keys. With one connection
	// only one PUT flies at a time, so most of these leave as MPUT
	// batches.
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			errs[i] = seg.Put(key(i), []uint64{uint64(i), uint64(i * 7)}, time.Millisecond)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	// Phase 2: n concurrent Gets on the same distinct keys; every one
	// must hit and carry its own values, however the flights were cut.
	type got struct {
		vals   []uint64
		status compreuse.GetStatus
		err    error
	}
	results := make([]got, n)
	start = make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			g := &results[i]
			g.vals, g.status, g.err = seg.Get(key(i))
		}(i)
	}
	close(start)
	wg.Wait()
	for i, g := range results {
		if g.err != nil {
			t.Fatalf("get %d: %v", i, g.err)
		}
		if g.status != compreuse.Hit {
			t.Fatalf("get %d: status %v, want hit", i, g.status)
		}
		if len(g.vals) != 2 || g.vals[0] != uint64(i) || g.vals[1] != uint64(i*7) {
			t.Fatalf("get %d: vals %v, want [%d %d]", i, g.vals, i, i*7)
		}
	}

	st, err := seg.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != n || st.Distinct != n {
		t.Errorf("server saw %d records / %d distinct, want %d / %d",
			st.Records, st.Distinct, n, n)
	}
	if st.Hits != n {
		t.Errorf("server saw %d hits, want %d", st.Hits, n)
	}
	// Calls that find the connection's flight in the air still coalesce.
	if mgets.Value() == mgetsBefore || mputs.Value() == mputsBefore {
		t.Errorf("no batch frames served: mget %d -> %d, mput %d -> %d",
			mgetsBefore, mgets.Value(), mputsBefore, mputs.Value())
	}
}

// TestTieredMemoSingleflight is the satellite acceptance check:
// concurrent misses on the same key must collapse to ONE remote GET and
// ONE compute. The leader is parked inside its compute callback until
// every follower has entered Do, so the followers are provably waiting
// on the in-flight call, not racing it.
func TestTieredMemoSingleflight(t *testing.T) {
	_, addr := startServer(t, reused.Config{
		Governor: reused.GovernorConfig{Window: -1},
	})
	cl := dial(t, addr, compreuse.ClientConfig{Conns: 1})
	tm, err := compreuse.NewTieredMemo(cl, compreuse.TieredMemoConfig{Name: "sf"})
	if err != nil {
		t.Fatal(err)
	}

	const followers = 8
	k := []byte("the-one-key")
	var computes atomic.Int64
	leaderIn := make(chan struct{})
	release := make(chan struct{})

	results := make(chan uint64, followers+1)
	go func() {
		results <- tm.Do(k, func() uint64 {
			computes.Add(1)
			close(leaderIn) // remote GET (a miss) already happened
			<-release
			return 42
		})
	}()
	<-leaderIn

	// The leader is parked mid-compute; its singleflight entry stays
	// registered until it finishes, so every follower that enters Do now
	// lands on it.
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- tm.Do(k, func() uint64 {
				computes.Add(1)
				return 42
			})
		}()
	}
	// Wait until every follower has at least entered Do (Calls counts
	// first thing), then give them a beat to reach the singleflight wait
	// before releasing the leader.
	deadline := time.Now().Add(5 * time.Second)
	for tm.Stats().Calls < followers+1 {
		if time.Now().After(deadline) {
			t.Fatal("followers never entered Do")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	for i := 0; i < followers+1; i++ {
		if v := <-results; v != 42 {
			t.Fatalf("caller got %d, want 42", v)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	ts := tm.Stats()
	if ts.Computes != 1 {
		t.Fatalf("stats count %d computes, want 1: %+v", ts.Computes, ts)
	}
	if ts.L1Hits != followers {
		t.Errorf("stats count %d L1 hits, want %d (followers served from the in-flight call): %+v",
			ts.L1Hits, followers, ts)
	}
	rs, err := tm.RemoteStats()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Probes != 1 {
		t.Errorf("server saw %d probes, want exactly 1 remote GET: %+v", rs.Probes, rs)
	}

	// And afterwards the key is simply warm.
	if v := tm.Do(k, func() uint64 { t.Error("compute ran on a warm key"); return 0 }); v != 42 {
		t.Fatalf("warm Do got %d, want 42", v)
	}
}

// TestBatchAmortizesOverhead is the formula-3 economics check: the
// governor charges a batched probe only its 1/n share of the round
// trip, so an MGET batch reports a smaller overhead O than the same
// keys probed one frame at a time with the same claimed RTT.
func TestBatchAmortizesOverhead(t *testing.T) {
	// Window == n: the evaluation that folds measured O into the EWMA
	// runs exactly once per segment, right after its 16 probes. No PUT
	// ever reports a cost, so C stays 0 and the governor never flips to
	// BYPASS (it refuses to judge on a guess).
	_, addr := startServer(t, reused.Config{
		Governor: reused.GovernorConfig{Window: 16},
	})
	c := dialRaw(t, addr)

	const rtt = uint64(time.Millisecond)
	const n = 16

	overheadAfter := func(name string, batched bool) uint64 {
		hello := c.roundTrip(&wire.Frame{Op: wire.OpHello, Seq: 10, Name: name,
			Vals: []uint64{0, 0, 1}})
		if hello.Flags&wire.FlagErr != 0 {
			t.Fatalf("hello %s: %s", name, hello.Name)
		}
		seg := hello.Seg
		if batched {
			mget := &wire.Frame{Op: wire.OpMGet, Seq: 11, Seg: seg, Cost: rtt}
			for i := 0; i < n; i++ {
				mget.Items = append(mget.Items, wire.Item{Key: key(i)})
			}
			if resp := c.roundTrip(mget); resp.Flags&wire.FlagErr != 0 {
				t.Fatalf("mget: %s", resp.Name)
			}
		} else {
			for i := 0; i < n; i++ {
				f := &wire.Frame{Op: wire.OpGet, Seq: 12 + uint64(i), Seg: seg,
					Cost: rtt, Key: key(i)}
				if resp := c.roundTrip(f); resp.Flags&wire.FlagErr != 0 {
					t.Fatalf("get: %s", resp.Name)
				}
			}
		}
		stats := c.roundTrip(&wire.Frame{Op: wire.OpStats, Seq: 99, Seg: seg})
		if stats.Flags&wire.FlagErr != 0 {
			t.Fatalf("stats: %s", stats.Name)
		}
		return stats.Vals[wire.StatsO]
	}

	single := overheadAfter("o-single", false)
	batched := overheadAfter("o-batched", true)
	if single == 0 || batched == 0 {
		t.Fatalf("governor observed no overhead: single=%d batched=%d", single, batched)
	}
	// The single-frame probes each charge the full RTT; the batch
	// charges RTT/16 per probe. Demand at least a 4x gap to stay far
	// from scheduler noise in the probe-latency term.
	if batched*4 > single {
		t.Errorf("batched O %v not clearly below single-frame O %v",
			time.Duration(batched), time.Duration(single))
	}
}
