package reused_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"compreuse"
	"compreuse/internal/reused"
	"compreuse/internal/wire"
)

// startServer runs a Server on a loopback listener and returns its
// address. The server is shut down (abruptly) at test end.
func startServer(t *testing.T, cfg reused.Config) (srv *reused.Server, addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv = reused.New(cfg)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != reused.ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return srv, ln.Addr().String()
}

func dial(t *testing.T, addr string, cfg compreuse.ClientConfig) *compreuse.Client {
	t.Helper()
	cfg.Addr = addr
	c, err := compreuse.DialCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func key(i int) []byte {
	k := make([]byte, 8)
	binary.LittleEndian.PutUint64(k, uint64(i))
	return k
}

// TestSharedReuse drives overlapping key streams from several clients:
// what one client computed and PUT, the others must GET as hits — the
// whole point of the remote tier.
func TestSharedReuse(t *testing.T) {
	_, addr := startServer(t, reused.Config{})

	writer := dial(t, addr, compreuse.ClientConfig{Conns: 1})
	seg, err := writer.Segment("shared", compreuse.SegmentConfig{OutWords: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := seg.Put(key(i), []uint64{uint64(i), uint64(i * i)}, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}

	// Four more clients, four distinct connections, same key stream.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for c := 0; c < 4; c++ {
		cl := dial(t, addr, compreuse.ClientConfig{Conns: 1})
		rseg, err := cl.Segment("shared", compreuse.SegmentConfig{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				vals, status, err := rseg.Get(key(i))
				if err != nil {
					errs <- err
					return
				}
				if status != compreuse.Hit || len(vals) != 2 || vals[1] != uint64(i*i) {
					errs <- fmt.Errorf("key %d: status %v vals %v", i, status, vals)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st, err := seg.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits < 4*n {
		t.Errorf("aggregate hits %d, want >= %d", st.Hits, 4*n)
	}
	if st.Distinct != n {
		t.Errorf("distinct %d, want %d (fleet should share, not rediscover)", st.Distinct, n)
	}
}

// TestGovernorBypassesCheapSegment registers a segment whose
// client-reported computation cost C is far below the measured
// overhead O (which includes a real loopback RTT), and expects the
// governor to flip it to BYPASS — then, after probation, to READMIT it
// with a cold table.
func TestGovernorBypassesCheapSegment(t *testing.T) {
	var mu sync.Mutex
	var transitions []reused.Decision
	srv, addr := startServer(t, reused.Config{
		Governor: reused.GovernorConfig{
			Window:    64,
			Probation: 32,
			OnDecision: func(d reused.Decision) {
				mu.Lock()
				transitions = append(transitions, d)
				mu.Unlock()
			},
		},
	})

	cl := dial(t, addr, compreuse.ClientConfig{Conns: 1})
	seg, err := cl.Segment("cheap", compreuse.SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// A 100ns computation can never pay for a network round trip.
	const cheap = 100 * time.Nanosecond
	deadline := time.Now().Add(10 * time.Second)
	bypassSeen := false
	for i := 0; !bypassSeen; i++ {
		if time.Now().After(deadline) {
			st, _ := seg.Stats()
			t.Fatalf("governor never bypassed: stats %+v", st)
		}
		k := key(i % 8) // high reuse rate: R alone must not save it
		vals, status, err := seg.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		switch status {
		case compreuse.Bypass:
			bypassSeen = true
		case compreuse.Miss:
			if err := seg.Put(k, []uint64{uint64(i)}, cheap); err != nil {
				t.Fatal(err)
			}
		default:
			_ = vals
		}
	}

	st, err := seg.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.BypassedNow {
		t.Errorf("stats say admitted after bypass verdict: %+v", st)
	}
	if st.C >= st.O {
		t.Errorf("expected C << O, got C=%v O=%v", st.C, st.O)
	}

	// Drive the probation out; the segment must come back admitted with
	// a reset table (cold R re-measurement).
	for i := 0; i < 40*64; i++ {
		if _, _, err := seg.Get(key(i % 8)); err != nil {
			t.Fatal(err)
		}
		st, err = seg.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if !st.BypassedNow {
			break
		}
	}
	if st.BypassedNow {
		t.Fatalf("segment never readmitted: %+v", st)
	}
	if st.Resident != 0 && st.Distinct > 8 {
		t.Errorf("readmitted table looks warm: %+v", st)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(transitions) < 2 {
		t.Fatalf("transitions: %+v", transitions)
	}
	first := transitions[0]
	if first.State != "BYPASS" || first.Gain > 0 || first.C != int64(cheap) {
		t.Errorf("first transition: %+v", first)
	}
	if transitions[1].State != "READMIT" {
		t.Errorf("second transition: %+v", transitions[1])
	}
	if got := srv.Decisions(); len(got) != len(transitions) {
		t.Errorf("ledger has %d decisions, callback saw %d", len(got), len(transitions))
	}
}

// TestShutdownDrain opens a connection, fires a burst of pipelined
// requests, shuts the server down mid-burst, and checks every request
// got its response — the no-dropped-in-flight-responses guarantee.
func TestShutdownDrain(t *testing.T) {
	srv, addr := startServer(t, reused.Config{DrainGrace: time.Second})

	cl := dial(t, addr, compreuse.ClientConfig{Conns: 2})
	seg, err := cl.Segment("drain", compreuse.SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}

	const callers = 64
	var wg sync.WaitGroup
	results := make([]error, callers)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, _, err := seg.Get(key(i))
			results[i] = err
		}(i)
	}
	close(start)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Errorf("caller %d dropped: %v", i, err)
		}
	}
}

// TestMaxConns checks that connections beyond the cap are refused.
func TestMaxConns(t *testing.T) {
	_, addr := startServer(t, reused.Config{MaxConns: 1})

	first, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	// Prove the first connection is live before racing the second.
	w := wire.NewWriter(first)
	if err := w.Write(&wire.Frame{Op: wire.OpHello, Seq: 1, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	var resp wire.Frame
	if err := wire.NewReader(first).Next(&resp); err != nil {
		t.Fatal(err)
	}

	second, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	second.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := second.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("second connection: read err %v, want EOF (refused)", err)
	}
}

// TestMemBudget fills a segment past the budget and expects the server
// to flush the table rather than grow without bound.
func TestMemBudget(t *testing.T) {
	_, addr := startServer(t, reused.Config{MemBudget: 16 << 10})

	cl := dial(t, addr, compreuse.ClientConfig{Conns: 1})
	seg, err := cl.Segment("hog", compreuse.SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Each entry models 16 (key) + 8 (value) bytes; 4096 records is
	// ~96 KiB, six times the budget.
	for i := 0; i < 4096; i++ {
		if err := seg.Put(key(i), []uint64{uint64(i)}, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	st, err := seg.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// 16KiB budget / 24 bytes per entry ≈ 680 entries; allow slack for
	// the 256-record check cadence.
	if st.Resident >= 4096-256 {
		t.Errorf("budget never enforced: resident %d of %d records", st.Resident, st.Records)
	}
}

// TestErrorResponses exercises the protocol error paths: unknown
// segment ids and wrong PUT arity come back as FlagErr responses, and
// the connection survives them.
func TestErrorResponses(t *testing.T) {
	_, addr := startServer(t, reused.Config{})
	cl := dial(t, addr, compreuse.ClientConfig{Conns: 1})

	seg, err := cl.Segment("arity", compreuse.SegmentConfig{OutWords: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.Put(key(1), []uint64{1}, time.Millisecond); err == nil {
		t.Error("wrong-arity PUT did not error")
	}
	// The connection still works afterwards.
	if err := seg.Put(key(1), []uint64{1, 2}, time.Millisecond); err != nil {
		t.Errorf("connection dead after arity error: %v", err)
	}
	if _, status, err := seg.Get(key(1)); err != nil || status != compreuse.Hit {
		t.Errorf("get after arity error: status %v err %v", status, err)
	}
}

// TestFlushResets checks FLUSH empties the shared table.
func TestFlushResets(t *testing.T) {
	_, addr := startServer(t, reused.Config{})
	cl := dial(t, addr, compreuse.ClientConfig{Conns: 1})
	seg, err := cl.Segment("flush", compreuse.SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := seg.Put(key(1), []uint64{7}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := seg.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, status, err := seg.Get(key(1)); err != nil || status != compreuse.Miss {
		t.Errorf("after flush: status %v err %v", status, err)
	}
	st, err := seg.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Resident != 0 {
		t.Errorf("resident %d after flush", st.Resident)
	}
}

// TestTieredMemo checks the L1/L2 layering: process A computes, process
// B gets L2 hits, then B's own repeats come from its L1.
func TestTieredMemo(t *testing.T) {
	_, addr := startServer(t, reused.Config{})

	computeCalls := 0
	a := dial(t, addr, compreuse.ClientConfig{Conns: 1})
	ta, err := compreuse.NewTieredMemo(a, compreuse.TieredMemoConfig{Name: "tiered"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		v := ta.Do(key(i), func() uint64 { computeCalls++; return uint64(i * 3) })
		if v != uint64(i*3) {
			t.Fatalf("Do(%d) = %d", i, v)
		}
	}
	if computeCalls != 32 {
		t.Fatalf("process A computed %d times, want 32", computeCalls)
	}

	b := dial(t, addr, compreuse.ClientConfig{Conns: 1})
	tb, err := compreuse.NewTieredMemo(b, compreuse.TieredMemoConfig{Name: "tiered"})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 32; i++ {
			v := tb.Do(key(i), func() uint64 {
				t.Errorf("process B recomputed key %d", i)
				return 0
			})
			if v != uint64(i*3) {
				t.Fatalf("B Do(%d) = %d", i, v)
			}
		}
	}
	st := tb.Stats()
	if st.L2Hits != 32 || st.L1Hits != 32 || st.Computes != 0 {
		t.Errorf("B tiers: %+v", st)
	}

	if err := tb.Reset(); err != nil {
		t.Fatal(err)
	}
	recomputed := 0
	tb.Do(key(0), func() uint64 { recomputed++; return 0 })
	if recomputed != 1 {
		t.Errorf("Reset did not clear both tiers (recomputed=%d)", recomputed)
	}
}
