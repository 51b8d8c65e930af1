package compreuse

import (
	"fmt"
	"hash/maphash"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compreuse/internal/obs"
	"compreuse/internal/reused"
	"compreuse/internal/wire"
)

// These are liveness regressions: each guards a path that used to hang
// forever rather than fail, so every wait here runs against a deadline
// — a timeout is the bug coming back, not slowness.

// waitOrFatal fails the test if done does not close within d.
func waitOrFatal(t *testing.T, done <-chan struct{}, d time.Duration, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal(what)
	}
}

// TestTeardownNoDeadlock kills the server out from under a pile of
// concurrent callers and requires every call to return, and every
// client goroutine to exit once the Client is closed. Callers write
// their own frames: a write that fails on the dead socket must close the
// connection and fail every pending call, never leave one waiting for a
// response that cannot come. (The historical bug was a caller parked on
// a full queue to a writer goroutine that had already exited.)
func TestTeardownNoDeadlock(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := reused.New(reused.Config{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer srv.Close()

	// One connection and a deep pipeline: the more callers share it, the
	// likelier a write is mid-frame when the socket dies.
	c, err := DialCache(ClientConfig{Addr: ln.Addr().String(), Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seg, err := c.Segment("teardown", SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 32
	var started sync.WaitGroup
	finished := make(chan struct{})
	var wg sync.WaitGroup
	started.Add(workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			defer wg.Done()
			started.Done()
			for i := 0; ; i++ {
				k := []byte(fmt.Sprintf("k-%d-%d", id, i))
				if _, _, err := seg.Get(k); err != nil {
					return // server is gone; an error return is the fix working
				}
				if err := seg.Put(k, []uint64{1}, time.Microsecond); err != nil {
					return
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(finished) }()

	started.Wait()
	time.Sleep(10 * time.Millisecond) // let the pipeline fill mid-flight
	srv.Close()

	waitOrFatal(t, finished, 10*time.Second,
		"callers still blocked 10s after server teardown")
	<-serveDone
	c.Close()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 10s after Client.Close, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentGetsUseFreeConnections pins per-connection flights: on
// two connections, a second GET flies while the first is still in the
// air. The fake node holds its reply to the first GET until a GET
// arrives on its other connection; a client that queued the second
// probe behind the first would never send it, and the hold would time
// out.
func TestConcurrentGetsUseFreeConnections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var (
		mu       sync.Mutex
		holder   = -1 // the connection holding its reply to the first GET; -2 once released
		timedOut atomic.Bool
	)
	secondGet := make(chan struct{})
	serve := func(id int, nc net.Conn) {
		defer nc.Close()
		r, w := wire.NewReader(nc), wire.NewWriter(nc)
		for {
			var f wire.Frame
			if err := r.Next(&f); err != nil {
				return
			}
			if f.Op == wire.OpGet {
				mu.Lock()
				switch {
				case holder < 0:
					holder = id
					mu.Unlock()
					select {
					case <-secondGet:
					case <-time.After(5 * time.Second):
						timedOut.Store(true)
					}
				case holder >= 0 && holder != id:
					holder = -2
					mu.Unlock()
					close(secondGet)
				default:
					mu.Unlock()
				}
			}
			resp := wire.Frame{Op: f.Op, Seq: f.Seq, Seg: 1, Flags: wire.FlagResp}
			if err := w.Write(&resp); err != nil {
				return
			}
		}
	}
	go func() {
		for id := 0; ; id++ {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(id, nc)
		}
	}()

	c, err := DialCache(ClientConfig{Addr: ln.Addr().String(), Conns: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seg, err := c.Segment("free-conns", SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = seg.Get([]byte{byte(i)})
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	waitOrFatal(t, done, 10*time.Second, "GETs still blocked after 10s")
	for i, err := range errs {
		if err != nil {
			t.Errorf("get %d: %v", i, err)
		}
	}
	if timedOut.Load() {
		t.Fatal("the second GET waited for the first one's reply instead of flying on the free connection")
	}
}

// TestPipelinedLargeFramesNoDeadlock drives batch frames larger than a
// socket buffer both ways over one connection from many callers at once.
// Each caller writes its own frame while the server may be blocked
// writing a response just as large; the client's reader drains the
// socket regardless, so every call completes.
func TestPipelinedLargeFramesNoDeadlock(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "s.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := reused.New(reused.Config{Governor: reused.GovernorConfig{Window: -1}})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() { srv.Close(); <-serveDone }()

	node, err := dialNode("unix://"+sock, ClientConfig{Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer node.close()
	const callers, outWords = 16, 8
	seg, err := node.segment("large", SegmentConfig{OutWords: outWords})
	if err != nil {
		t.Fatal(err)
	}

	// 4096 items of 8 value words each: ~300 KiB per MPUT request and
	// per MGET response.
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			put := &wire.Frame{Op: wire.OpMPut, Seg: seg.id, Items: make([]wire.Item, wire.MaxItems)}
			get := &wire.Frame{Op: wire.OpMGet, Seg: seg.id, Items: make([]wire.Item, wire.MaxItems)}
			for i := range put.Items {
				k := []byte(fmt.Sprintf("c%02d-%05d", c, i))
				put.Items[i] = wire.Item{Key: k, Vals: make([]uint64, outWords), Cost: 1}
				get.Items[i] = wire.Item{Key: k}
			}
			if _, err := node.call(put); err != nil {
				errs <- fmt.Errorf("caller %d mput: %w", c, err)
				return
			}
			resp, err := node.call(get)
			switch {
			case err != nil:
				errs <- fmt.Errorf("caller %d mget: %w", c, err)
			case len(resp.Items) != wire.MaxItems || resp.Items[0].Flags&wire.FlagHit == 0:
				errs <- fmt.Errorf("caller %d mget: %d items, first flags %x; want %d hits",
					c, len(resp.Items), resp.Items[0].Flags, wire.MaxItems)
			default:
				errs <- nil
			}
		}(c)
	}
	timeout := time.After(10 * time.Second)
	for c := 0; c < callers; c++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Error(err)
			}
		case <-timeout:
			t.Fatalf("%d of %d callers still blocked after 10s", callers-c, callers)
		}
	}
}

// fakeRemote is an L2 that always misses, so every TieredMemo.Do takes
// the singleflight leader path.
type fakeRemote struct{ puts atomic.Int64 }

func (f *fakeRemote) GetTraced(key []byte, _ obs.TraceCtx) ([]uint64, GetStatus, error) {
	return nil, Miss, nil
}
func (f *fakeRemote) PutTraced(key []byte, vals []uint64, cost time.Duration, _ obs.TraceCtx) error {
	f.puts.Add(1)
	return nil
}
func (f *fakeRemote) Stats() (RemoteStats, error) { return RemoteStats{}, nil }
func (f *fakeRemote) Flush() error                { return nil }

// TestTieredPanicPropagatesAndFollowersRetry parks followers behind a
// leader whose compute panics. The historical bug: the leader's panic
// skipped the delete-and-close of the singleflight entry, so the panic
// vanished into the Do caller and every follower waited forever on a
// done channel nobody would close. Now the leader lands its flight on
// the way out and re-propagates the panic; the followers wake, re-probe
// L1, find nothing there, and each runs its own compute without a
// flight, so everyone gets the value 42.
func TestTieredPanicPropagatesAndFollowersRetry(t *testing.T) {
	tm := newTieredMemo(&fakeRemote{}, TieredMemoConfig{Name: "panic"})
	key := []byte("the-key")

	leaderIn := make(chan struct{}) // closed once the leader is inside compute
	release := make(chan struct{})  // closed to let the leader panic
	panicked := make(chan any, 1)   // the leader's recovered panic value
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		defer func() { panicked <- recover() }()
		tm.Do(key, func() uint64 {
			close(leaderIn)
			<-release
			panic("compute exploded")
		})
	}()
	<-leaderIn

	// Followers pile onto the in-flight key. Their computes return a
	// real value, so whichever one takes over as leader settles the key.
	const followers = 8
	var wg sync.WaitGroup
	results := make([]uint64, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = tm.Do(key, func() uint64 { return 42 })
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the followers park on the call
	close(release)

	waitOrFatal(t, leaderDone, 10*time.Second, "panicking leader never returned")
	if v := <-panicked; v != "compute exploded" {
		t.Fatalf("leader panic = %v, want %q re-propagated", v, "compute exploded")
	}
	followersDone := make(chan struct{})
	go func() { wg.Wait(); close(followersDone) }()
	waitOrFatal(t, followersDone, 10*time.Second,
		"followers still parked after the leader panicked (unclosed singleflight)")
	for i, v := range results {
		if v != 42 {
			t.Errorf("follower %d got %d, want 42 (its own compute's value)", i, v)
		}
	}

	// The flight table must be empty again: the next Do on the key is
	// a fresh flight, not a wait on a ghost.
	done := make(chan struct{})
	go func() { tm.Do(key, func() uint64 { return 7 }); close(done) }()
	waitOrFatal(t, done, 10*time.Second, "Do after panic recovery blocked")
}

// blockingPut is an L2 that misses every GET and holds every PUT until
// release closes, announcing each PUT on started.
type blockingPut struct {
	fakeRemote
	started chan struct{}
	release chan struct{}
}

func (b *blockingPut) PutTraced(key []byte, vals []uint64, cost time.Duration, _ obs.TraceCtx) error {
	b.started <- struct{}{}
	<-b.release
	return nil
}

// TestTieredMemoFollowersSkipLeaderPut: a leader lands its flight once
// the computed value is in L1, before it publishes, so a follower that
// joined the flight is served while the leader's PUT is still in the
// air. The historical bug landed the flight only after the synchronous
// PUT returned, so followers waited out the leader's PUT reply.
func TestTieredMemoFollowersSkipLeaderPut(t *testing.T) {
	l2 := &blockingPut{started: make(chan struct{}, 1), release: make(chan struct{})}
	tm := newTieredMemo(l2, TieredMemoConfig{Name: "skip-put"})
	key := []byte("the-key")

	leaderIn := make(chan struct{}) // closed once the leader is inside compute
	proceed := make(chan struct{})  // closed to let the leader's compute return
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		tm.Do(key, func() uint64 {
			close(leaderIn)
			<-proceed
			return 42
		})
	}()
	<-leaderIn

	followerDone := make(chan struct{})
	var got uint64
	go func() {
		defer close(followerDone)
		got = tm.Do(key, func() uint64 { return 7 })
	}()
	// A follower's join makes the flight's done channel: wait for it, so
	// the follower is parked on the flight, not racing the leader to L1.
	h := maphash.Bytes(tm.seed, key)
	deadline := time.Now().Add(10 * time.Second)
	for {
		tm.sfMu.Lock()
		fl := tm.flights[h]
		joined := fl != nil && fl.done != nil
		tm.sfMu.Unlock()
		if joined {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never joined the leader's flight")
		}
		time.Sleep(time.Millisecond)
	}

	close(proceed)
	waitOrFatal(t, l2.started, 10*time.Second, "leader never published")
	select {
	case <-followerDone:
	case <-time.After(10 * time.Second):
		close(l2.release)
		t.Fatal("follower still waiting on the leader's PUT")
	}
	if got != 42 {
		t.Errorf("follower got %d, want the leader's 42", got)
	}
	close(l2.release)
	waitOrFatal(t, leaderDone, 10*time.Second, "leader never returned")
	if st := tm.Stats(); st.Computes != 1 || st.L1Hits != 1 {
		t.Errorf("stats %+v, want 1 compute and 1 L1 hit (the coalesced follower)", st)
	}
}

// TestObserveRTTConcurrent hammers the RTT estimator from many
// goroutines. The historical bug was a load/store pair (a lost-update
// race the race detector flags); the fix is a CAS loop, which this
// exercises under -race.
func TestObserveRTTConcurrent(t *testing.T) {
	var c nodeClient
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 1000; i++ {
				c.observeRTT(time.Duration(g*1000+i)*time.Nanosecond, 0)
			}
		}(g)
	}
	wg.Wait()
	if c.rtt() <= 0 {
		t.Fatalf("RTT = %v after 8000 observations, want > 0", c.rtt())
	}
}
