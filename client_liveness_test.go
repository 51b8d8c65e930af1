package compreuse

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compreuse/internal/obs"
	"compreuse/internal/reused"
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
// concurrent callers and requires every call to return. The historical
// bug: writeLoop exits on a write error without draining writeCh, and a
// caller that had already passed the cc.err check then parks forever on
// a full writeCh — no receiver ever comes back. The fix selects the
// send against the connection's done channel.
func TestTeardownNoDeadlock(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := reused.New(reused.Config{})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() { srv.Close(); <-serveDone }()

	// One connection and a deep pipeline: the more senders share a
	// writeCh, the likelier the undrained-queue window is occupied when
	// the write side dies.
	c, err := DialCache(ClientConfig{Addr: ln.Addr().String(), Conns: 1, MaxInflight: 8})
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
		"callers still blocked 10s after server teardown (writeCh deadlock)")
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
// done channel nobody would close. Now the leader re-propagates the
// panic and the followers wake to ok=false and retry — one of them
// becomes the new leader and everyone gets its value.
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
			t.Errorf("follower %d got %d, want 42 (the retry leader's value)", i, v)
		}
	}

	// The singleflight map must be empty again: the next Do on the key
	// is a fresh flight, not a wait on a ghost.
	done := make(chan struct{})
	go func() { tm.Do(key, func() uint64 { return 7 }); close(done) }()
	waitOrFatal(t, done, 10*time.Second, "Do after panic recovery blocked")
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
