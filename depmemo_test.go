package compreuse

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compreuse/internal/obs"
	"compreuse/internal/reused"
)

var errRemoteDown = errors.New("remote tier down")

// TestDepMemoFootprintKeying pins the point of the subsystem: calls
// differing only in inputs the computation never read share one result.
func TestDepMemoFootprintKeying(t *testing.T) {
	m := NewDepMemo(DepConfig{Name: "fp"})
	computes := 0
	// Reads input 0 (a mode flag); reads element [mode] of the words
	// input only — the rest of the slice is never examined.
	f := func(d *Dep) uint64 {
		computes++
		mode := d.Get(0)
		return d.Word(1, int(mode)) * 2
	}

	w := []uint64{10, 20, 30, 40}
	var in DepInputs
	if got := m.Do(in.Reset().Int(1).Words(w), f); got != 40 {
		t.Fatalf("first call = %d", got)
	}
	// Mutating untouched elements must still hit.
	w2 := []uint64{999, 20, 888, 777}
	if got := m.Do(in.Reset().Int(1).Words(w2), f); got != 40 {
		t.Fatalf("untouched-element change missed: %d", got)
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	// Changing the touched element misses.
	w3 := []uint64{999, 21, 888, 777}
	if got := m.Do(in.Reset().Int(1).Words(w3), f); got != 42 {
		t.Fatalf("touched-element change = %d", got)
	}
	if computes != 2 {
		t.Fatalf("computes = %d, want 2", computes)
	}

	st := m.Stats()
	if st.Calls != 3 || st.Hits != 1 || st.Distinct != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if st.MeanFootprint != 2 {
		t.Fatalf("mean footprint %v, want 2", st.MeanFootprint)
	}
}

// TestDepMemoEmptyFootprint pins the constant-result edge case: a
// compute that reads nothing matches every later call.
func TestDepMemoEmptyFootprint(t *testing.T) {
	m := NewDepMemo(DepConfig{})
	computes := 0
	f := func(d *Dep) uint64 { computes++; return 7 }
	var in DepInputs
	for i := int64(0); i < 5; i++ {
		if got := m.Do(in.Reset().Int(i), f); got != 7 {
			t.Fatalf("call %d = %d", i, got)
		}
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	if st := m.Stats(); st.Hits != 4 || st.MaxFootprint != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestDepMemoFootprintWidening pins conflict resolution across runs: if
// the compute function's read-set widens at a resident leaf (e.g. the
// function changed between deployments of a shared memo), the newer
// record wins and the stale narrow result stops hitting.
func TestDepMemoFootprintWidening(t *testing.T) {
	m := NewDepMemo(DepConfig{})
	var in DepInputs
	narrow := func(d *Dep) uint64 { return uint64(d.Get(0)) }
	wide := func(d *Dep) uint64 { return uint64(d.Get(0)) + uint64(d.Get(1))*100 }

	if got := m.Do(in.Reset().Int(5).Int(3), narrow); got != 5 {
		t.Fatalf("narrow = %d", got)
	}
	// Force the wide compute under the same first read. The resident
	// narrow leaf is displaced, not blended.
	m.Reset()
	if got := m.Do(in.Reset().Int(5).Int(3), wide); got != 305 {
		t.Fatalf("wide = %d", got)
	}
	if got := m.Do(in.Reset().Int(5).Int(4), wide); got != 405 {
		t.Fatalf("wide sibling = %d", got)
	}
	if got := m.Do(in.Reset().Int(5).Int(3), wide); got != 305 {
		t.Fatalf("wide rehit = %d", got)
	}
	if st := m.Stats(); st.Hits != 1 || st.Distinct != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestDepMemoBytesContentKey pins slice-content equality: equal content
// in different backing arrays hits; different content misses.
func TestDepMemoBytesContentKey(t *testing.T) {
	m := NewDepMemo(DepConfig{})
	computes := 0
	f := func(d *Dep) uint64 {
		computes++
		b := d.Bytes(0)
		var s uint64
		for _, c := range b {
			s += uint64(c)
		}
		return s
	}
	var in DepInputs
	a := []byte("hello world")
	b := append([]byte(nil), a...) // same content, different array
	v1 := m.Do(in.Reset().Bytes(a), f)
	v2 := m.Do(in.Reset().Bytes(b), f)
	if v1 != v2 || computes != 1 {
		t.Fatalf("content equality failed: %d %d computes=%d", v1, v2, computes)
	}
	b[0] = 'H'
	if got := m.Do(in.Reset().Bytes(b), f); got == v1 || computes != 2 {
		t.Fatalf("content change: %d computes=%d", got, computes)
	}
}

// TestDepMemoFloatTolerance pins grid equality: floats in one tolerance
// cell share a result, floats in different cells do not.
func TestDepMemoFloatTolerance(t *testing.T) {
	m := NewDepMemo(DepConfig{FloatTolerance: 0.1})
	computes := 0
	f := func(d *Dep) uint64 { computes++; return uint64(d.Float(0) * 1000) }
	var in DepInputs
	m.Do(in.Reset().Float(1.00), f)
	m.Do(in.Reset().Float(1.04), f) // same cell (rounds to 10)
	if computes != 1 {
		t.Fatalf("tolerance miss: computes=%d", computes)
	}
	m.Do(in.Reset().Float(1.17), f) // cell 12
	if computes != 2 {
		t.Fatalf("distinct cell hit: computes=%d", computes)
	}
	// Exact mode (tolerance 0) distinguishes near-equal floats.
	m2 := NewDepMemo(DepConfig{})
	computes = 0
	m2.Do(in.Reset().Float(1.00), f)
	m2.Do(in.Reset().Float(1.0000001), f)
	if computes != 2 {
		t.Fatalf("exact mode collapsed: computes=%d", computes)
	}
}

// TestDepMemoBudgetEviction pins the space budget: resident results
// never exceed Budget, the LRU result leaves first, and an evicted
// result recomputes correctly.
func TestDepMemoBudgetEviction(t *testing.T) {
	m := NewDepMemo(DepConfig{Budget: 4})
	f := func(d *Dep) uint64 { return uint64(d.Get(0)) * 3 }
	var in DepInputs
	for i := int64(0); i < 16; i++ {
		if got := m.Do(in.Reset().Int(i), f); got != uint64(i)*3 {
			t.Fatalf("Do(%d) = %d", i, got)
		}
	}
	st := m.Stats()
	if st.Resident != 4 || st.Evictions != 12 {
		t.Fatalf("stats: %+v", st)
	}
	// The last four are resident; older ones recompute (still correct).
	for i := int64(12); i < 16; i++ {
		if got := m.Do(in.Reset().Int(i), f); got != uint64(i)*3 {
			t.Fatalf("resident Do(%d) = %d", i, got)
		}
	}
	if st2 := m.Stats(); st2.Hits != st.Hits+4 {
		t.Fatalf("resident probes missed: %+v vs %+v", st2, st)
	}
	if got := m.Do(in.Reset().Int(0), f); got != 0 {
		t.Fatalf("evicted recompute = %d", got)
	}
}

// TestDepMemoSingleflight drives concurrent identical misses through a
// slow compute under -race: the compute runs once, everyone gets the
// value, and followers count as hits.
func TestDepMemoSingleflight(t *testing.T) {
	m := NewDepMemo(DepConfig{})
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	f := func(d *Dep) uint64 {
		if computes.Add(1) == 1 {
			close(started)
			<-release
		}
		return uint64(d.Get(0)) + 100
	}

	const callers = 8
	var wg sync.WaitGroup
	results := make([]uint64, callers)
	// Leader first, so the followers deterministically find its flight.
	wg.Add(1)
	go func() { defer wg.Done(); results[0] = m.Do(new(DepInputs).Int(7), f) }()
	<-started
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = m.Do(new(DepInputs).Int(7), f)
		}(i)
	}
	// Give followers time to join the flight, then release the leader.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	for i, v := range results {
		if v != 107 {
			t.Fatalf("caller %d got %d", i, v)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("computes = %d, want 1 (singleflight)", n)
	}
	st := m.Stats()
	if st.Calls != callers || st.Hits != callers-1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestDepMemoSingleflightPanic: a panicking leader releases followers,
// who compute for themselves; the panic propagates to the leader's
// caller.
func TestDepMemoSingleflightPanic(t *testing.T) {
	m := NewDepMemo(DepConfig{})
	var boom atomic.Bool
	boom.Store(true)
	started := make(chan struct{})
	release := make(chan struct{})
	f := func(d *Dep) uint64 {
		v := d.Get(0)
		if boom.CompareAndSwap(true, false) {
			close(started)
			<-release
			panic("compute failed")
		}
		return uint64(v) + 1
	}

	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		m.Do(new(DepInputs).Int(3), f)
	}()
	<-started

	done := make(chan uint64, 1)
	go func() { done <- m.Do(new(DepInputs).Int(3), f) }()
	time.Sleep(5 * time.Millisecond)
	close(release)

	if p := <-panicked; p == nil {
		t.Fatal("leader panic did not propagate")
	}
	select {
	case v := <-done:
		if v != 4 {
			t.Fatalf("follower got %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower hung after leader panic")
	}
}

// TestDepMemoConcurrentChurn hammers a bounded memo from many
// goroutines under -race: distinct footprints, shared footprints, and
// eviction churn at once, with every result checked.
func TestDepMemoConcurrentChurn(t *testing.T) {
	m := NewDepMemo(DepConfig{Budget: 32})
	f := func(d *Dep) uint64 {
		mode := d.Get(0)
		if mode == 0 {
			return 1
		}
		return uint64(mode) + uint64(d.Get(1))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var in DepInputs
			for i := 0; i < 500; i++ {
				mode := int64(i % 5)
				other := int64(i % 17)
				got := m.Do(in.Reset().Int(mode).Int(other), f)
				want := uint64(mode) + uint64(other)
				if mode == 0 {
					want = 1
				}
				if got != want {
					t.Errorf("g%d i%d: got %d want %d", g, i, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := m.Stats(); st.Resident > 32 {
		t.Fatalf("budget exceeded: %+v", st)
	}
}

func TestDepMemoReset(t *testing.T) {
	m := NewDepMemo(DepConfig{Budget: 8})
	computes := 0
	f := func(d *Dep) uint64 { computes++; return uint64(d.Get(0)) }
	var in DepInputs
	m.Do(in.Reset().Int(1), f)
	m.Do(in.Reset().Int(1), f)
	m.Reset()
	if st := m.Stats(); st.Calls != 0 || st.Hits != 0 || st.Distinct != 0 || st.Resident != 0 {
		t.Fatalf("stats after reset: %+v", st)
	}
	if m.Do(in.Reset().Int(1), f); computes != 2 {
		t.Fatalf("post-reset hit leaked: computes=%d", computes)
	}
}

// ---------------------------------------------------------------------------
// Tiered

// memRemote is an in-memory remoteCache double.
type memRemote struct {
	mu   sync.Mutex
	m    map[string]uint64
	gets int
	puts int
	fail bool
}

func newMemRemote() *memRemote { return &memRemote{m: map[string]uint64{}} }

func (f *memRemote) GetTraced(key []byte, _ obs.TraceCtx) ([]uint64, GetStatus, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return nil, Miss, errRemoteDown
	}
	f.gets++
	if v, ok := f.m[string(key)]; ok {
		return []uint64{v}, Hit, nil
	}
	return nil, Miss, nil
}

func (f *memRemote) PutTraced(key []byte, vals []uint64, cost time.Duration, _ obs.TraceCtx) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return errRemoteDown
	}
	f.puts++
	f.m[string(key)] = vals[0]
	return nil
}

func (f *memRemote) Stats() (RemoteStats, error) { return RemoteStats{}, nil }
func (f *memRemote) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	clear(f.m)
	return nil
}

// TestTieredDepMemoGhostRefill pins the eviction-recovery tier: a
// budget-evicted result's ghost key fetches the value back from the
// remote tier instead of recomputing.
func TestTieredDepMemoGhostRefill(t *testing.T) {
	remote := newMemRemote()
	tm := newTieredDepMemo(remote, TieredDepMemoConfig{Name: "tier", Budget: 2})
	var computes atomic.Int64
	f := func(d *Dep) uint64 { computes.Add(1); return uint64(d.Get(0)) * 10 }

	var in DepInputs
	for i := int64(0); i < 5; i++ {
		if got := tm.Do(in.Reset().Int(i), f); got != uint64(i)*10 {
			t.Fatalf("Do(%d) = %d", i, got)
		}
	}
	// 0..2 were evicted; the ghost arena shares the budget, so the two
	// most recent ghosts (1 and 2) are retained. Their values are on the
	// remote tier.
	before := computes.Load()
	if got := tm.Do(in.Reset().Int(2), f); got != 20 {
		t.Fatalf("refill Do(2) = %d", got)
	}
	if computes.Load() != before {
		t.Fatal("ghost refill recomputed instead of remote GET")
	}
	st := tm.Stats()
	if st.GhostHits != 1 || st.Computes != 5 {
		t.Fatalf("tier stats: %+v", st)
	}
	// The refilled result is a plain L1 hit now.
	if got := tm.Do(in.Reset().Int(2), f); got != 20 {
		t.Fatalf("post-refill Do(2) = %d", got)
	}
	if st := tm.Stats(); st.L1Hits != 1 {
		t.Fatalf("post-refill stats: %+v", st)
	}
}

// TestTieredDepMemoReset: Reset drops both tiers and the counters, as
// TieredMemo.Reset does — the next call neither hits the trie nor
// finds its old result on the remote tier.
func TestTieredDepMemoReset(t *testing.T) {
	remote := newMemRemote()
	tm := newTieredDepMemo(remote, TieredDepMemoConfig{Name: "reset", Budget: 2})
	var computes atomic.Int64
	f := func(d *Dep) uint64 { computes.Add(1); return uint64(d.Get(0)) + 5 }
	var in DepInputs
	for i := int64(0); i < 3; i++ {
		tm.Do(in.Reset().Int(i), f)
	}
	if err := tm.Reset(); err != nil {
		t.Fatal(err)
	}
	if st, local := tm.Stats(), tm.Local(); st != (TieredDepStats{}) || local.Calls != 0 || local.Resident != 0 {
		t.Fatalf("after Reset: stats %+v, local %+v", st, local)
	}
	remote.mu.Lock()
	n := len(remote.m)
	remote.mu.Unlock()
	if n != 0 {
		t.Fatalf("remote tier holds %d results after Reset", n)
	}
	before := computes.Load()
	if got := tm.Do(in.Reset().Int(0), f); got != 5 || computes.Load() != before+1 {
		t.Fatalf("post-Reset Do = %d with %d computes, want a fresh compute of 5", got, computes.Load()-before)
	}
}

// TestTieredDepMemoSingleflight: concurrent callers with identical
// inputs on a cold memo share one compute — the tier runs through
// DepMemo's flight loop — and the followers count as trie hits.
func TestTieredDepMemoSingleflight(t *testing.T) {
	remote := newMemRemote()
	tm := newTieredDepMemo(remote, TieredDepMemoConfig{Name: "sf"})
	var computes atomic.Int64
	release := make(chan struct{})
	f := func(d *Dep) uint64 {
		computes.Add(1)
		<-release
		return uint64(d.Get(0)) * 3
	}
	const callers = 8
	var wg sync.WaitGroup
	results := make([]uint64, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var in DepInputs
			results[i] = tm.Do(in.Reset().Int(7), f)
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the followers park on the flight
	close(release)
	wg.Wait()
	for i, v := range results {
		if v != 21 {
			t.Errorf("caller %d got %d, want 21", i, v)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times for %d identical callers, want 1", n, callers)
	}
	if st := tm.Stats(); st.Calls != callers || st.Computes != 1 || st.L1Hits != callers-1 {
		t.Fatalf("stats: %+v", st)
	}
	if remote.puts != 1 {
		t.Fatalf("%d PUTs, want 1", remote.puts)
	}
}

// TestTieredDepMemoConcurrentGhosts: concurrent ghost probes must not
// share key storage across the lock drop for the remote round trip — a
// shared scratch buffer lets one goroutine's remote Get read a key a
// second goroutine is already overwriting, returning the wrong segment's
// value. Budget far below the key space keeps the ghost path hot.
func TestTieredDepMemoConcurrentGhosts(t *testing.T) {
	remote := newMemRemote()
	tm := newTieredDepMemo(remote, TieredDepMemoConfig{Name: "conc", Budget: 2})
	f := func(d *Dep) uint64 { return uint64(d.Get(0)) * 10 }

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var in DepInputs
			// Cycle of 3 over budget 2: in steady state every access
			// misses the resident pair but matches the just-evicted
			// ghost, so the ghost path stays hot under any scheduling.
			for i := 0; i < 2000; i++ {
				k := int64((w + i) % 3)
				if got := tm.Do(in.Reset().Int(k), f); got != uint64(k)*10 {
					errs <- fmt.Errorf("worker %d: Do(%d) = %d", w, k, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := tm.Stats(); st.GhostHits == 0 {
		t.Fatalf("ghost path never exercised: %+v", st)
	}
}

// TestTieredDepMemoRemoteDown: with the remote tier failing, Do still
// never fails — it computes locally and counts the errors.
func TestTieredDepMemoRemoteDown(t *testing.T) {
	remote := newMemRemote()
	remote.fail = true
	tm := newTieredDepMemo(remote, TieredDepMemoConfig{Name: "down", Budget: 2})
	f := func(d *Dep) uint64 { return uint64(d.Get(0)) + 1 }
	var in DepInputs
	for i := int64(0); i < 4; i++ {
		if got := tm.Do(in.Reset().Int(i), f); got != uint64(i)+1 {
			t.Fatalf("Do(%d) = %d", i, got)
		}
	}
	st := tm.Stats()
	if st.Computes != 4 || st.Errors != 4 {
		t.Fatalf("stats: %+v", st)
	}
}

// bypassSpy forwards to a real remote segment, counting the GETs the
// tier issues, the subset answered with Bypass, and the PUTs.
type bypassSpy struct {
	remoteCache
	gets, bypassed, puts atomic.Int64
}

func (b *bypassSpy) GetTraced(key []byte, tr obs.TraceCtx) ([]uint64, GetStatus, error) {
	b.gets.Add(1)
	vals, status, err := b.remoteCache.GetTraced(key, tr)
	if status == Bypass {
		b.bypassed.Add(1)
	}
	return vals, status, err
}

func (b *bypassSpy) PutTraced(key []byte, vals []uint64, cost time.Duration, tr obs.TraceCtx) error {
	b.puts.Add(1)
	return b.remoteCache.PutTraced(key, vals, cost, tr)
}

// TestTieredDepMemoNoPutAfterFailedGet: a ghost GET that fails publishes
// nothing either — the tier PUTs only after a clean Miss, as TieredMemo
// does — and the failure is counted once.
func TestTieredDepMemoNoPutAfterFailedGet(t *testing.T) {
	remote := newMemRemote()
	spy := &bypassSpy{remoteCache: remote}
	tm := newTieredDepMemo(spy, TieredDepMemoConfig{Name: "get-down", Budget: 2})
	f := func(d *Dep) uint64 { return uint64(d.Get(0)+1) * 10 }
	var in DepInputs
	for i := int64(0); i < 3; i++ { // evicts 0; its ghost stays resident
		tm.Do(in.Reset().Int(i), f)
	}
	remote.mu.Lock()
	remote.fail = true
	remote.mu.Unlock()
	gets, puts := spy.gets.Load(), spy.puts.Load()
	if got := tm.Do(in.Reset().Int(0), f); got != 10 {
		t.Fatalf("ghost Do(0) = %d, want 10", got)
	}
	if n := spy.gets.Load() - gets; n != 1 {
		t.Fatalf("Do issued %d ghost GET(s), want 1", n)
	}
	if n := spy.puts.Load() - puts; n != 0 {
		t.Fatalf("Do issued %d PUT(s) after a failed GET", n)
	}
	if st := tm.Stats(); st.Errors != 1 || st.GhostHits != 0 || st.Computes != 4 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestTieredDepMemoNoPutAfterBypass: a ghost GET answered Bypass means
// the governor turned the segment off, so Do computes locally and
// publishes nothing (the contract TieredMemo honours). The segment is
// driven to BYPASS as TestGovernorBypassesCheapSegment does.
func TestTieredDepMemoNoPutAfterBypass(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The probation outlasts the test, so the segment stays bypassed.
	srv := reused.New(reused.Config{Governor: reused.GovernorConfig{Window: 64, Probation: 1 << 20}})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	defer func() { srv.Close(); <-serveDone }()
	c, err := DialCache(ClientConfig{Addr: ln.Addr().String(), Conns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seg, err := c.Segment("dep-bypass", SegmentConfig{OutWords: 1})
	if err != nil {
		t.Fatal(err)
	}

	// A 100ns computation can never pay for a network round trip.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		if time.Now().After(deadline) {
			st, _ := seg.Stats()
			t.Fatalf("governor never bypassed: stats %+v", st)
		}
		k := []byte{byte(i % 8)}
		_, status, err := seg.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if status == Bypass {
			break
		}
		if status == Miss {
			if err := seg.Put(k, []uint64{uint64(i)}, 100*time.Nanosecond); err != nil {
				t.Fatal(err)
			}
		}
	}

	spy := &bypassSpy{remoteCache: seg}
	tm := newTieredDepMemo(spy, TieredDepMemoConfig{Name: "dep-bypass", Budget: 2})
	f := func(d *Dep) uint64 { return uint64(d.Get(0)+1) * 10 }
	var in DepInputs
	for i := int64(0); i < 3; i++ { // evicts 0; its ghost stays resident
		tm.Do(in.Reset().Int(i), f)
	}
	before, err := seg.Stats()
	if err != nil {
		t.Fatal(err)
	}
	gets, puts := spy.gets.Load(), spy.puts.Load()
	if got := tm.Do(in.Reset().Int(0), f); got != 10 {
		t.Fatalf("ghost Do(0) = %d, want 10", got)
	}
	if n := spy.gets.Load() - gets; n != 1 {
		t.Fatalf("Do issued %d ghost GET(s), want 1", n)
	}
	if spy.bypassed.Load() != 1 {
		t.Fatalf("ghost GETs answered Bypass: %d, want 1", spy.bypassed.Load())
	}
	if n := spy.puts.Load() - puts; n != 0 {
		t.Fatalf("Do issued %d PUT(s) after a Bypass answer", n)
	}
	after, err := seg.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Records != before.Records || !after.BypassedNow {
		t.Fatalf("server stats moved: before %+v, after %+v", before, after)
	}
}
