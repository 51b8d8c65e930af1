package compreuse

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compreuse/internal/obs"
)

// The model-based oracle for the dependence memo and both tiered memos:
// seeded random op sequences from concurrent callers, over an in-memory
// L2 that fails GETs and PUTs and answers BYPASS at random for the
// tiered ones. Whatever serves a call, its result must equal the
// unmemoized compute — a result depends only on its tracked reads — and
// the where-served counters must account for every call.

var errChaos = errors.New("injected remote fault")

// chaosRemote is an in-memory remoteCache that fails a seeded share of
// GETs and PUTs and answers another share of GETs with BYPASS.
type chaosRemote struct {
	mu  sync.Mutex
	m   map[string]uint64
	rng *rand.Rand

	hits, bypasses, errs int
}

func newChaosRemote(seed int64) *chaosRemote {
	return &chaosRemote{m: map[string]uint64{}, rng: rand.New(rand.NewSource(seed))}
}

func (c *chaosRemote) GetTraced(key []byte, _ obs.TraceCtx) ([]uint64, GetStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch r := c.rng.Intn(10); {
	case r == 0:
		c.errs++
		return nil, Miss, errChaos
	case r == 1:
		c.bypasses++
		return nil, Bypass, nil
	}
	if v, ok := c.m[string(key)]; ok {
		c.hits++
		return []uint64{v}, Hit, nil
	}
	return nil, Miss, nil
}

func (c *chaosRemote) PutTraced(key []byte, vals []uint64, _ time.Duration, _ obs.TraceCtx) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng.Intn(10) == 0 {
		c.errs++
		return errChaos
	}
	c.m[string(key)] = vals[0]
	return nil
}

func (c *chaosRemote) Stats() (RemoteStats, error) { return RemoteStats{}, nil }

func (c *chaosRemote) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.m)
	return nil
}

// oracleInput is one drawn input set: a selector, three integers and a
// four-word slice, from ranges small enough that sets repeat.
type oracleInput struct {
	sel, a, b, c int64
	w            [4]uint64
}

func drawInput(rng *rand.Rand) oracleInput {
	in := oracleInput{sel: rng.Int63n(6), a: rng.Int63n(4), b: rng.Int63n(4), c: rng.Int63n(3)}
	for i := range in.w {
		in.w[i] = uint64(rng.Intn(3))
	}
	return in
}

// depReader is what the oracle's computation reads through: a *Dep in
// the memo, the plain input set in the reference.
type depReader interface {
	Get(i int) int64
	Word(i, j int) uint64
	Len(i int) int
}

func (in *oracleInput) Get(i int) int64 { return [4]int64{in.sel, in.a, in.b, in.c}[i] }

func (in *oracleInput) Word(_, j int) uint64 { return in.w[j] }

func (in *oracleInput) Len(int) int { return len(in.w) }

// footprintFn reads a selector-dependent subset of its inputs, so
// footprints vary from one tracked read to six.
func footprintFn(r depReader) uint64 {
	sel := r.Get(0)
	h := uint64(sel) + 1
	switch sel % 3 {
	case 0:
		h = mix64(h ^ uint64(r.Get(1)))
	case 1:
		h = mix64(h ^ uint64(r.Get(2)))
		h = mix64(h ^ uint64(r.Get(3)))
	default:
		n := r.Len(4)
		h = mix64(h ^ r.Word(4, int(sel)%n))
		if sel > 3 {
			h = mix64(h ^ r.Word(4, 0) ^ uint64(r.Get(1)))
		}
	}
	return h
}

const (
	oracleWorkers = 4
	oracleOps     = 2000
)

// checkRemoteCounts matches a memo's L2 counters against what the
// remote answered: every GET hit is served, every BYPASS and every
// failed GET or PUT is counted once.
func checkRemoteCounts(t *testing.T, seed int64, remote *chaosRemote, l2Hits, bypassed, errs int64) {
	t.Helper()
	if l2Hits != int64(remote.hits) || bypassed != int64(remote.bypasses) || errs != int64(remote.errs) {
		t.Fatalf("seed %d: L2 hits/bypasses/errors %d/%d/%d, remote answered %d/%d/%d",
			seed, l2Hits, bypassed, errs, remote.hits, remote.bypasses, remote.errs)
	}
}

// runOracle drives op from oracleWorkers goroutines, each with its own
// seeded generator, and fails on the first wrong result.
func runOracle(t *testing.T, seed int64, op func(rng *rand.Rand) error) {
	t.Helper()
	errs := make(chan error, oracleWorkers)
	var wg sync.WaitGroup
	for w := 0; w < oracleWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for i := 0; i < oracleOps; i++ {
				if err := op(rng); err != nil {
					errs <- err
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
}

func TestTieredDepMemoOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		remote := newChaosRemote(seed)
		// A budget far below the ~200 distinct footprints keeps
		// evicting, so ghosts are matched and refilled throughout.
		tm := newTieredDepMemo(remote, TieredDepMemoConfig{Name: "oracle-dep", Budget: 8})
		compute := func(d *Dep) uint64 { return footprintFn(d) }
		runOracle(t, seed*100, func(rng *rand.Rand) error {
			x := drawInput(rng)
			var in DepInputs
			in.Int(x.sel).Int(x.a).Int(x.b).Int(x.c).Words(x.w[:])
			if got, want := tm.Do(&in, compute), footprintFn(&x); got != want {
				return fmt.Errorf("seed %d: Do(%+v) = %#x, want %#x", seed, x, got, want)
			}
			return nil
		})
		st := tm.Stats()
		if st.Calls != oracleWorkers*oracleOps || st.Calls != st.L1Hits+st.GhostHits+st.Computes {
			t.Fatalf("seed %d: counters do not account for every call: %+v", seed, st)
		}
		checkRemoteCounts(t, seed, remote, st.GhostHits, st.Bypassed, st.Errors)
		if local := tm.Local(); local.Calls != st.Calls || local.Hits != st.L1Hits {
			t.Fatalf("seed %d: local %+v disagrees with tier %+v", seed, local, st)
		}
		if st.GhostHits == 0 || st.Bypassed == 0 || st.Errors == 0 || tm.Local().Evictions == 0 {
			t.Fatalf("seed %d: a path went unexercised: %+v, local %+v", seed, st, tm.Local())
		}
	}
}

// TestDepMemoOracle is the oracle's plain DepMemo arm: the footprint trie
// alone, unbounded and under a budget that keeps evicting. Every call
// must return the unmemoized compute and end as exactly one hit or one
// compute.
func TestDepMemoOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, budget := range []int{0, 8} {
			m := NewDepMemo(DepConfig{Name: "oracle-dep-plain", Budget: budget})
			var computes atomic.Int64
			compute := func(d *Dep) uint64 { computes.Add(1); return footprintFn(d) }
			runOracle(t, seed*100+int64(budget), func(rng *rand.Rand) error {
				x := drawInput(rng)
				var in DepInputs
				in.Int(x.sel).Int(x.a).Int(x.b).Int(x.c).Words(x.w[:])
				if got, want := m.Do(&in, compute), footprintFn(&x); got != want {
					return fmt.Errorf("seed %d budget %d: Do(%+v) = %#x, want %#x", seed, budget, x, got, want)
				}
				return nil
			})
			st := m.Stats()
			if st.Calls != oracleWorkers*oracleOps || st.Calls != st.Hits+computes.Load() {
				t.Fatalf("seed %d budget %d: %d computes do not account for every call: %+v", seed, budget, computes.Load(), st)
			}
			if st.Hits == 0 || st.MaxFootprint < 2 || st.MeanFootprint >= float64(st.MaxFootprint) {
				t.Fatalf("seed %d budget %d: footprints did not vary or nothing hit: %+v", seed, budget, st)
			}
			switch {
			case budget == 0 && (st.Evictions != 0 || int64(st.Resident) != st.Distinct):
				t.Fatalf("seed %d: unbounded memo lost results: %+v", seed, st)
			case budget > 0 && (st.Evictions == 0 || st.Resident > budget):
				t.Fatalf("seed %d budget %d: budget not enforced or never hit: %+v", seed, budget, st)
			}
		}
	}
}

func TestTieredMemoOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		remote := newChaosRemote(seed)
		// An L1 far below the 64-key space sends most calls to L2.
		tm := newTieredMemo(remote, TieredMemoConfig{Name: "oracle-flat", L1Entries: 8, L1LRU: true, L1Shards: 2})
		want := func(k uint64) uint64 { return mix64(k ^ 0x5eed) }
		runOracle(t, seed*100, func(rng *rand.Rand) error {
			k := uint64(rng.Intn(64))
			var kb KeyBuf
			if got := tm.Do(kb.Int(int64(k)).Bytes(), func() uint64 { return want(k) }); got != want(k) {
				return fmt.Errorf("seed %d: Do(%d) = %#x, want %#x", seed, k, got, want(k))
			}
			return nil
		})
		st := tm.Stats()
		if st.Calls != oracleWorkers*oracleOps || st.Calls != st.L1Hits+st.L2Hits+st.Computes {
			t.Fatalf("seed %d: counters do not account for every call: %+v", seed, st)
		}
		checkRemoteCounts(t, seed, remote, st.L2Hits, st.Bypassed, st.Errors)
		if st.L2Hits == 0 || st.Bypassed == 0 || st.Errors == 0 {
			t.Fatalf("seed %d: a path went unexercised: %+v", seed, st)
		}
	}
}
