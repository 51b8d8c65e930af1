package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"compreuse"
	"compreuse/internal/depmemo"
	"compreuse/internal/reused"
	"compreuse/internal/reusetab"
	"compreuse/internal/wire"
)

// The tiered workloads drive the reuse runtime: TieredMemo.Do (tiered-
// read) or TieredDepMemo.Do (tiered-dep) from tierWorkers closed-loop
// goroutines over tierWorkers unix-socket connections to an in-process
// reused.Server with its default config, admission governor on.
const (
	tierWorkers = 2
	tierSetups  = 3
	tierKeys    = 1 << 16 // Zipf universe: 64 Ki ids or tuples
	tierZipfS   = 1.1
	tierLocal   = 4096 // L1 entries / local trie budget
	freshShare  = 0.05 // tiered-read ops on never-seen keys
	freshBase   = 1 << 20
	freshSpan   = 1 << 26 // fresh ids per worker; all ids stay below 2³²
	window      = time.Second
	latRing     = 1 << 21 // latency samples kept per worker
	depWarmOps  = 1 << 16
	spanLimit   = 1 << 18 // spans kept per worker in a traced run
	probeOps    = 20000   // ops per worker when a traced run probes these layers
)

// The compute is an LCG chain: slow to iterate, O(log n) to verify by
// jumping ahead. Its length sets C far above the remote overhead O so
// formula 3 keeps the segment admitted with a wide margin (the detail
// line reports the governor's live R·C/O).
const (
	lcgMul    = 6364136223846793005
	lcgAdd    = 1442695040888963407
	readSteps = 70_000
	depSteps  = 56_000
)

// spin iterates the LCG n times, yielding the processor every 1024
// steps (a few µs). Two workers computing on two CPUs would otherwise
// hold both of the runtime's processors for a whole compute while the
// client's and the in-process server's goroutines wait, inflating the
// round-trip time the governor charges to O.
func spin(x uint64, n int) uint64 {
	for i := range n {
		x = x*lcgMul + lcgAdd
		if i&1023 == 1023 {
			runtime.Gosched()
		}
	}
	return x
}

// jump returns spin(x, n) in O(log n) steps.
func jump(x uint64, n int) uint64 {
	accMul, accAdd := uint64(1), uint64(0)
	curMul, curAdd := uint64(lcgMul), uint64(lcgAdd)
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			accMul *= curMul
			accAdd = accAdd*curMul + curAdd
		}
		curAdd *= curMul + 1
		curMul *= curMul
	}
	return accMul*x + accAdd
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// tierKind is one of the two tiered workloads.
type tierKind int

const (
	kindRead tierKind = iota
	kindDep
)

// keySpace is the seed-derived input universe of a run.
type keySpace struct {
	salt uint64
	ref  []uint64 // reference result per Zipf id / tuple
}

func newKeySpace(seed int64, k tierKind) *keySpace {
	ks := &keySpace{salt: splitmix(uint64(seed) ^ 0x7469657265640000), ref: make([]uint64, tierKeys)}
	for i := range ks.ref {
		if k == kindRead {
			ks.ref[i] = ks.readValue(uint64(i))
		} else {
			ks.ref[i] = ks.depValue(ks.tuple(uint64(i)))
		}
	}
	return ks
}

// readValue is the reference result of a tiered-read id.
func (ks *keySpace) readValue(id uint64) uint64 { return jump(splitmix(id^ks.salt), readSteps) }

func (ks *keySpace) readCompute(id uint64) uint64 { return spin(splitmix(id^ks.salt), readSteps) }

// tuple is tiered-dep tuple t's six inputs: a selector, four values and
// a per-call noise slot the compute never reads (filled by the caller).
func (ks *keySpace) tuple(t uint64) [6]int64 {
	var in [6]int64
	in[0] = int64(t % 3)
	for i := 1; i <= 4; i++ {
		in[i] = int64(uint32(splitmix(t<<3 ^ uint64(i) ^ ks.salt)))
	}
	return in
}

// depReads lists the inputs the compute reads after the selector: 2–3
// reads per call in all.
var depReads = [3][]int{{1, 2}, {3}, {2, 4}}

func depSeed(sel int64, vals []int64) uint64 {
	x := uint64(sel)
	for _, v := range vals {
		x = splitmix(x ^ uint64(v))
	}
	return x
}

func (ks *keySpace) depValue(in [6]int64) uint64 {
	var vals []int64
	for _, i := range depReads[in[0]] {
		vals = append(vals, in[i])
	}
	return jump(depSeed(in[0], vals), depSteps)
}

// tierEnv is one booted server with a connected client.
type tierEnv struct {
	srv    *reused.Server
	served chan error
	sock   string
	client *compreuse.Client
	seg    *compreuse.RemoteSegment
	read   *compreuse.TieredMemo
	dep    *compreuse.TieredDepMemo
}

const segName = "perfbench"

// bootTier starts a server on a unix socket under .bench_build, dials it
// with tierWorkers connections, and builds the kind's memo.
func bootTier(k tierKind) (*tierEnv, error) {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sock := filepath.Join(dir, fmt.Sprintf("pb-%d.sock", os.Getpid()))
	os.Remove(sock)
	ln, err := net.Listen("unix", sock)
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	env := &tierEnv{srv: reused.New(reused.Config{}), served: make(chan error, 1), sock: sock}
	go func() { env.served <- env.srv.Serve(ln) }()
	env.client, err = compreuse.DialCache(compreuse.ClientConfig{Addr: "unix://" + sock, Conns: tierWorkers})
	if err != nil {
		env.close()
		return nil, fmt.Errorf("dial: %w", err)
	}
	if k == kindRead {
		env.read, err = compreuse.NewTieredMemo(env.client, compreuse.TieredMemoConfig{
			Name: segName, L1Entries: tierLocal, L1LRU: true})
	} else {
		env.dep, err = compreuse.NewTieredDepMemo(env.client, compreuse.TieredDepMemoConfig{
			Name: segName, Budget: tierLocal})
	}
	if err == nil {
		// Handles are cached per name: this is the memo's own L2 handle.
		env.seg, err = env.client.Segment(segName, compreuse.SegmentConfig{OutWords: 1})
	}
	if err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// close stops the client and the server and waits for Serve to return.
func (e *tierEnv) close() {
	if e.client != nil {
		e.client.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	e.srv.Shutdown(ctx)
	if err := <-e.served; err != nil && !errors.Is(err, reused.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "serve:", err)
	}
	os.Remove(e.sock)
}

// prefill PUTs every Zipf id's value into L2 from tierWorkers goroutines.
// RemoteSegment.Put opens no GET window, so the governor's R only ever
// sees the timed phase's own GETs.
func (e *tierEnv) prefill(ks *keySpace) error {
	errs := make([]error, tierWorkers)
	var wg sync.WaitGroup
	for w := range tierWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var kb compreuse.KeyBuf
			for id := w; id < tierKeys; id += tierWorkers {
				if err := e.seg.Put(kb.Reset().Int(int64(id)).Bytes(), []uint64{ks.ref[id]}, 0); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("prefill: %w", err)
	}
	st, err := e.seg.Stats()
	if err != nil {
		return err
	}
	if st.Resident != tierKeys {
		return fmt.Errorf("prefill: %d resident entries, want %d", st.Resident, tierKeys)
	}
	return nil
}

// depWarm fills the local trie and L2 through TieredDepMemo.Do, so the
// timed phase starts at the steady-state mix.
func (e *tierEnv) depWarm(ks *keySpace, seed int64) error {
	w := newTierWorker(ks, kindDep, seed, tierWorkers)
	for range depWarmOps {
		w.next()
		if v := e.dep.Do(w.in, w.depFn); v != w.want {
			return fmt.Errorf("warm-up: tuple %d returned %#x, want %#x", w.id, v, w.want)
		}
	}
	return nil
}

// setupTier boots, fills and returns a ready environment.
func setupTier(k tierKind, ks *keySpace, seed int64) (*tierEnv, error) {
	env, err := bootTier(k)
	if err != nil {
		return nil, err
	}
	if k == kindRead {
		err = env.prefill(ks)
	} else {
		err = env.depWarm(ks, seed)
	}
	if err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// tierWorker generates one goroutine's op stream and checks its results.
type tierWorker struct {
	ks    *keySpace
	kind  tierKind
	rng   *rand.Rand
	zipf  *rand.Zipf
	index int
	fresh uint64

	// the current op
	id     uint64
	want   uint64
	key    compreuse.KeyBuf
	in     *compreuse.DepInputs
	tuple  [6]int64
	readFn func() uint64
	depFn  func(*compreuse.Dep) uint64

	lat    []uint32 // ring of op latencies, ns
	nlat   int
	winOps []int64
	wrong  int64
}

func newTierWorker(ks *keySpace, k tierKind, seed int64, index int) *tierWorker {
	rng := rand.New(rand.NewSource(int64(splitmix(uint64(seed)*31 + uint64(index) + 1))))
	w := &tierWorker{ks: ks, kind: k, rng: rng, index: index, in: &compreuse.DepInputs{},
		zipf: rand.NewZipf(rng, tierZipfS, 1, tierKeys-1)}
	w.readFn = func() uint64 { return ks.readCompute(w.id) }
	w.depFn = func(d *compreuse.Dep) uint64 {
		sel := d.Get(0)
		vals := make([]int64, 0, 2)
		for _, i := range depReads[sel] {
			vals = append(vals, d.Get(i))
		}
		return spin(depSeed(sel, vals), depSteps)
	}
	return w
}

// next draws the worker's next op and its expected result.
func (w *tierWorker) next() {
	if w.kind == kindRead {
		if w.rng.Float64() < freshShare {
			w.id = freshBase + uint64(w.index)*freshSpan + w.fresh
			w.fresh++
			w.want = w.ks.readValue(w.id)
		} else {
			w.id = w.zipf.Uint64()
			w.want = w.ks.ref[w.id]
		}
		w.key.Reset().Int(int64(w.id))
		return
	}
	w.id = w.zipf.Uint64()
	w.want = w.ks.ref[w.id]
	w.tuple = w.ks.tuple(w.id)
	w.tuple[5] = w.rng.Int63()
	w.in.Reset()
	for _, v := range w.tuple {
		w.in.Int(v)
	}
}

// record notes one op's latency, its completion window and its result.
// start and end are offsets from the phase's start, read with
// time.Since: a monotonic read costs about half of time.Now's.
func (w *tierWorker) record(start, end time.Duration, got uint64) {
	w.lat[w.nlat%len(w.lat)] = uint32(min(end-start, time.Duration(^uint32(0))))
	w.nlat++
	if i := int(end / window); i < len(w.winOps) {
		w.winOps[i]++
	}
	if got != w.want {
		w.wrong++
	}
}

// latencies returns the kept samples in µs.
func (w *tierWorker) latencies() []float64 {
	n := min(w.nlat, len(w.lat))
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(w.lat[i]) / 1e3
	}
	return out
}

// tierSnapshot is the counters the validity checks compare across the
// timed phase.
type tierSnapshot struct {
	decisions int
	remote    compreuse.RemoteStats
	counts    map[string]int64 // the memo's tier counters
}

func (e *tierEnv) snapshot() (tierSnapshot, error) {
	st, err := e.seg.Stats()
	s := tierSnapshot{decisions: len(e.srv.Decisions()), remote: st}
	if e.read != nil {
		rs := e.read.Stats()
		s.counts = map[string]int64{"calls": rs.Calls, "l1_hit": rs.L1Hits, "l2_hit": rs.L2Hits,
			"compute": rs.Computes, "bypassed": rs.Bypassed, "errors": rs.Errors}
	} else {
		ds := e.dep.Stats()
		s.counts = map[string]int64{"calls": ds.Calls, "trie_hit": ds.L1Hits, "ghost_hit": ds.GhostHits,
			"compute": ds.Computes, "errors": ds.Errors}
	}
	return s, err
}

// phase is what an untraced timed phase measured: the workers with their
// samples, the CPU reading at each window boundary, and the bytes
// allocated and GC cycles run while the clock ran.
type phase struct {
	workers []*tierWorker
	cpu     []time.Duration
	alloc   uint64
	gcs     uint32
}

func (p phase) ops() int64 {
	var n int64
	for _, w := range p.workers {
		n += int64(w.nlat)
	}
	return n
}

// timed runs the untraced closed loop for d. Latency rings are allocated
// and touched before the clock starts, so the peak RSS does not grow
// with the op count and the allocation counters leave them out.
func (e *tierEnv) timed(ks *keySpace, k tierKind, seed int64, d time.Duration) phase {
	nwin := int(d / window)
	workers := make([]*tierWorker, tierWorkers)
	for i := range workers {
		w := newTierWorker(ks, k, seed, i)
		w.lat = make([]uint32, latRing)
		for j := range w.lat {
			w.lat[j] = 1
		}
		w.winOps = make([]int64, nwin)
		workers[i] = w
	}
	cpu := make([]time.Duration, 0, nwin+1)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				w.next()
				start := time.Since(t0)
				var got uint64
				if k == kindRead {
					got = e.read.Do(w.key.Bytes(), w.readFn)
				} else {
					got = e.dep.Do(w.in, w.depFn)
				}
				end := time.Since(t0)
				w.record(start, end, got)
				if end >= d {
					return
				}
			}
		}()
	}
	// CPU readings at every window boundary.
	for i := 0; i <= nwin; i++ {
		time.Sleep(time.Until(t0.Add(time.Duration(i) * window)))
		cpu = append(cpu, cpuTime())
	}
	wg.Wait()
	runtime.ReadMemStats(&ms1)
	return phase{workers: workers, cpu: cpu, alloc: ms1.TotalAlloc - ms0.TotalAlloc, gcs: ms1.NumGC - ms0.NumGC}
}

// The recorded tier-mix bands: each share of the timed phase's calls
// must fall inside its band.
var (
	readBands = []band{
		{"l1_hit", 0.68, 0.84}, {"l2_hit", 0.12, 0.28}, {"compute", 0.04, 0.065},
		{"bypassed", 0, 0}, {"errors", 0, 0},
	}
	depBands = []band{
		{"trie_hit", 0.70, 0.90}, {"ghost_hit", 0.01, 0.12}, {"compute", 0.06, 0.22},
		{"errors", 0, 0},
	}
)

// checkTimed applies the validity checks of an untraced tiered phase.
func (e *tierEnv) checkTimed(res *result, k tierKind, workers []*tierWorker, before, after tierSnapshot) {
	var wrong, ops int64
	for _, w := range workers {
		wrong += w.wrong
		ops += int64(w.nlat)
	}
	res.attempted += ops
	res.failed += wrong
	if wrong > 0 {
		res.problem("%d of %d ops returned a value other than the reference compute's", wrong, ops)
	}
	if after.decisions != before.decisions {
		res.problem("governor made %d transition(s) during the timed phase: %+v",
			after.decisions-before.decisions, e.srv.Decisions()[before.decisions:])
	}
	if after.remote.BypassedNow || after.remote.Bypassed != before.remote.Bypassed {
		res.problem("segment answered %d request(s) with BYPASS during the timed phase",
			after.remote.Bypassed-before.remote.Bypassed)
	}
	calls := after.counts["calls"] - before.counts["calls"]
	shares := map[string]float64{}
	for name, n := range after.counts {
		if name != "calls" {
			shares[name] = float64(n-before.counts[name]) / float64(max(calls, 1))
		}
	}
	bands := readBands
	if k == kindDep {
		bands = depBands
	}
	if bad := outside(shares, bands); len(bad) > 0 {
		res.problem("tier mix outside its band for %v: %v", bad, shares)
	}
	res.detail["mix"] = shares
	r := after.remote
	if r.O > 0 {
		res.detail["governor"] = map[string]any{"R": r.R, "C_us": r.C.Seconds() * 1e6,
			"O_us": r.O.Seconds() * 1e6, "RC_over_O": r.R * float64(r.C) / float64(r.O)}
	}
}

// setupRepeated runs the set-up tierSetups times, keeping the last
// environment, and returns the set-up durations.
func setupRepeated(k tierKind, seed int64) (*tierEnv, *keySpace, []float64, error) {
	var setups []float64
	var env *tierEnv
	var ks *keySpace
	for i := range tierSetups {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		ks = newKeySpace(seed, k)
		var err error
		if env, err = setupTier(k, ks, seed); err != nil {
			return nil, nil, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return env, ks, setups, nil
}

// runTiered is an untraced tiered workload.
func runTiered(k tierKind, seed int64, seconds int) *result {
	res := newResult()
	env, ks, setups, err := setupRepeated(k, seed)
	if err != nil {
		res.problem("%v", err)
		return res
	}
	defer env.close()
	before, err := env.snapshot()
	if err != nil {
		res.problem("stats before the timed phase: %v", err)
		return res
	}
	ph := env.timed(ks, k, seed, time.Duration(seconds)*time.Second)
	res.detail["peak_rss_mb"] = peakRSSMB()
	after, err := env.snapshot()
	if err != nil {
		res.problem("stats after the timed phase: %v", err)
		return res
	}
	env.checkTimed(res, k, ph.workers, before, after)

	winOps := make([]int64, len(ph.workers[0].winOps))
	var lat []float64
	for _, w := range ph.workers {
		for i, n := range w.winOps {
			winOps[i] += n
		}
		lat = append(lat, w.latencies()...)
	}
	opsS, cpuUS := windowRates(winOps, ph.cpu, window)
	calls := after.counts["calls"] - before.counts["calls"]
	computes := after.counts["compute"] - before.counts["compute"]
	res.endToEnd(setups, opsS, lat, cpuUS, float64(calls)/float64(max(computes, 1)))
	return res
}

// traceTiered is the traced run of a tiered workload. Unless probe is
// set it times an untraced phase (tracing overhead, coverage, runtime
// counters) for half the budget, then replays ops through the layers'
// public calls with a span around each for the other half. probe runs
// only a short replay, for runs whose own workload does not touch these
// layers.
func traceTiered(k tierKind, seed int64, seconds int, probe bool) *result {
	res := newResult()
	ks := newKeySpace(seed, k)
	env, err := setupTier(k, ks, seed)
	if err != nil {
		res.problem("%v", err)
		return res
	}
	defer env.close()

	half := time.Duration(seconds) * time.Second / 2
	var untracedOps int64
	var untracedLat []float64
	if !probe {
		before, err := env.snapshot()
		if err != nil {
			res.problem("%v", err)
			return res
		}
		ph := env.timed(ks, k, seed, half)
		after, err := env.snapshot()
		if err != nil {
			res.problem("%v", err)
			return res
		}
		env.checkTimed(res, k, ph.workers, before, after)
		for _, w := range ph.workers {
			untracedLat = append(untracedLat, w.latencies()...)
		}
		if untracedOps = ph.ops(); untracedOps > 0 {
			res.add("runtime.alloc_bytes_per_op", float64(ph.alloc)/float64(untracedOps), "B", int(untracedOps))
			res.add("runtime.gc_cycles_per_kop", float64(ph.gcs)/float64(untracedOps)*1e3, "count", int(untracedOps))
		}
	}

	rp := newReplay(env, ks, k)
	workers := make([]*replayWorker, tierWorkers)
	for i := range workers {
		workers[i] = &replayWorker{replay: rp, gen: newTierWorker(ks, k, seed+1, tierWorkers+1+i), rec: newRecorder(spanLimit)}
	}
	// Warm the replay's own local tier untraced, then trace.
	rp.run(workers, 0, depWarmOps/tierWorkers)
	for _, w := range workers {
		w.rec.spans = w.rec.spans[:0]
		w.ops, w.wrong, w.micro = 0, 0, microTotals{}
	}
	if rp.trie != nil {
		rp.trieBase = rp.trie.Stats()
	}
	opsCap := 1 << 30
	if probe {
		opsCap = probeOps
	}
	tracedWall := rp.run(workers, half, opsCap)

	lt := layerTotals{}
	var ops, wrong int64
	var micro microTotals
	for _, w := range workers {
		lt.add(w.rec.spans)
		ops += w.ops
		wrong += w.wrong
		micro.add(w.micro)
	}
	res.attempted += ops
	res.failed += wrong
	if wrong > 0 {
		res.problem("%d traced ops returned a wrong value", wrong)
	}
	if k == kindRead {
		rp.readLayers(res, lt, ops)
	} else {
		rp.depLayers(res, lt, ops)
	}
	rp.remoteLayers(res, lt, micro)
	if !probe && untracedOps > 0 {
		res.addTraceCost(float64(untracedOps)/half.Seconds(), float64(ops)/tracedWall.Seconds(),
			time.Duration(mean(untracedLat)*1e3), lt.selfSum()/time.Duration(max(ops, 1)), int(ops))
	}
	return res
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// replay re-enacts Do through the layers' public calls: the L1 MemoTable
// (or the internal footprint trie), RemoteSegment.Get, the compute,
// Store/Record and RemoteSegment.Put.
type replay struct {
	env  *tierEnv
	ks   *keySpace
	kind tierKind

	l1 *compreuse.MemoTable

	trieMu   sync.Mutex
	trie     *depmemo.Table
	trieBase depmemo.Stats // the trie's counters when tracing began

	// mirror is a server-geometry table holding the prefilled keys: the
	// benchmark probes it to time the shard probe a GET pays.
	mirror *reusetab.Sharded
}

func newReplay(env *tierEnv, ks *keySpace, k tierKind) *replay {
	rp := &replay{env: env, ks: ks, kind: k,
		mirror: reusetab.NewSharded(reusetab.Config{Name: "mirror", Segs: 1, KeyBytes: 16,
			OutWords: []int{1}, OutBytes: []int{8}}, serverShards())}
	if k == kindRead {
		rp.l1 = compreuse.NewMemoTable(compreuse.MemoTableConfig{Name: "replay/l1", Entries: tierLocal, LRU: true})
		var kb compreuse.KeyBuf
		for id := range tierKeys {
			rp.mirror.Record(0, kb.Reset().Int(int64(id)).Bytes(), []uint64{ks.ref[id]})
		}
	} else {
		rp.trie = depmemo.New(depmemo.Config{Name: "replay/trie", Entries: tierLocal, Ghosts: true})
	}
	return rp
}

// serverShards is reused.Config's default stripe count.
func serverShards() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	return n
}

// microTotals times, outside any op, the wire and probe work one GET
// implies: encoding and decoding its request and response frames, and
// one probe of a server-geometry table.
type microTotals struct {
	gets           int64
	encode, decode time.Duration
	probe          time.Duration
	frames, probes int64
}

func (m *microTotals) add(o microTotals) {
	m.gets += o.gets
	m.encode += o.encode
	m.decode += o.decode
	m.probe += o.probe
	m.frames += o.frames
	m.probes += o.probes
}

// microReps repeats each micro-timed call so the timer's own cost is a
// small share of the reading.
const microReps = 8

type replayWorker struct {
	*replay
	gen   *tierWorker
	rec   *recorder
	ops   int64
	wrong int64
	micro microTotals
	buf   []byte
	frame wire.Frame
	path  []depmemo.Step
	fetch tupleFetch
}

// run drives the workers' replays for d (0 = no time limit) or until a
// worker has done maxOps ops or filled its recorder, and returns the
// wall time.
func (rp *replay) run(workers []*replayWorker, d time.Duration, maxOps int) time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < maxOps && !w.rec.full(8); n++ {
				w.gen.next()
				var got uint64
				if rp.kind == kindRead {
					got = w.readOp()
				} else {
					got = w.depOp()
				}
				w.ops++
				if got != w.gen.want {
					w.wrong++
				}
				if d > 0 && time.Since(t0) >= d {
					return
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

func (w *replayWorker) readOp() uint64 {
	r, key := w.rec, w.gen.key.Bytes()
	root := r.root("tiered.do")
	i := r.begin("memo.lookup", root)
	v, ok := w.l1.Lookup(key)
	r.end(i)
	if ok {
		r.end(root)
		r.rename(root, "tiered.do.l1")
		return v
	}
	i = r.begin("client.get", root)
	vals, st, err := w.env.seg.Get(key)
	r.end(i)
	if err == nil && st == compreuse.Hit && len(vals) > 0 {
		v = vals[0]
		i = r.begin("memo.store", root)
		w.l1.Store(key, v)
		r.end(i)
		r.end(root)
		r.rename(root, "tiered.do.l2")
		w.microGet(key, v)
		return v
	}
	i = r.begin("compute", root)
	start := time.Now()
	v = w.gen.readFn()
	cost := time.Since(start)
	r.end(i)
	i = r.begin("memo.store", root)
	w.l1.Store(key, v)
	r.end(i)
	if err == nil && st == compreuse.Miss {
		i = r.begin("client.put", root)
		w.env.seg.Put(key, []uint64{v}, cost)
		r.end(i)
	}
	r.end(root)
	r.rename(root, "tiered.do.compute")
	w.microGet(key, v)
	return v
}

// tupleFetch serves the labels of the current tuple: an Int input's
// label is its value, as in DepMemo.
type tupleFetch struct{ in *[6]int64 }

func (f tupleFetch) Fetch(l depmemo.Loc) uint64 { return uint64(f.in[l.Input]) }

func (w *replayWorker) depOp() uint64 {
	r := w.rec
	w.fetch.in = &w.gen.tuple
	root := r.root("depmemo.do")
	i := r.begin("depmemo.probe", root)
	w.trieMu.Lock()
	res := w.trie.Probe(w.fetch)
	var v uint64
	var key []byte
	switch {
	case res.Hit:
		v = res.Outs[0]
	case res.Ghost:
		key = append([]byte(nil), res.Key...)
	}
	w.trieMu.Unlock()
	r.end(i)
	if res.Hit {
		r.rename(i, "depmemo.probe.hit")
		r.end(root)
		r.rename(root, "depmemo.do.hit")
		return v
	}
	if res.Ghost {
		i = r.begin("client.get", root)
		vals, st, err := w.env.seg.Get(key)
		r.end(i)
		if err == nil && st == compreuse.Hit && len(vals) == 1 {
			i = r.begin("depmemo.refill", root)
			w.trieMu.Lock()
			w.trie.Refill(res, key, vals)
			w.trieMu.Unlock()
			r.end(i)
			r.end(root)
			r.rename(root, "depmemo.do.ghost")
			w.microGet(key, vals[0])
			return vals[0]
		}
	}

	in := &w.gen.tuple
	i = r.begin("compute", root)
	start := time.Now()
	w.path = append(w.path[:0], depmemo.Step{Loc: depmemo.Loc{Input: 0, Off: depmemo.OffWhole}, Label: uint64(in[0])})
	vals := make([]int64, 0, 2)
	for _, j := range depReads[in[0]] {
		w.path = append(w.path, depmemo.Step{Loc: depmemo.Loc{Input: int32(j), Off: depmemo.OffWhole}, Label: uint64(in[j])})
		vals = append(vals, in[j])
	}
	v = spin(depSeed(in[0], vals), depSteps)
	cost := time.Since(start)
	r.end(i)
	i = r.begin("depmemo.record", root)
	w.trieMu.Lock()
	w.trie.Record(w.path, []uint64{v})
	w.trieMu.Unlock()
	r.end(i)
	w.buf = depmemo.EncodeSteps(w.buf[:0], w.path)
	i = r.begin("client.put", root)
	w.env.seg.Put(w.buf, []uint64{v}, cost)
	r.end(i)
	r.end(root)
	r.rename(root, "depmemo.do.compute")
	// Keep the mirror table in step with the server's, so a later ghost
	// GET of this key probes a resident entry.
	w.mirror.Record(0, w.buf, []uint64{v})
	return v
}

// microGet times the wire and table work of one GET of key answered with
// v: its request and response frames' encoding and decoding, and a probe
// of the mirror table.
func (w *replayWorker) microGet(key []byte, v uint64) {
	req := wire.Frame{Op: wire.OpGet, Seg: 0, Seq: uint64(w.ops), Cost: 20000, Key: key}
	resp := wire.Frame{Op: wire.OpGet, Flags: wire.FlagResp | wire.FlagHit, Seq: uint64(w.ops), Vals: []uint64{v}}
	for _, f := range []*wire.Frame{&req, &resp} {
		start := time.Now()
		for range microReps {
			w.buf = wire.AppendFrame(w.buf[:0], f)
		}
		w.micro.encode += time.Since(start) / microReps
		start = time.Now()
		for range microReps {
			wire.DecodeFrame(w.buf[4:], &w.frame)
		}
		w.micro.decode += time.Since(start) / microReps
		w.micro.frames++
	}
	start := time.Now()
	for range microReps {
		w.mirror.ProbeWord(0, key)
	}
	w.micro.probe += time.Since(start) / microReps
	w.micro.probes++
	w.micro.gets++
}

func (rp *replay) readLayers(res *result, lt layerTotals, ops int64) {
	us, ns := time.Microsecond, time.Nanosecond
	l1, l2, cmp := lt.get("tiered.do.l1"), lt.get("tiered.do.l2"), lt.get("tiered.do.compute")
	res.add("memo.lookup_ns", lt.meanTotal("memo.lookup", ns), "ns", int(lt.get("memo.lookup").count))
	res.add("memo.store_ns", lt.meanTotal("memo.store", ns), "ns", int(lt.get("memo.store").count))
	res.add("tiered.do_l1_us", lt.meanTotal("tiered.do.l1", us), "us", int(l1.count))
	res.add("tiered.do_l2_us", lt.meanTotal("tiered.do.l2", us), "us", int(l2.count))
	res.add("tiered.do_compute_us", lt.meanTotal("tiered.do.compute", us), "us", int(cmp.count))
	res.add("tiered.residual_us", lt.selfPer(ops, us, "tiered.do.l1", "tiered.do.l2", "tiered.do.compute"), "us", int(ops))
	res.add("tiered.compute_fn_us", lt.meanTotal("compute", us), "us", int(lt.get("compute").count))
	res.add("tiered.l1_hit_share", float64(l1.count)/float64(max(ops, 1)), "ratio", int(ops))
	res.add("tiered.l2_hit_share", float64(l2.count)/float64(max(ops, 1)), "ratio", int(ops))
	res.add("tiered.compute_share", float64(cmp.count)/float64(max(ops, 1)), "ratio", int(ops))
}

func (rp *replay) depLayers(res *result, lt layerTotals, ops int64) {
	us, ns := time.Microsecond, time.Nanosecond
	hits, ghosts, cmp := lt.get("depmemo.do.hit"), lt.get("depmemo.do.ghost"), lt.get("depmemo.do.compute")
	st, base := rp.trie.Stats(), rp.trieBase
	probes, records := st.Probes-base.Probes, st.Records-base.Records
	res.add("depmemo.hit_ns", lt.meanTotal("depmemo.probe.hit", ns), "ns", int(hits.count))
	res.add("depmemo.ghost_get_us", lt.meanTotal("depmemo.do.ghost", us), "us", int(ghosts.count))
	res.add("depmemo.record_ns", lt.meanTotal("depmemo.record", ns), "ns", int(lt.get("depmemo.record").count))
	res.add("depmemo.residual_us", lt.selfPer(ops, us, "depmemo.do.hit", "depmemo.do.ghost", "depmemo.do.compute"), "us", int(ops))
	res.add("depmemo.compute_fn_us", lt.meanTotal("compute", us), "us", int(lt.get("compute").count))
	res.add("depmemo.ghost_share", float64(ghosts.count)/float64(max(ops, 1)), "ratio", int(ops))
	res.add("depmemo.compute_share", float64(cmp.count)/float64(max(ops, 1)), "ratio", int(ops))
	res.add("depmemo.evictions_per_op", float64(st.Evictions-base.Evictions)/float64(max(probes, 1)), "ratio", int(probes))
	res.add("depmemo.mean_footprint", float64(st.FootprintSum-base.FootprintSum)/float64(max(records, 1)), "count", int(records))
}

// remoteLayers reports the client, wire and server-table rows. A GET's
// round trip less its wire and probe work is the rtt residual: syscalls,
// scheduling, batching and the server's connection handling.
func (rp *replay) remoteLayers(res *result, lt layerTotals, m microTotals) {
	us := time.Microsecond
	get := lt.meanTotal("client.get", us)
	res.add("client.get_us", get, "us", int(lt.get("client.get").count))
	res.add("client.put_us", lt.meanTotal("client.put", us), "us", int(lt.get("client.put").count))
	enc := float64(m.encode) / float64(max(m.frames, 1))
	dec := float64(m.decode) / float64(max(m.frames, 1))
	probe := float64(m.probe) / float64(max(m.probes, 1))
	res.add("wire.encode_ns", enc, "ns", int(m.frames))
	res.add("wire.decode_ns", dec, "ns", int(m.frames))
	res.add("reusetab.probe_ns", probe, "ns", int(m.probes))
	res.add("reused.rtt_residual_us", get-(2*enc+2*dec+probe)/1e3, "us", int(m.gets))
}
