package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"compreuse"
	"compreuse/internal/obs"
)

// loadgenReport is what a loadgen run measured; the CI smoke test
// asserts on it directly instead of scraping stdout.
type loadgenReport struct {
	Fleet, WorkersPer, ConnsPer int
	Elapsed                     time.Duration
	Ops                         int64
	Errors                      int64
	P50, P99, SmoothedRTT       time.Duration
	Server                      compreuse.RemoteStats
	Decisions                   []string
	// Stitched counts traces whose spans cross the wire (a client root
	// plus at least one server span). Zero unless -trace is set.
	Stitched int
	// breakdown is the per-span-name latency table behind Stitched,
	// printed after the standard report when tracing was on.
	breakdown *obs.Breakdown
}

func (r loadgenReport) print(w io.Writer) {
	fmt.Fprintf(w, "loadgen: %d clients × %d workers × %d conns, %d ops in %v = %.0f ops/s\n",
		r.Fleet, r.WorkersPer, r.ConnsPer, r.Ops, r.Elapsed.Round(time.Millisecond),
		float64(r.Ops)/r.Elapsed.Seconds())
	fmt.Fprintf(w, "GET RTT p50 %v  p99 %v  (client-smoothed %v)\n",
		r.P50, r.P99, r.SmoothedRTT)
	s := r.Server
	hitPct := 0.0
	if s.Probes > 0 {
		hitPct = 100 * float64(s.Hits) / float64(s.Probes)
	}
	fmt.Fprintf(w, "server: probes %d  hits %d (%.1f%%)  stored %d  resident %d  bypassed %d\n",
		s.Probes, s.Hits, hitPct, s.Distinct, s.Resident, s.Bypassed)
	state := "ADMITTED"
	if s.BypassedNow {
		state = "BYPASS"
	}
	fmt.Fprintf(w, "governor: state %s  R=%.3f  C=%v  O=%v\n", state, s.R, s.C, s.O)
	for _, d := range r.Decisions {
		fmt.Fprintf(w, "governor: %s\n", d)
	}
	if r.Errors > 0 {
		fmt.Fprintf(w, "errors: %d\n", r.Errors)
	}
	if r.breakdown != nil {
		total := len(r.breakdown.Traces)
		// A short run can sample traces without stitching any (the
		// server halves live in another process, or sampling missed the
		// cross-wire requests); dividing by zero here would print NaN.
		if r.Stitched > 0 {
			fmt.Fprintf(w, "traces: %d total, %d stitched across the wire (%.1f%%)\n",
				total, r.Stitched, 100*float64(r.Stitched)/float64(total))
		} else {
			fmt.Fprintf(w, "traces: %d total, no stitched traces\n", total)
		}
		r.breakdown.Format(w, 1)
	}
}

// loadgenRun models a fleet: `-fleet` independent processes (each its
// own Client and connection pool) hammering one shared segment with an
// overlapping key stream, so cross-client reuse is real, not an
// artifact of a shared in-process cache. Each worker probes, computes
// on a miss (busy-spinning `-cost`), and reports the measured cost with
// its PUT — exactly the protocol TieredMemo speaks — while a monitor
// goroutine polls server stats to surface governor decisions live.
func loadgenRun(args []string, logw io.Writer) (loadgenReport, error) {
	fs := flag.NewFlagSet("crcserve loadgen", flag.ContinueOnError)
	fs.SetOutput(logw)
	addr := fs.String("addr", "localhost:8345",
		"crcserve address (host:port or unix:///path/to.sock)")
	fleet := fs.Int("fleet", 4, "independent clients (modeled fleet processes)")
	workers := fs.Int("workers", 0, "workers per client; 0 = GOMAXPROCS")
	conns := fs.Int("conns", 2, "pooled connections per client")
	dur := fs.Duration("dur", 2*time.Second, "traffic duration")
	keys := fs.Int("keys", 1024, "distinct keys in the shared stream")
	cost := fs.Duration("cost", 20*time.Microsecond,
		"modeled computation cost per miss (busy spin, reported as C)")
	segName := fs.String("seg", "loadgen", "segment name")
	entries := fs.Int("entries", 0, "server-side table bound (0 = unbounded)")
	seed := fs.Int64("seed", 1, "key-stream seed")
	trace := fs.Int("trace", 0,
		"trace every Nth request end to end (1 = all, 0 disables); prints the latency breakdown")
	if err := fs.Parse(args); err != nil {
		return loadgenReport{}, err
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	if *trace > 0 {
		obs.ResetTraces()
		obs.EnableTrace(*trace, 0)
	}

	type member struct {
		c   *compreuse.Client
		seg *compreuse.RemoteSegment
	}
	members := make([]member, *fleet)
	for i := range members {
		c, err := compreuse.DialCache(compreuse.ClientConfig{Addr: *addr, Conns: *conns})
		if err != nil {
			return loadgenReport{}, fmt.Errorf("dial %s: %w", *addr, err)
		}
		defer c.Close()
		seg, err := c.Segment(*segName, compreuse.SegmentConfig{Entries: *entries, LRU: *entries > 0})
		if err != nil {
			return loadgenReport{}, err
		}
		members[i] = member{c: c, seg: seg}
	}

	keyBuf := make([][]byte, *keys)
	for i := range keyBuf {
		keyBuf[i] = []byte(fmt.Sprintf("loadgen-key-%08d", i))
	}

	var (
		ops, errs atomic.Int64
		sampleMu  sync.Mutex
		samples   []int64
	)
	deadline := time.Now().Add(*dur)
	var wg sync.WaitGroup
	for mi, m := range members {
		for w := 0; w < *workers; w++ {
			wg.Add(1)
			go func(m member, id int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(*seed + int64(id)))
				local := make([]int64, 0, 4096)
				for time.Now().Before(deadline) {
					k := keyBuf[rng.Intn(len(keyBuf))]
					// Each iteration is one traced unit of work: the root
					// span covers probe + compute + record, mirroring what
					// TieredMemo.Do would stitch together.
					root := obs.StartRoot("loadgen.do")
					start := time.Now()
					_, status, err := m.seg.GetTraced(k, root.Context())
					rtt := time.Since(start)
					ops.Add(1)
					if err != nil {
						errs.Add(1)
						root.Outcome("err")
						root.End()
						continue
					}
					if status != compreuse.Bypass {
						local = append(local, rtt.Nanoseconds())
					}
					switch status {
					case compreuse.Hit:
						root.Outcome("hit")
					case compreuse.Bypass:
						root.Outcome("bypass")
					default:
						root.Outcome("miss")
					}
					if status != compreuse.Hit {
						// Miss or bypass: pay the modeled computation.
						csp := obs.StartSpan(root.Context(), "compute")
						cstart := time.Now()
						v := spin(*cost)
						csp.End()
						if status == compreuse.Miss {
							if perr := m.seg.PutTraced(k, []uint64{v}, time.Since(cstart), root.Context()); perr != nil {
								errs.Add(1)
							}
						}
					}
					root.End()
				}
				sampleMu.Lock()
				samples = append(samples, local...)
				sampleMu.Unlock()
			}(m, mi*(*workers)+w)
		}
	}

	// Surface governor flips while traffic runs.
	var decisions []string
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		last := false
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for time.Now().Before(deadline) {
			<-tick.C
			st, err := members[0].seg.Stats()
			if err != nil {
				return
			}
			if st.BypassedNow != last {
				last = st.BypassedNow
				verdict := "READMIT"
				if st.BypassedNow {
					verdict = "BYPASS"
				}
				decisions = append(decisions,
					fmt.Sprintf("%s %s (R=%.3f C=%v O=%v)", verdict, *segName, st.R, st.C, st.O))
			}
		}
	}()
	wg.Wait()
	<-monitorDone
	elapsed := *dur

	rep := loadgenReport{
		Fleet: *fleet, WorkersPer: *workers, ConnsPer: *conns,
		Elapsed:     elapsed,
		Ops:         ops.Load(),
		Errors:      errs.Load(),
		SmoothedRTT: members[0].c.RTT(),
		Decisions:   decisions,
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	if n := len(samples); n > 0 {
		rep.P50 = time.Duration(samples[n/2])
		rep.P99 = time.Duration(samples[n*99/100])
	}
	st, err := members[0].seg.Stats()
	if err != nil {
		return rep, err
	}
	rep.Server = st
	if *trace > 0 {
		// Summarize the local span ring. When the server runs in this
		// process (the smoke test, crcbench fleet) its srv.* spans share
		// the ring and traces stitch; against a remote server the server
		// halves live in its own /traces endpoint instead.
		bd := obs.Summarize(obs.TraceSpans())
		rep.breakdown = &bd
		rep.Stitched = bd.Stitched
	}
	return rep, nil
}

// spin busy-loops for d, modeling a computation whose cost C the
// governor weighs; returns a value derived from the loop so it cannot
// be optimized away.
func spin(d time.Duration) uint64 {
	end := time.Now().Add(d)
	var acc uint64
	for time.Now().Before(end) {
		acc++
	}
	return acc | 1
}
