package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"compreuse"
	"compreuse/internal/obs"
	"compreuse/internal/reused"
)

// crcbench fleet is the distributed-tier demo: it boots an in-process
// crcserve fleet (each node with a warm-snapshot file), drives it
// through a TieredMemo over a multi-node Client from many workers, kills one node
// mid-run, and restarts it from its drain-time snapshot — then reports
// what the paper's economics look like when the reuse table is a
// consistent-hash ring instead of a single process: per-node hit
// rates, read failovers, replica-write drops, and whether any Do call
// ever failed (none may: Do computes locally when the whole ring is
// unreachable, and reads fail over within a single call otherwise).

// fleetNode is one in-process crcserve instance the demo can kill and
// resurrect.
type fleetNode struct {
	addr string
	snap string
	srv  *reused.Server
	done chan error
	// warmSegs/warmEntries count what the startup restore brought back
	// (zero on a cold boot).
	warmSegs, warmEntries int
}

func startFleetNode(addr, snap string, drain time.Duration, govWindow int) (*fleetNode, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := reused.New(reused.Config{
		DrainGrace:    drain,
		SnapshotPath:  snap,
		SnapshotEvery: time.Hour, // the demo exercises the drain-time snapshot
		Governor:      reused.GovernorConfig{Window: govWindow},
	})
	segs, entries, err := srv.RestoreFile(snap)
	if err != nil {
		ln.Close()
		return nil, err
	}
	n := &fleetNode{addr: ln.Addr().String(), snap: snap, srv: srv,
		done: make(chan error, 1), warmSegs: segs, warmEntries: entries}
	go func() { n.done <- srv.Serve(ln) }()
	return n, nil
}

func (n *fleetNode) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		return err
	}
	return nil
}

// fleetReport is what one fleet demo run measured; the smoke test
// asserts on it directly.
type fleetReport struct {
	Nodes, Replicas, Workers int
	Elapsed                  time.Duration
	Tiered                   compreuse.TieredStats
	NodeStats                []compreuse.NodeStats
	ReplicaDrops             int64
	VictimAddr               string
	// WarmStats is the victim's segment statistics read right after its
	// restart, before this process sent it any PUT: nonzero Hits /
	// Resident here are the snapshot speaking.
	WarmStats    compreuse.RemoteStats
	WarmSegments int
	WarmEntries  int
	// Stitched counts traces whose spans cross the wire (a tiered.do
	// root plus at least one srv.* span); FailoverStitched is the subset
	// whose pool.get hopped past a down node mid-trace.
	Stitched         int
	FailoverStitched int
	// breakdown is the per-span-name latency table behind Stitched.
	breakdown *obs.Breakdown
}

func (r fleetReport) print(w io.Writer) {
	fmt.Fprintf(w, "fleet: %d nodes (replicas=%d), %d workers, %v\n",
		r.Nodes, r.Replicas, r.Workers, r.Elapsed.Round(time.Millisecond))
	t := r.Tiered
	fmt.Fprintf(w, "tiered: %d calls  L1 %d  L2 %d  computed %d  bypassed %d  remote errors %d\n",
		t.Calls, t.L1Hits, t.L2Hits, t.Computes, t.Bypassed, t.Errors)
	for _, ns := range r.NodeStats {
		state := "up"
		if ns.Down {
			state = "DOWN"
		}
		fmt.Fprintf(w, "node %-21s %-4s hit-rate %5.1f%%  probes %-7d resident %-6d failovers %d\n",
			ns.Addr, state, 100*ns.HitRate(), ns.Stats.Probes, ns.Stats.Resident, ns.Failovers)
	}
	fmt.Fprintf(w, "replica writes dropped: %d\n", r.ReplicaDrops)
	if r.VictimAddr != "" {
		warmRate := 0.0
		if r.WarmStats.Probes > 0 {
			warmRate = 100 * float64(r.WarmStats.Hits) / float64(r.WarmStats.Probes)
		}
		fmt.Fprintf(w, "victim %s restarted warm: %d segments / %d entries restored, "+
			"hit-rate %.1f%% and %d resident before its first new PUT\n",
			r.VictimAddr, r.WarmSegments, r.WarmEntries, warmRate, r.WarmStats.Resident)
	}
	if r.breakdown != nil {
		total := len(r.breakdown.Traces)
		// Guard the share computation: a short or unlucky sampling run
		// records traces without stitching any, and dividing by a zero
		// stitched count would print NaN/Inf here.
		if r.Stitched > 0 {
			fmt.Fprintf(w, "traces: %d total, %d stitched across the wire (%.1f%%), %d through a failover\n",
				total, r.Stitched, 100*float64(r.Stitched)/float64(total), r.FailoverStitched)
		} else {
			fmt.Fprintf(w, "traces: %d total, no stitched traces\n", total)
		}
		r.breakdown.Format(w, 1)
	}
}

// fleetMain runs the demo: boot, load, kill, restart warm, report.
func fleetMain(args []string, out, logw io.Writer) (fleetReport, error) {
	fs := flag.NewFlagSet("crcbench fleet", flag.ContinueOnError)
	fs.SetOutput(logw)
	nodes := fs.Int("nodes", 3, "fleet size (in-process crcserve instances)")
	replicas := fs.Int("replicas", 2, "copies of each record, primary included")
	workers := fs.Int("workers", 0, "concurrent Do callers; 0 = GOMAXPROCS")
	dur := fs.Duration("dur", 3*time.Second, "traffic duration")
	keys := fs.Int("keys", 2048, "distinct keys in the stream")
	cost := fs.Duration("cost", 20*time.Microsecond,
		"modeled computation cost per fleet-wide miss")
	kill := fs.Bool("kill", true, "kill one node mid-run and restart it from its snapshot")
	gov := fs.Bool("gov", false,
		"run the formula-3 admission governor on the nodes (off by default: the demo is "+
			"about routing and snapshots, and a BYPASS/READMIT cycle resets the counters "+
			"the warm-restart report reads)")
	snapDir := fs.String("snap-dir", "", "snapshot directory (default: a fresh temp dir)")
	seed := fs.Int64("seed", 1, "key-stream seed")
	trace := fs.Int("trace", 16,
		"trace every Nth Do end to end (1 = all, 0 disables); prints the latency breakdown")
	if err := fs.Parse(args); err != nil {
		return fleetReport{}, err
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	if *trace > 0 {
		// A deep ring: the demo wants traces from before the kill to
		// survive until the report, alongside everything after.
		obs.ResetTraces()
		obs.EnableTrace(*trace, 1<<16)
		defer obs.DisableTrace()
	}
	if *nodes < 1 {
		return fleetReport{}, fmt.Errorf("-nodes must be >= 1")
	}
	if *snapDir == "" {
		d, err := os.MkdirTemp("", "crcfleet")
		if err != nil {
			return fleetReport{}, err
		}
		defer os.RemoveAll(d)
		*snapDir = d
	}

	govWindow := -1 // disabled
	if *gov {
		govWindow = 0 // server default
	}

	// Boot the fleet. Drain grace is short: the demo's kill is graceful
	// (that is what produces the snapshot), and clients re-route anyway.
	fleet := make([]*fleetNode, *nodes)
	for i := range fleet {
		n, err := startFleetNode("127.0.0.1:0",
			filepath.Join(*snapDir, fmt.Sprintf("node-%d.snap", i)), 200*time.Millisecond, govWindow)
		if err != nil {
			return fleetReport{}, err
		}
		defer n.stop()
		fleet[i] = n
	}
	addrs := make([]string, len(fleet))
	for i, n := range fleet {
		addrs[i] = n.addr
	}

	client, err := compreuse.DialCache(compreuse.ClientConfig{
		Addr:        strings.Join(addrs, ","),
		Replicas:    *replicas,
		RedialEvery: 50 * time.Millisecond,
	})
	if err != nil {
		return fleetReport{}, err
	}
	defer client.Close()

	const segName = "fleetdemo"
	tm, err := compreuse.NewTieredMemo(client, compreuse.TieredMemoConfig{
		Name: segName,
		// A tiny LRU L1 keeps the local tier honest while forcing most
		// hits across the wire, where the ring is.
		L1Entries: 64, L1LRU: true, L1Shards: 4,
	})
	if err != nil {
		return fleetReport{}, err
	}
	seg, err := client.Segment(segName, compreuse.SegmentConfig{OutWords: 1})
	if err != nil {
		return fleetReport{}, err
	}

	keyBuf := make([][]byte, *keys)
	for i := range keyBuf {
		keyBuf[i] = []byte(fmt.Sprintf("fleet-key-%08d", i))
	}

	start := time.Now()
	deadline := start.Add(*dur)
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(id)))
			for !stop.Load() && time.Now().Before(deadline) {
				k := keyBuf[rng.Intn(len(keyBuf))]
				tm.Do(k, func() uint64 { return spinFor(*cost) })
			}
		}(w)
	}

	rep := fleetReport{Nodes: *nodes, Replicas: *replicas, Workers: *workers}
	// preSpans snapshots the ring while the victim is still down, so the
	// failover-era traces survive even if later traffic overwrites them;
	// Summarize dedups the overlap with the final snapshot.
	var preSpans []obs.SpanRecord
	if *kill && *nodes > 1 {
		// Kill the victim at 40% of the run — gracefully, so its final
		// snapshot carries everything it acknowledged — and restart it at
		// 70% from that snapshot, on the same address so the client's
		// redial loop finds it.
		victim := fleet[*nodes-1]
		rep.VictimAddr = victim.addr
		time.Sleep(time.Until(start.Add(*dur * 4 / 10)))
		if err := victim.stop(); err != nil {
			stop.Store(true)
			wg.Wait()
			return rep, fmt.Errorf("kill %s: %w", victim.addr, err)
		}
		fmt.Fprintf(logw, "fleet: killed %s (snapshot at %s)\n", victim.addr, victim.snap)

		time.Sleep(time.Until(start.Add(*dur * 7 / 10)))
		if *trace > 0 {
			preSpans = obs.TraceSpans()
		}
		reborn, err := startFleetNode(victim.addr, victim.snap, 200*time.Millisecond, govWindow)
		if err != nil {
			stop.Store(true)
			wg.Wait()
			return rep, fmt.Errorf("restart %s: %w", victim.addr, err)
		}
		defer reborn.stop()
		fleet[*nodes-1] = reborn
		rep.WarmSegments = reborn.warmSegs
		rep.WarmEntries = reborn.warmEntries

		// Interrogate the reborn node over a dedicated client before the
		// ring (or anyone) PUTs to it: restored statistics are the proof
		// of warmth.
		probe, err := compreuse.DialCache(compreuse.ClientConfig{Addr: reborn.addr, Conns: 1})
		if err == nil {
			if seg, serr := probe.Segment(segName, compreuse.SegmentConfig{OutWords: 1}); serr == nil {
				if st, werr := seg.Stats(); werr == nil {
					rep.WarmStats = st
				}
			}
			probe.Close()
		}
		fmt.Fprintf(logw, "fleet: restarted %s warm (hits %d, resident %d)\n",
			reborn.addr, rep.WarmStats.Hits, rep.WarmStats.Resident)
	}

	wg.Wait()
	rep.Elapsed = time.Since(start)
	rep.Tiered = tm.Stats()
	rep.NodeStats = seg.NodeStats()
	rep.ReplicaDrops = seg.ReplicaDrops()
	if *trace > 0 {
		bd := obs.Summarize(append(preSpans, obs.TraceSpans()...))
		rep.breakdown = &bd
		rep.Stitched = bd.Stitched
		rep.FailoverStitched = countFailoverStitched(&bd)
	}
	rep.print(out)
	return rep, nil
}

// countFailoverStitched counts the stitched traces that rode through a
// read failover: a pool.get span whose hops annotation is nonzero means
// that call skipped at least one down node before being served.
func countFailoverStitched(b *obs.Breakdown) int {
	n := 0
	for i := range b.Traces {
		tr := &b.Traces[i]
		if !tr.Stitched() {
			continue
		}
		for j := range tr.Spans {
			sp := &tr.Spans[j]
			if sp.Name != "pool.get" {
				continue
			}
			if hops, ok := sp.Annotation("hops"); ok && hops > 0 {
				n++
				break
			}
		}
	}
	return n
}

// spinFor busy-loops for d, modeling a computation whose cost C the
// governor weighs; the returned value depends on the loop so it cannot
// be optimized away.
func spinFor(d time.Duration) uint64 {
	end := time.Now().Add(d)
	var acc uint64
	for time.Now().Before(end) {
		acc++
	}
	return acc | 1
}
