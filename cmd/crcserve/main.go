// Command crcserve is the remote reuse-cache tier: one process holding
// the paper's reuse tables and serving them over TCP (internal/wire
// protocol) to a fleet of workers, each of which would otherwise
// re-discover the same distinct input patterns on its own. The online
// admission governor applies the paper's formula 3 (R·C − O > 0) per
// segment against live numbers — hit rates R from the shared tables,
// computation costs C reported by clients, overhead O measured from
// probe latency plus client round trips — and bypasses segments that
// stop paying for their round trip.
//
// Usage:
//
//	crcserve                        # listen on :8345, metrics on :8346
//	crcserve -addr :9000 -max-conns 512 -mem-budget 268435456
//	crcserve loadgen -addr host:8345 -dur 5s   # hammer a running server
//
// SIGINT/SIGTERM drain gracefully: the listener closes, responses to
// every request already received are flushed, then the process exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"compreuse"
	"compreuse/internal/core"
	"compreuse/internal/obs"
	"compreuse/internal/reused"
	"compreuse/internal/sigctx"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "loadgen" {
		rep, err := loadgenRun(os.Args[2:], os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
			os.Exit(1)
		}
		rep.print(os.Stdout)
		return
	}
	if err := run(os.Args[1:], os.Stderr, nil); err != nil && err != flag.ErrHelp {
		fmt.Fprintf(os.Stderr, "crcserve: %v\n", err)
		os.Exit(1)
	}
}

// removeStaleSocket unlinks a leftover socket file so a restart after
// an unclean exit can bind again. It refuses to remove anything that is
// not a socket — a mistyped -addr must not delete a regular file.
func removeStaleSocket(path string) error {
	info, err := os.Lstat(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if info.Mode()&os.ModeSocket == 0 {
		return fmt.Errorf("unix socket path %q exists and is not a socket", path)
	}
	return os.Remove(path)
}

// parsePriorRecords extracts decision records from any of the JSON
// shapes a deployment has at hand: a bare ledger array
// (Report.LedgerJSON), the /decisions document of a crcbench serve run
// (run key → ledger), or a full `crcbench -json` export (records under
// runs.*.ledger). Later records for a segment name win, which for the
// export means later run keys — the shapes are per-program ledgers, so
// collisions are same-named segments from different programs and any
// of them is an acceptable prior.
func parsePriorRecords(data []byte) ([]core.DecisionRecord, error) {
	if recs, err := core.ParseLedger(data); err == nil {
		return recs, nil
	}
	var byRun map[string]json.RawMessage
	if err := json.Unmarshal(data, &byRun); err != nil {
		return nil, fmt.Errorf("decision ledger: not a record array or a keyed document")
	}
	if raw, ok := byRun["runs"]; ok { // crcbench -json export
		var runs map[string]struct {
			Ledger []core.DecisionRecord `json:"ledger"`
		}
		if err := json.Unmarshal(raw, &runs); err != nil {
			return nil, fmt.Errorf("decision ledger: runs: %w", err)
		}
		keys := make([]string, 0, len(runs))
		for k := range runs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var recs []core.DecisionRecord
		for _, k := range keys {
			recs = append(recs, runs[k].Ledger...)
		}
		return recs, nil
	}
	// /decisions: run key → ledger array.
	keys := make([]string, 0, len(byRun))
	for k := range byRun {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var recs []core.DecisionRecord
	for _, k := range keys {
		var l []core.DecisionRecord
		if err := json.Unmarshal(byRun[k], &l); err != nil {
			return nil, fmt.Errorf("decision ledger: %s: %w", k, err)
		}
		recs = append(recs, l...)
	}
	return recs, nil
}

// run starts the server and blocks until SIGINT/SIGTERM has been
// received and the drain finished (returning nil), or a hard error
// occurs. ready, when non-nil, is called with the cache listener's
// address once the server is accepting — the tests use it to serve on
// port 0.
func run(args []string, logw io.Writer, ready func(net.Addr)) error {
	fs := flag.NewFlagSet("crcserve", flag.ContinueOnError)
	fs.SetOutput(logw)
	addr := fs.String("addr", "localhost:8345",
		"cache listen address: host:port for TCP, or unix:///path/to.sock")
	httpAddr := fs.String("http", "localhost:8346",
		"metrics/debug HTTP listen address (/metrics, /decisions, /debug/pprof); empty disables")
	maxConns := fs.Int("max-conns", reused.DefaultMaxConns, "max simultaneous client connections")
	memBudget := fs.Int64("mem-budget", 0, "modeled bytes across all segment tables; 0 = unlimited")
	shards := fs.Int("shards", 0, "lock stripes per segment table; 0 = near GOMAXPROCS")
	govWindow := fs.Int("gov-window", reused.DefaultWindow,
		"probes between admission-governor evaluations; negative disables the governor")
	govProbation := fs.Int("gov-probation", reused.DefaultProbation,
		"bypassed requests before a segment is readmitted")
	priorsPath := fs.String("priors", "",
		"decision-ledger JSON (crcbench -json decisions, or /decisions of a pipeline run) whose "+
			"static reuse estimates seed the admission governor: a cold segment with R-hat*C - O > 0 "+
			"is admitted without probing")
	coldProbation := fs.Bool("cold-probation", false,
		"start cold segments WITHOUT a positive-gain prior in bypass (probationary) instead of admitted")
	drain := fs.Duration("drain", reused.DefaultDrainGrace,
		"how long to keep serving connected clients after SIGINT/SIGTERM")
	snapshot := fs.String("snapshot", "",
		"warm-snapshot file: restored at startup, rewritten periodically and at drain; empty disables")
	snapshotEvery := fs.Duration("snapshot-every", reused.DefaultSnapshotEvery,
		"interval between periodic snapshots (with -snapshot)")
	traceEvery := fs.Int("trace-every", 0,
		"record a server span for every Nth traced request into /traces (1 = all, 0 disables)")
	peers := fs.String("peers", "",
		"comma-separated metric addresses (host:port) of peer crcserve nodes, merged into /fleet.json")
	quiet := fs.Bool("q", false, "suppress governor-decision logging")
	if err := fs.Parse(args); err != nil {
		return err
	}

	obs.Enable()
	if *traceEvery > 0 {
		obs.EnableTrace(*traceEvery, 0)
	}

	// Compile-time admission priors: the pipeline's decision ledger
	// carries, per segment, the static reuse estimate R̂ and the static
	// C/O cost model (cycles, read as ns — the prior only needs the
	// sign of R̂·C − O, and live windows correct the magnitudes).
	var admitPrior func(string) (reused.AdmitPrior, bool)
	if *priorsPath != "" {
		data, err := os.ReadFile(*priorsPath)
		if err != nil {
			return fmt.Errorf("priors: %w", err)
		}
		recs, err := parsePriorRecords(data)
		if err != nil {
			return fmt.Errorf("priors %s: %w", *priorsPath, err)
		}
		priors := map[string]reused.AdmitPrior{}
		for _, rec := range recs {
			if !rec.Eligible {
				continue
			}
			priors[rec.Segment] = reused.AdmitPrior{
				R:   rec.StaticReuseRate,
				CNS: rec.StaticC,
				ONS: rec.StaticO,
			}
		}
		admitPrior = func(name string) (reused.AdmitPrior, bool) {
			p, ok := priors[name]
			return p, ok
		}
		fmt.Fprintf(logw, "crcserve: %d admission priors from %s\n", len(priors), *priorsPath)
	}

	srv := reused.New(reused.Config{
		MaxConns:      *maxConns,
		MemBudget:     *memBudget,
		Shards:        *shards,
		DrainGrace:    *drain,
		SnapshotPath:  *snapshot,
		SnapshotEvery: *snapshotEvery,
		Governor: reused.GovernorConfig{
			Window:        *govWindow,
			Probation:     *govProbation,
			AdmitPrior:    admitPrior,
			ColdProbation: *coldProbation,
			OnDecision: func(d reused.Decision) {
				if !*quiet {
					fmt.Fprintf(logw, "governor: %s %s R=%.3f C=%v O=%v gain=%v\n",
						d.State, d.Segment, d.R,
						time.Duration(d.C), time.Duration(d.O),
						time.Duration(d.Gain))
				}
			},
		},
	})

	// Warm restore before the listener opens: the very first GET already
	// probes the tables and governor state the previous process learned.
	if *snapshot != "" {
		segs, entries, err := srv.RestoreFile(*snapshot)
		if err != nil {
			return fmt.Errorf("restore %s: %w", *snapshot, err)
		}
		if segs > 0 {
			fmt.Fprintf(logw, "crcserve: warm start, %d segments / %d entries from %s\n",
				segs, entries, *snapshot)
		}
	}

	// A unix:// address serves co-located clients over a unix-domain
	// socket — same wire protocol, no loopback TCP stack in the
	// round-trip half of overhead O. A stale socket file from an
	// unclean previous exit is removed before listening.
	network, address := compreuse.ParseAddr(*addr)
	if network == "unix" {
		if err := removeStaleSocket(address); err != nil {
			return err
		}
	}
	ln, err := net.Listen(network, address)
	if err != nil {
		return err
	}
	if network == "unix" {
		defer os.Remove(address)
	}

	ctx, stop := sigctx.Notify(context.Background())
	defer stop()

	// Observability sidecar: the standard obs surface plus the
	// governor's decision ledger, drained on the same signal context.
	httpDone := make(chan error, 1)
	if *httpAddr != "" {
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			ln.Close()
			return err
		}
		mux := obs.Handler()
		mux.HandleFunc("/decisions", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(srv.Decisions())
		})
		// /fleet.json scrapes the peers' /metrics.json on every request
		// and serves the merged fleet view; with no peers it is this
		// node's own snapshot in fleet shape.
		var peerAddrs []string
		if *peers != "" {
			for _, a := range strings.Split(*peers, ",") {
				if a = strings.TrimSpace(a); a != "" {
					peerAddrs = append(peerAddrs, a)
				}
			}
		}
		mux.Handle("/fleet.json",
			obs.FleetHandler(hln.Addr().String(), obs.Default(), peerAddrs, 2*time.Second))
		fmt.Fprintf(logw, "metrics on http://%s/metrics and /decisions\n", hln.Addr())
		go func() {
			httpDone <- sigctx.ServeHTTP(ctx, &http.Server{Handler: mux}, hln, *drain)
		}()
	} else {
		httpDone <- nil
	}

	fmt.Fprintf(logw, "crcserve listening on %s\n", ln.Addr())
	if ready != nil {
		ready(ln.Addr())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(logw, "crcserve: signal received, draining (up to %v)\n", *drain)

	shCtx, cancel := context.WithTimeout(context.Background(), *drain+time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveErr; !errors.Is(err, reused.ErrServerClosed) {
		return err
	}
	if err := <-httpDone; err != nil {
		return fmt.Errorf("metrics server: %w", err)
	}
	fmt.Fprintln(logw, "crcserve: clean drain")
	return nil
}
