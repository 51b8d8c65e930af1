// Command crcbench regenerates the evaluation of Ding & Li (CGO 2004):
// every table (3-10) and figure (5-8, 11-15) of the paper, using the MiniC
// re-implementations of the Mediabench kernels and GNU Go in
// internal/bench. Beyond the paper it also runs the two ablation studies
// (-exp ablationA, -exp ablationB) and the concurrent-runtime sweep
// (-exp conc: single-mutex vs sharded reuse-table throughput at 1-8
// goroutines).
//
// Usage:
//
//	crcbench                 # everything, full workload sizes
//	crcbench -exp table6     # one table or figure
//	crcbench -exp table6,fig14
//	crcbench -exp conc       # the concurrent-runtime throughput sweep
//	crcbench -scale 4        # divide workload sizes by 4 (quick look)
//	crcbench -json out.json  # also write results + decision ledgers as JSON
//	crcbench -list           # list experiment names
//
//	crcbench serve -exp fig5 -scale 4   # run experiments, then serve
//	                                    # /metrics, /decisions, /debug/pprof
//
//	crcbench fleet -nodes 3 -dur 3s     # distributed-tier demo: boot an
//	                                    # in-process crcserve ring, kill a
//	                                    # node mid-load, restart it warm
//	                                    # from its snapshot
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"compreuse/internal/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "fleet" {
		if _, err := fleetMain(os.Args[2:], os.Stdout, os.Stderr); err != nil && err != flag.ErrHelp {
			fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
			os.Exit(1)
		}
		return
	}

	exp := flag.String("exp", "all", "comma-separated experiment names (see -list), or 'all'")
	scale := flag.Int64("scale", 1, "divide workload sizes by this factor")
	list := flag.Bool("list", false, "list experiment names and exit")
	quiet := flag.Bool("q", false, "suppress progress output")
	jsonOut := flag.String("json", "", "also write results, run metadata and decision ledgers to this JSON file")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-8s %s\n", e.Name, e.Desc)
		}
		return
	}

	runner := bench.NewRunner()
	runner.Scale = *scale
	if !*quiet {
		runner.Progress = os.Stderr
	}

	start := time.Now()
	results, err := runExperiments(os.Stdout, runner, *exp, *jsonOut != "")
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "%d experiments in %.1fs\n", len(results), time.Since(start).Seconds())
	}

	if *jsonOut != "" {
		if err := writeJSONDoc(*jsonOut, runner, results); err != nil {
			fmt.Fprintf(os.Stderr, "-json: %v\n", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
		}
	}
}

// expResult is one executed experiment; Output is captured only when the
// run needs it for JSON export (the terminal stream stays byte-identical
// either way).
type expResult struct {
	Name   string
	Desc   string
	Output string
}

// runExperiments executes the selected experiments against w, returning
// one result per experiment run. With capture set, each experiment's
// rendered tables/figures are also kept in the result.
func runExperiments(w io.Writer, runner *bench.Runner, sel string, capture bool) ([]expResult, error) {
	want := map[string]bool{}
	all := sel == "all" || sel == ""
	for _, name := range strings.Split(sel, ",") {
		want[strings.TrimSpace(name)] = true
	}

	var results []expResult
	for _, e := range bench.Experiments() {
		if !all && !want[e.Name] {
			continue
		}
		out := w
		var buf strings.Builder
		if capture {
			out = io.MultiWriter(w, &buf)
		}
		if err := e.Run(out, runner); err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprintln(w)
		results = append(results, expResult{Name: e.Name, Desc: e.Desc, Output: buf.String()})
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no experiment matched %q (try -list)", sel)
	}
	return results, nil
}
