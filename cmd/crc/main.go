// Command crc is the computation-reuse compiler driver: it runs the full
// scheme of Ding & Li (CGO 2004) on a MiniC source file and reports what
// it decided, optionally emitting the transformed source (the scheme is a
// source-to-source transformation, §3.1).
//
// Usage:
//
//	crc [flags] file.c [arg1 arg2 ...]
//
//	-O0 | -O3        optimization level (default -O0)
//	-emit            print the transformed source to stdout (otherwise the
//	                 per-segment decision report is printed)
//	-run             also report baseline vs transformed execution
//	-min-freq N      execution-frequency filter threshold (default 8)
//	-no-merge        disable hash-table merging (§2.5)
//	-no-specialize   disable code specialization (§2.4)
//	-sub-blocks      enable sub-block segments (§5 future work)
//	-profile-out F   save the profiling snapshot to F (gmon.out analogue)
//	-profile-in F    reuse a saved snapshot instead of re-profiling
//	-hist            print input-value histograms of transformed segments
//
// The trailing integer arguments are passed to the program's main.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"compreuse/internal/core"
	"compreuse/internal/profile"
)

var errUsage = errors.New("usage: crc [flags] file.c [main args...]")

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "crc:", err)
		os.Exit(1)
	}
}

// run is the driver: it parses args (flags, the source file and main's
// arguments), compiles, and writes the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("crc", flag.ContinueOnError)
	o3 := fs.Bool("O3", false, "optimize aggressively (GCC -O3 stand-in)")
	fs.Bool("O0", false, "no optimization (default)")
	emit := fs.Bool("emit", false, "print the transformed source")
	runFlag := fs.Bool("run", false, "report baseline vs transformed execution")
	minFreq := fs.Int64("min-freq", 8, "frequency filter threshold")
	noMerge := fs.Bool("no-merge", false, "disable hash-table merging")
	noSpec := fs.Bool("no-specialize", false, "disable code specialization")
	subBlocks := fs.Bool("sub-blocks", false, "enable the sub-block segment extension (paper §5 future work)")
	profOut := fs.String("profile-out", "", "write the profiling snapshot (gmon.out analogue) to this file")
	profIn := fs.String("profile-in", "", "compile from a previously saved profiling snapshot")
	hist := fs.Bool("hist", false, "print input-value histograms of the transformed segments")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	if fs.NArg() < 1 {
		return errUsage
	}
	path := fs.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var mainArgs []int64
	for _, a := range fs.Args()[1:] {
		v, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			return fmt.Errorf("main argument %q is not an integer", a)
		}
		mainArgs = append(mainArgs, v)
	}

	level := "O0"
	if *o3 {
		level = "O3"
	}
	opts := core.Options{
		Name:         path,
		Source:       string(src),
		OptLevel:     level,
		MainArgs:     mainArgs,
		MinFreq:      *minFreq,
		NoMerge:      *noMerge,
		NoSpecialize: *noSpec,
		SubBlocks:    *subBlocks,
	}
	if *profIn != "" {
		f, err := os.Open(*profIn)
		if err != nil {
			return err
		}
		snap, err := profile.LoadSnapshot(f)
		f.Close()
		if err != nil {
			return err
		}
		opts.Profile = snap
	}
	rep, err := core.Run(opts)
	if err != nil {
		return err
	}
	if *profOut != "" {
		f, err := os.Create(*profOut)
		if err != nil {
			return err
		}
		if err := rep.Snapshot().Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	if *emit {
		fmt.Fprint(stdout, rep.TransformedSource)
		return nil
	}

	fmt.Fprintf(stdout, "%s (%s): %d segments analyzed, %d profiled, %d transformed\n",
		path, level, rep.SegmentsAnalyzed, rep.SegmentsProfiled, rep.SegmentsTransformed)
	if len(rep.Specialized) > 0 {
		fmt.Fprintf(stdout, "specialized: %v\n", rep.Specialized)
	}
	for _, rec := range rep.Ledger {
		status := "rejected"
		if rec.Accepted {
			status = "TRANSFORMED"
		}
		line := fmt.Sprintf("  %-30s %-12s", rec.Segment, status)
		if rec.Profiled {
			line += fmt.Sprintf(" N=%-8d Nds=%-7d R=%5.1f%% C=%8.0f O=%6.0f gain=%8.0f",
				rec.N, rec.Nds, rec.ReuseRate*100, rec.C, rec.O, rec.Gain)
		}
		if !rec.Accepted {
			line += " [" + rec.Reason + "]"
		}
		fmt.Fprintln(stdout, line)
	}
	for _, t := range rep.Tables {
		fmt.Fprintf(stdout, "  table %-40s entries=%-7d entry=%dB total=%dB hits=%d misses=%d collisions=%d\n",
			t.Name, t.Entries, t.EntryBytes, t.SizeBytes,
			t.Stats.Hits, t.Stats.Misses, t.Stats.Collisions)
	}
	if *hist {
		for _, rec := range rep.Ledger {
			sp := rep.Profiles[rec.Segment]
			if !rec.Accepted || sp == nil {
				continue
			}
			fmt.Fprintf(stdout, "input histogram of %s (%d executions, %d distinct):\n",
				rec.Segment, rec.N, rec.Nds)
			h := profile.ValueHistogram(sp.Census, 16)
			if h == nil {
				fmt.Fprintln(stdout, "  (multi-variable key: no scalar histogram)")
				continue
			}
			var max int64 = 1
			for _, b := range h {
				if b.Count > max {
					max = b.Count
				}
			}
			for _, b := range h {
				n := int(b.Count * 40 / max)
				fmt.Fprintf(stdout, "  [%7d,%7d) |%s %d\n", b.Lo, b.Hi, strings.Repeat("#", n), b.Count)
			}
		}
	}
	if *runFlag {
		fmt.Fprintf(stdout, "baseline: ret=%d cycles=%d (%.4fs at 206MHz) energy=%.3fJ\n",
			rep.Baseline.Ret, rep.Baseline.Cycles, rep.Baseline.Seconds, rep.Baseline.Energy.Joules)
		fmt.Fprintf(stdout, "reuse:    ret=%d cycles=%d (%.4fs at 206MHz) energy=%.3fJ\n",
			rep.Reuse.Ret, rep.Reuse.Cycles, rep.Reuse.Seconds, rep.Reuse.Energy.Joules)
		fmt.Fprintf(stdout, "speedup:  %.3f   energy saving: %.1f%%\n", rep.Speedup(), rep.EnergySaving()*100)
	}
	return nil
}
