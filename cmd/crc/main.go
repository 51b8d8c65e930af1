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
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"compreuse/internal/core"
	"compreuse/internal/profile"
)

func main() {
	o3 := flag.Bool("O3", false, "optimize aggressively (GCC -O3 stand-in)")
	o0 := flag.Bool("O0", false, "no optimization (default)")
	emit := flag.Bool("emit", false, "print the transformed source")
	run := flag.Bool("run", false, "report baseline vs transformed execution")
	minFreq := flag.Int64("min-freq", 8, "frequency filter threshold")
	noMerge := flag.Bool("no-merge", false, "disable hash-table merging")
	noSpec := flag.Bool("no-specialize", false, "disable code specialization")
	subBlocks := flag.Bool("sub-blocks", false, "enable the sub-block segment extension (paper §5 future work)")
	profOut := flag.String("profile-out", "", "write the profiling snapshot (gmon.out analogue) to this file")
	profIn := flag.String("profile-in", "", "compile from a previously saved profiling snapshot")
	hist := flag.Bool("hist", false, "print input-value histograms of the transformed segments")
	flag.Parse()
	_ = o0

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: crc [flags] file.c [main args...]")
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var args []int64
	for _, a := range flag.Args()[1:] {
		v, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			fatal(fmt.Errorf("main argument %q is not an integer", a))
		}
		args = append(args, v)
	}

	level := "O0"
	if *o3 {
		level = "O3"
	}
	opts := core.Options{
		Name:         path,
		Source:       string(src),
		OptLevel:     level,
		MainArgs:     args,
		MinFreq:      *minFreq,
		NoMerge:      *noMerge,
		NoSpecialize: *noSpec,
		SubBlocks:    *subBlocks,
	}
	if *profIn != "" {
		f, err := os.Open(*profIn)
		if err != nil {
			fatal(err)
		}
		snap, err := profile.LoadSnapshot(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		opts.Profile = snap
	}
	rep, err := core.Run(opts)
	if err != nil {
		fatal(err)
	}
	if *profOut != "" {
		f, err := os.Create(*profOut)
		if err != nil {
			fatal(err)
		}
		if err := rep.Snapshot().Save(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	if *emit {
		fmt.Print(rep.TransformedSource)
		return
	}

	fmt.Printf("%s (%s): %d segments analyzed, %d profiled, %d transformed\n",
		path, level, rep.SegmentsAnalyzed, rep.SegmentsProfiled, rep.SegmentsTransformed)
	if len(rep.Specialized) > 0 {
		fmt.Printf("specialized: %v\n", rep.Specialized)
	}
	for _, d := range rep.Decisions {
		status := "rejected"
		why := d.Reason
		switch {
		case d.Selected:
			status = "TRANSFORMED"
			why = ""
		case !d.Eligible:
		case !d.PassedOC:
			why = "fails O/C < 1"
		case !d.PassedFreq:
			why = "executed too rarely"
		case d.Profiled && d.Gain <= 0:
			why = "R*C - O <= 0"
		case d.Profiled:
			why = "nested inside a better segment"
		default:
			why = "not profiled"
		}
		line := fmt.Sprintf("  %-30s %-12s", d.Name, status)
		if d.Profile != nil {
			line += fmt.Sprintf(" N=%-8d Nds=%-7d R=%5.1f%% C=%8.0f O=%6.0f gain=%8.0f",
				d.Profile.N, d.Profile.Nds, d.Profile.ReuseRate()*100,
				d.Profile.MeasuredC, d.Profile.Overhead, d.Gain)
		}
		if why != "" {
			line += " [" + why + "]"
		}
		fmt.Println(line)
	}
	for _, t := range rep.Tables {
		fmt.Printf("  table %-40s entries=%-7d entry=%dB total=%dB hits=%d misses=%d collisions=%d\n",
			t.Name, t.Entries, t.EntryBytes, t.SizeBytes,
			t.Stats.Hits, t.Stats.Misses, t.Stats.Collisions)
	}
	if *hist {
		for _, d := range rep.Decisions {
			if !d.Selected || d.Profile == nil {
				continue
			}
			fmt.Printf("input histogram of %s (%d executions, %d distinct):\n",
				d.Name, d.Profile.N, d.Profile.Nds)
			h := profile.ValueHistogram(d.Profile.Census, 16)
			if h == nil {
				fmt.Println("  (multi-variable key: no scalar histogram)")
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
				fmt.Printf("  [%7d,%7d) |%s %d\n", b.Lo, b.Hi, strings.Repeat("#", n), b.Count)
			}
		}
	}
	if *run {
		fmt.Printf("baseline: ret=%d cycles=%d (%.4fs at 206MHz) energy=%.3fJ\n",
			rep.Baseline.Ret, rep.Baseline.Cycles, rep.Baseline.Seconds, rep.Baseline.Energy.Joules)
		fmt.Printf("reuse:    ret=%d cycles=%d (%.4fs at 206MHz) energy=%.3fJ\n",
			rep.Reuse.Ret, rep.Reuse.Cycles, rep.Reuse.Seconds, rep.Reuse.Energy.Joules)
		fmt.Printf("speedup:  %.3f   energy saving: %.1f%%\n", rep.Speedup(), rep.EnergySaving()*100)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crc:", err)
	os.Exit(1)
}
