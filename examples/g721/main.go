// G721: run the suite's G721_encode benchmark — the paper's flagship
// example — at both optimization levels and compare against the published
// numbers (Tables 6 and 7: speedups 1.56 at O0 and 1.31 at O3).
//
// Run with: go run ./examples/g721
package main

import (
	"fmt"
	"log"

	"compreuse"
)

func main() {
	prog, err := compreuse.ProgramByName("G721_encode")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s — kernel %s\n", prog.Name, prog.KernelFunc)
	fmt.Printf("scale: %s\n\n", prog.ScaleNote)

	paper := map[string]float64{"O0": 1.56, "O3": 1.31}
	for _, level := range []string{"O0", "O3"} {
		rep, err := prog.Run(level)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: baseline %.3fs -> reuse %.3fs  speedup %.2fx (paper: %.2fx)\n",
			level, rep.Baseline.Seconds, rep.Reuse.Seconds, rep.Speedup(), paper[level])
		for _, rec := range rep.Ledger {
			if rec.Accepted {
				fmt.Printf("    %s: N=%d distinct=%d R=%.1f%%\n",
					rec.Segment, rec.N, rec.Nds, rec.ReuseRate*100)
			}
		}
		for _, t := range rep.Tables {
			fmt.Printf("    table: %d entries x %dB = %dB, %d hits / %d probes\n",
				t.Entries, t.EntryBytes, t.SizeBytes, t.Stats.Hits, t.Stats.Probes)
		}
		fmt.Println()
	}

	// The paper's Figures 9/10 variants: binary search and shift versions
	// of quan still profit from reuse, just less (Table 6: 1.11 and 1.48).
	for _, name := range []string{"G721_encode_s", "G721_encode_b"} {
		v, err := compreuse.ProgramByName(name)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := v.Run("O0")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: speedup %.2fx\n", name, rep.Speedup())
	}
}
