// MPEG2: sweep the reuse-table size for the MPEG2_decode benchmark, whose
// Reference_IDCT kernel has 64-int-block keys — the case the paper uses to
// argue software tables beat small hardware reuse buffers (Table 5,
// Figures 14/15): tiny LRU buffers catch almost nothing, while a software
// table sized from profiling captures the full 48% reuse rate.
//
// Run with: go run ./examples/mpeg2
package main

import (
	"fmt"
	"log"

	"compreuse"
)

func main() {
	prog, err := compreuse.ProgramByName("MPEG2_decode")
	if err != nil {
		log.Fatal(err)
	}
	opts := prog.RunOptions("O0")

	// Hardware-buffer emulation (1..64 entries, LRU) vs software sizes.
	points := []compreuse.SweepPoint{
		{Entries: 1, LRU: true},
		{Entries: 4, LRU: true},
		{Entries: 16, LRU: true},
		{Entries: 64, LRU: true},
		{Entries: 64},  // direct-addressed, same budget
		{Entries: 256}, // growing software tables
		{Entries: 0},   // profiling-derived optimal
	}
	rep, outs, err := compreuse.RunSweep(opts, points)
	if err != nil {
		log.Fatal(err)
	}

	for _, rec := range rep.Ledger {
		if rec.Accepted {
			fmt.Printf("%s: Reference_IDCT reuse rate %.1f%% over %d blocks (%d distinct)\n\n",
				prog.Name, rec.ReuseRate*100, rec.N, rec.Nds)
			break
		}
	}

	fmt.Printf("%-28s %-12s %-10s %s\n", "table", "size", "hit ratio", "speedup")
	for _, out := range outs {
		kind := "direct"
		if out.Point.LRU {
			kind = "LRU"
		}
		entries := out.Point.Entries
		label := fmt.Sprintf("%d-entry %s", entries, kind)
		if entries == 0 {
			label = "optimal (from profiling)"
		}
		var probes, hits int64
		for _, t := range out.Tables {
			probes += t.Stats.Probes
			hits += t.Stats.Hits
		}
		ratio := 0.0
		if probes > 0 {
			ratio = float64(hits) / float64(probes)
		}
		fmt.Printf("%-28s %-12d %-10.1f %.2fx\n", label, out.SizeBytes, ratio*100, out.Speedup)
	}
}
