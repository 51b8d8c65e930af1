package bench

import (
	"fmt"
	"io"
	"strings"

	"compreuse/internal/core"
)

// This file regenerates the paper's Tables 3-10 from pipeline runs.
// Formats mirror the paper's columns; EXPERIMENTS.md records the
// paper-vs-measured comparison.

// Table3 reproduces "Factors which affect the optimization decision":
// per program, the main segment's computation granularity (µs), hashing
// overhead (µs), number of distinct input patterns, reuse rate, and hash
// table size.
func Table3(w io.Writer, r *Runner) error {
	fmt.Fprintln(w, "Table 3. Factors which affect the optimization decision")
	var rows [][]string
	for _, p := range Core() {
		rep, err := r.Report(p.Name, "O0")
		if err != nil {
			return err
		}
		sp := MainProfile(rep)
		if sp == nil {
			rows = append(rows, []string{p.Name, "-", "-", "-", "-", "-"})
			continue
		}
		tab := MainTable(rep)
		size := "-"
		if tab != nil {
			size = humanBytes(tab.SizeBytes)
		}
		rows = append(rows, []string{
			p.Name,
			fmt.Sprintf("%.2f", sp.MeasuredC/206), // cycles -> µs at 206 MHz
			fmt.Sprintf("%.2f", sp.Overhead/206),
			fmt.Sprintf("%d", sp.Nds),
			fmt.Sprintf("%.1f%%", sp.ReuseRate()*100),
			size,
		})
	}
	textTable(w, []string{"Programs", "Computation(us)", "Overhead(us)", "DIP#", "Reuse Rate", "Hash Table Size"}, rows)
	return nil
}

// Table4 reproduces "Number of code segments": analyzed, profiled and
// transformed segment counts, the kernel functions, and program size.
func Table4(w io.Writer, r *Runner) error {
	fmt.Fprintln(w, "Table 4. Number of code segments (CS)")
	var rows [][]string
	for _, p := range Core() {
		rep, err := r.Report(p.Name, "O0")
		if err != nil {
			return err
		}
		lines := strings.Count(p.Source, "\n")
		rows = append(rows, []string{
			p.Name,
			p.KernelFunc,
			fmt.Sprintf("%d", rep.SegmentsAnalyzed),
			fmt.Sprintf("%d", rep.SegmentsProfiled),
			fmt.Sprintf("%d", rep.SegmentsTransformed),
			fmt.Sprintf("%d", lines),
		})
	}
	textTable(w, []string{"Programs", "Functions", "Analyzed CS", "Profiled CS", "Transformed CS", "code size (lines)"}, rows)
	return nil
}

// table5Sizes are the paper's limited-buffer entry counts.
var table5Sizes = []int{1, 4, 16, 64}

// Table5 reproduces "Hit Ratios with Limited Buffers": LRU tables of 1, 4,
// 16 and 64 entries, emulating the hardware reuse buffers of prior work.
func Table5(w io.Writer, r *Runner) error {
	fmt.Fprintln(w, "Table 5. Hit Ratios with Limited Buffers (LRU)")
	var points []core.SweepPoint
	for _, n := range table5Sizes {
		points = append(points, core.SweepPoint{Entries: n, LRU: true})
	}
	var rows [][]string
	for _, p := range Core() {
		_, outs, err := r.Sweep(p.Name, "O0", points)
		if err != nil {
			return err
		}
		row := []string{p.Name}
		var entry64 int
		for i, out := range outs {
			var probes, hits int64
			for _, t := range out.Tables {
				probes += t.Stats.Probes
				hits += t.Stats.Hits
			}
			ratio := 0.0
			if probes > 0 {
				ratio = float64(hits) / float64(probes)
			}
			row = append(row, fmt.Sprintf("%.1f%%", ratio*100))
			if table5Sizes[i] == 64 {
				entry64 = out.SizeBytes
			}
		}
		row = append(row, fmt.Sprintf("%d", entry64))
		rows = append(rows, row)
	}
	textTable(w, []string{"Programs", "1-entry", "4-entry", "16-entry", "64-entry", "64-entry Size (Byte)"}, rows)
	return nil
}

// speedupTable renders Tables 6 (O0) and 7 (O3): original and transformed
// times plus speedups, with the harmonic mean over the non-variant
// programs.
func speedupTable(w io.Writer, r *Runner, level, title string) error {
	fmt.Fprintln(w, title)
	var rows [][]string
	var hm []float64
	for _, p := range All() {
		rep, err := r.Report(p.Name, level)
		if err != nil {
			return err
		}
		sp := rep.Speedup()
		rows = append(rows, []string{
			p.Name,
			fmt.Sprintf("%.2f", rep.Baseline.Seconds),
			fmt.Sprintf("%.2f", rep.Reuse.Seconds),
			fmt.Sprintf("%.2f", sp),
		})
		if !p.Variant {
			hm = append(hm, sp)
		}
	}
	rows = append(rows, []string{"Harmonic Mean", "", "", fmt.Sprintf("%.2f", HarmonicMean(hm))})
	textTable(w, []string{"Programs", "Original (s)", "Computation Reuse (s)", "Speedup"}, rows)
	return nil
}

// Table6 reproduces "Performance Improvement with O0".
func Table6(w io.Writer, r *Runner) error {
	return speedupTable(w, r, "O0", "Table 6. Performance Improvement with O0")
}

// Table7 reproduces "Performance Improvement with O3".
func Table7(w io.Writer, r *Runner) error {
	return speedupTable(w, r, "O3", "Table 7. Performance Improvement with O3")
}

// energyTable renders Tables 8 (O0) and 9 (O3).
func energyTable(w io.Writer, r *Runner, level, title string) error {
	fmt.Fprintln(w, title)
	var rows [][]string
	for _, p := range Core() {
		rep, err := r.Report(p.Name, level)
		if err != nil {
			return err
		}
		rows = append(rows, []string{
			p.Name,
			fmt.Sprintf("%.2f", rep.Baseline.Energy.Joules),
			fmt.Sprintf("%.2f", rep.Reuse.Energy.Joules),
			fmt.Sprintf("%.1f%%", rep.EnergySaving()*100),
		})
	}
	textTable(w, []string{"Programs", "Original (J)", "Comp. Reuse (J)", "Energy Saving"}, rows)
	return nil
}

// Table8 reproduces "Energy Saving with O0".
func Table8(w io.Writer, r *Runner) error {
	return energyTable(w, r, "O0", "Table 8. Energy Saving with O0")
}

// Table9 reproduces "Energy Saving with O3".
func Table9(w io.Writer, r *Runner) error {
	return energyTable(w, r, "O3", "Table 9. Energy Saving with O3")
}

// Table10 reproduces "Performance Improvement for Different Input Files":
// the transformation is decided from the training input's profile, but the
// measurement runs on the alternative input (O3).
func Table10(w io.Writer, r *Runner) error {
	fmt.Fprintln(w, "Table 10. Performance Improvement for Different Input Files (O3)")
	var rows [][]string
	var hm []float64
	for _, p := range Core() {
		rep, err := r.AltReport(p.Name)
		if err != nil {
			return err
		}
		sp := rep.Speedup()
		rows = append(rows, []string{
			p.Name,
			fmt.Sprintf("seed=%d n=%d", p.AltArgs[0], p.AltArgs[1]),
			fmt.Sprintf("%.2f", rep.Baseline.Seconds),
			fmt.Sprintf("%.2f", rep.Reuse.Seconds),
			fmt.Sprintf("%.2f", sp),
		})
		hm = append(hm, sp)
	}
	rows = append(rows, []string{"Harmonic Mean", "", "", "", fmt.Sprintf("%.2f", HarmonicMean(hm))})
	textTable(w, []string{"Programs", "Alt Input", "Original (s)", "Computation Reuse (s)", "Speedup"}, rows)
	return nil
}
