package bench

import (
	"fmt"
	"io"

	"compreuse/internal/core"
	"compreuse/internal/profile"
)

// This file regenerates the paper's Figures 5-8 and 11-15 as ASCII
// histograms and series. Figures 1-4, 9 and 10 are schematics or code
// listings realized directly as code (see DESIGN.md).

// valueFigure renders a histogram of a program's main-segment input values
// (Figures 5, 6, 12, 13).
func valueFigure(w io.Writer, r *Runner, prog, title string, buckets int) error {
	rep, err := r.Report(prog, "O0")
	if err != nil {
		return err
	}
	sp := MainProfile(rep)
	if sp == nil {
		return fmt.Errorf("%s: no profiled main segment", prog)
	}
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "(segment %s: %d executions, %d distinct input patterns)\n",
		sp.Name, sp.N, sp.Nds)
	h := profile.ValueHistogram(sp.Census, buckets)
	if h == nil {
		// Wide keys (multiple inputs): fall back to a rank histogram.
		fmt.Fprintln(w, "(multi-variable key: histogram by input-pattern rank)")
		return rankedCensus(w, sp, buckets)
	}
	labels := make([]string, len(h))
	values := make([]int64, len(h))
	for i, b := range h {
		labels[i] = fmt.Sprintf("[%d,%d)", b.Lo, b.Hi)
		values[i] = b.Count
	}
	bars(w, labels, values, 50)
	return nil
}

func rankedCensus(w io.Writer, sp *profile.SegProfile, buckets int) error {
	counts := make([]int64, len(sp.Census))
	for i, kc := range sp.Census {
		counts[i] = kc.Count
	}
	h := profile.RankHistogram(counts, buckets)
	labels := make([]string, len(h))
	values := make([]int64, len(h))
	for i, b := range h {
		labels[i] = fmt.Sprintf("pat %d-%d", b.Lo, b.Hi-1)
		values[i] = b.Count
	}
	bars(w, labels, values, 50)
	return nil
}

// Figure5 reproduces "Histogram of input values in G721_encode".
func Figure5(w io.Writer, r *Runner) error {
	return valueFigure(w, r, "G721_encode", "Figure 5. Histogram of input values in G721_encode", 16)
}

// Figure6 reproduces "Histogram of input values in G721_decode".
func Figure6(w io.Writer, r *Runner) error {
	return valueFigure(w, r, "G721_decode", "Figure 6. Histogram of input values in G721_decode", 16)
}

// accessFigure renders a histogram of accessed table entries from the
// final measurement run (Figures 7 and 8).
func accessFigure(w io.Writer, r *Runner, prog, title string, buckets int) error {
	rep, err := r.Report(prog, "O0")
	if err != nil {
		return err
	}
	tab := MainTable(rep)
	if tab == nil || len(tab.AccessCounts) == 0 {
		return fmt.Errorf("%s: no table access counts", prog)
	}
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "(table %s: %d entries)\n", tab.Name, tab.Entries)
	h := profile.RankHistogram(tab.AccessCounts, buckets)
	labels := make([]string, len(h))
	values := make([]int64, len(h))
	for i, b := range h {
		labels[i] = fmt.Sprintf("entry %d-%d", b.Lo, b.Hi-1)
		values[i] = b.Count
	}
	bars(w, labels, values, 50)
	return nil
}

// Figure7 reproduces "Histogram of accessed table entries in G721_encode".
func Figure7(w io.Writer, r *Runner) error {
	return accessFigure(w, r, "G721_encode", "Figure 7. Histogram of accessed table entries in G721_encode", 16)
}

// Figure8 reproduces "Histogram of accessed table entries in G721_decode".
func Figure8(w io.Writer, r *Runner) error {
	return accessFigure(w, r, "G721_decode", "Figure 8. Histogram of accessed table entries in G721_decode", 16)
}

// Figure11 reproduces "Histogram of distinct input patterns in RASTA":
// the per-pattern execution counts of FR4TR's 31 quantized inputs.
func Figure11(w io.Writer, r *Runner) error {
	rep, err := r.Report("RASTA", "O0")
	if err != nil {
		return err
	}
	sp := MainProfile(rep)
	if sp == nil {
		return fmt.Errorf("RASTA: no main segment")
	}
	fmt.Fprintln(w, "Figure 11. Histogram of distinct input patterns in RASTA")
	labels := make([]string, len(sp.Census))
	values := make([]int64, len(sp.Census))
	for i, kc := range sp.Census {
		labels[i] = fmt.Sprintf("pattern %2d", i)
		values[i] = kc.Count
	}
	bars(w, labels, values, 50)
	return nil
}

// Figure12 reproduces "Histogram of input values in UNEPIC".
func Figure12(w io.Writer, r *Runner) error {
	return valueFigure(w, r, "UNEPIC", "Figure 12. Histogram of input values in UNEPIC", 16)
}

// Figure13 reproduces "Histogram of input values in GNU Go".
func Figure13(w io.Writer, r *Runner) error {
	return valueFigure(w, r, "GNUGO", "Figure 13. Histogram of input values in GNU Go", 16)
}

// figureSizes are the byte budgets of the table-size sweeps (Figures
// 14/15). The paper sweeps 2KB ... 4MB and marks the profiling-derived
// optimal size.
var figureSizes = []int{2 << 10, 8 << 10, 32 << 10, 128 << 10, 512 << 10}

// sizeSweepFigure renders speedup-vs-table-size series for every program.
func sizeSweepFigure(w io.Writer, r *Runner, level, title string) error {
	fmt.Fprintln(w, title)
	header := []string{"Programs"}
	for _, sz := range figureSizes {
		header = append(header, humanBytes(sz))
	}
	header = append(header, "optimal")
	var rows [][]string
	for _, p := range Core() {
		rep, err := r.Report(p.Name, level)
		if err != nil {
			return err
		}
		// Convert each byte budget to per-table entry counts using the
		// report's main table entry size.
		tab := MainTable(rep)
		if tab == nil {
			rows = append(rows, append([]string{p.Name}, "-"))
			continue
		}
		var points []core.SweepPoint
		for _, sz := range figureSizes {
			entries := sz / tab.EntryBytes
			if entries < 1 {
				entries = 1
			}
			points = append(points, core.SweepPoint{Entries: entries})
		}
		points = append(points, core.SweepPoint{Entries: 0}) // optimal
		_, outs, err := r.Sweep(p.Name, level, points)
		if err != nil {
			return err
		}
		row := []string{p.Name}
		for _, out := range outs {
			row = append(row, fmt.Sprintf("%.2f", out.Speedup))
		}
		rows = append(rows, row)
	}
	textTable(w, header, rows)
	return nil
}

// Figure14 reproduces "Under O0 optimization, speedups with different hash
// table sizes".
func Figure14(w io.Writer, r *Runner) error {
	return sizeSweepFigure(w, r, "O0", "Figure 14. Speedups with different hash table sizes (O0)")
}

// Figure15 reproduces "Under O3 optimization, speedups with different hash
// table sizes".
func Figure15(w io.Writer, r *Runner) error {
	return sizeSweepFigure(w, r, "O3", "Figure 15. Speedups with different hash table sizes (O3)")
}

// Experiment names every regenerable table and figure.
type Experiment struct {
	Name string
	Desc string
	Run  func(io.Writer, *Runner) error
}

// extraExperiments collects generators registered by other files
// (ablations and extensions beyond the paper's own tables).
var extraExperiments []Experiment

// Experiments lists every table and figure generator in paper order,
// followed by the ablation studies.
func Experiments() []Experiment {
	return append([]Experiment{
		{"table3", "Factors which affect the optimization decision", Table3},
		{"table4", "Number of code segments", Table4},
		{"table5", "Hit ratios with limited buffers", Table5},
		{"table6", "Performance improvement with O0", Table6},
		{"table7", "Performance improvement with O3", Table7},
		{"table8", "Energy saving with O0", Table8},
		{"table9", "Energy saving with O3", Table9},
		{"table10", "Performance for different input files", Table10},
		{"fig5", "Histogram of input values in G721_encode", Figure5},
		{"fig6", "Histogram of input values in G721_decode", Figure6},
		{"fig7", "Histogram of accessed table entries in G721_encode", Figure7},
		{"fig8", "Histogram of accessed table entries in G721_decode", Figure8},
		{"fig11", "Histogram of distinct input patterns in RASTA", Figure11},
		{"fig12", "Histogram of input values in UNEPIC", Figure12},
		{"fig13", "Histogram of input values in GNU Go", Figure13},
		{"fig14", "Speedups with different hash table sizes (O0)", Figure14},
		{"fig15", "Speedups with different hash table sizes (O3)", Figure15},
	}, extraExperiments...)
}
