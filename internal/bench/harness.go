package bench

import (
	"fmt"
	"io"
	"strings"

	"compreuse/internal/core"
	"compreuse/internal/profile"
)

// Runner executes pipeline runs for the suite, memoizing by (program,
// O-level) so the table generators share work: Tables 3, 4, 6 and 8 all
// read the same O0 runs.
type Runner struct {
	progs map[string]Program
	// Scale divides every program's workload argument, letting tests run
	// the whole harness quickly (1 = the full published configuration).
	Scale int64
	// Progress, when non-nil, receives one line per fresh pipeline run.
	Progress io.Writer

	reports map[string]*core.Report
	sweeps  map[string][]core.SweepOutcome
	alts    map[string]*core.Report
	deps    map[string]*core.Report
}

// NewRunner builds a runner over the full suite.
func NewRunner() *Runner {
	r := &Runner{
		progs:   map[string]Program{},
		Scale:   1,
		reports: map[string]*core.Report{},
		sweeps:  map[string][]core.SweepOutcome{},
		alts:    map[string]*core.Report{},
		deps:    map[string]*core.Report{},
	}
	for _, p := range All() {
		r.progs[p.Name] = p
	}
	return r
}

func (r *Runner) logf(format string, args ...any) {
	if r.Progress != nil {
		fmt.Fprintf(r.Progress, format+"\n", args...)
	}
}

func (r *Runner) scaleArgs(args []int64) []int64 {
	if r.Scale <= 1 || len(args) < 2 {
		return args
	}
	out := append([]int64(nil), args...)
	// By convention every program's second argument is the workload size.
	out[1] /= r.Scale
	if out[1] < 1 {
		out[1] = 1
	}
	return out
}

func (r *Runner) options(p Program, level string) core.Options {
	opts := p.RunOptions(level)
	opts.MainArgs = r.scaleArgs(opts.MainArgs)
	if r.Scale > 1 {
		opts.MinFreq = 8
	}
	return opts
}

// Report runs (or recalls) the scheme for a program at an O-level.
func (r *Runner) Report(name, level string) (*core.Report, error) {
	key := name + "/" + level
	if rep, ok := r.reports[key]; ok {
		return rep, nil
	}
	p, err := ByName(name)
	if err != nil {
		return nil, err
	}
	r.logf("running %s at %s ...", name, level)
	rep, err := core.Run(r.options(p, level))
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", name, level, err)
	}
	r.reports[key] = rep
	return rep, nil
}

// DepReport runs (or recalls) the scheme with the dependence-key second
// chance enabled (core.Options.DepKeys), cached separately from the
// flat-key runs so the two pipelines stay comparable side by side.
func (r *Runner) DepReport(name, level string) (*core.Report, error) {
	key := name + "/" + level
	if rep, ok := r.deps[key]; ok {
		return rep, nil
	}
	p, err := ByName(name)
	if err != nil {
		return nil, err
	}
	opts := r.options(p, level)
	opts.DepKeys = true
	r.logf("running %s at %s with dep keys ...", name, level)
	rep, err := core.Run(opts)
	if err != nil {
		return nil, fmt.Errorf("%s/%s/dep: %w", name, level, err)
	}
	r.deps[key] = rep
	return rep, nil
}

// Reports returns every memoized pipeline report, keyed "program/level".
// The crcbench -json and serve modes read this to export run outcomes and
// decision ledgers after the experiments execute.
func (r *Runner) Reports() map[string]*core.Report {
	out := make(map[string]*core.Report, len(r.reports))
	for k, v := range r.reports {
		out[k] = v
	}
	return out
}

// AltReport runs the cross-input configuration (profile on the training
// input, measure on the alternative input) at O3 — Table 10's methodology.
func (r *Runner) AltReport(name string) (*core.Report, error) {
	if rep, ok := r.alts[name]; ok {
		return rep, nil
	}
	p, err := ByName(name)
	if err != nil {
		return nil, err
	}
	opts := r.options(p, "O3")
	opts.MeasureArgs = r.scaleArgs(p.AltArgs)
	r.logf("running %s cross-input at O3 ...", name)
	rep, err := core.Run(opts)
	if err != nil {
		return nil, fmt.Errorf("%s/alt: %w", name, err)
	}
	r.alts[name] = rep
	return rep, nil
}

// SweepKey identifies a sweep request.
func sweepKey(name, level string, points []core.SweepPoint) string {
	var sb strings.Builder
	sb.WriteString(name + "/" + level)
	for _, p := range points {
		fmt.Fprintf(&sb, ";%d,%v", p.Entries, p.LRU)
	}
	return sb.String()
}

// Sweep measures the transformed program under several table
// configurations.
func (r *Runner) Sweep(name, level string, points []core.SweepPoint) (*core.Report, []core.SweepOutcome, error) {
	key := sweepKey(name, level, points)
	if outs, ok := r.sweeps[key]; ok {
		return r.reports[name+"/"+level], outs, nil
	}
	p, err := ByName(name)
	if err != nil {
		return nil, nil, err
	}
	r.logf("sweeping %s at %s over %d table configurations ...", name, level, len(points))
	rep, outs, err := core.RunSweep(r.options(p, level), points)
	if err != nil {
		return nil, nil, err
	}
	r.reports[name+"/"+level] = rep
	r.sweeps[key] = outs
	return rep, outs, nil
}

// MainProfile returns the value-set profile of a report's "most
// significant code segment": the accepted, flat-profiled segment with
// the largest whole-run gain (Table 3 shows statistics "only for the
// most significant code segment").
func MainProfile(rep *core.Report) *profile.SegProfile {
	var best *profile.SegProfile
	bestGain := 0.0
	for _, rec := range rep.Ledger {
		sp := rep.Profiles[rec.Segment]
		if !rec.Accepted || sp == nil {
			continue
		}
		if best == nil || rec.TotalGain > bestGain {
			best, bestGain = sp, rec.TotalGain
		}
	}
	return best
}

// MainTable returns the table serving the main profile's segment.
func MainTable(rep *core.Report) *core.TableInfo {
	sp := MainProfile(rep)
	if sp == nil {
		if len(rep.Tables) > 0 {
			return &rep.Tables[0]
		}
		return nil
	}
	for i := range rep.Tables {
		for _, s := range rep.Tables[i].Segs {
			if s == sp.Name {
				return &rep.Tables[i]
			}
		}
	}
	if len(rep.Tables) > 0 {
		return &rep.Tables[0]
	}
	return nil
}

// TotalTableBytes sums the modeled memory of every table in the report.
func TotalTableBytes(rep *core.Report) int {
	n := 0
	for _, t := range rep.Tables {
		n += t.SizeBytes
	}
	return n
}

// HarmonicMean of a positive series.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += 1 / x
	}
	return float64(len(xs)) / s
}

// humanBytes renders table sizes the way the paper does (KB / MB).
func humanBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.0fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// textTable renders rows with aligned columns.
func textTable(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
}

// bars renders an ASCII histogram.
func bars(w io.Writer, labels []string, values []int64, width int) {
	var max int64 = 1
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	lw := 0
	for _, l := range labels {
		if len(l) > lw {
			lw = len(l)
		}
	}
	for i, v := range values {
		n := int(v * int64(width) / max)
		fmt.Fprintf(w, "%-*s |%s %d\n", lw, labels[i], strings.Repeat("#", n), v)
	}
}
