// Command perfbench is the repository's benchmark. It runs one workload
// per process and prints every metric by name with its unit, ending
// with one JSON line:
//
//	perfbench --workload pipeline|tiered-read|tiered-dep --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with no tracing; --trace 1
// is the separate traced run that reports per-layer self times. See
// README.md for the workloads, the layer table and the noise causes the
// design avoids.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number and how many samples stand behind it.
type metric struct {
	value   float64
	unit    string
	samples int
}

// result is one run's outcome. problems are failed validity checks:
// any of them makes the run incorrect.
type result struct {
	attempted, failed int64
	failures          []string
	problems          []string
	metrics           map[string]metric
	detail            map[string]any
}

func newResult() *result {
	return &result{metrics: map[string]metric{}, detail: map[string]any{}}
}

func (r *result) add(name string, v float64, unit string, samples int) {
	r.metrics[name] = metric{value: v, unit: unit, samples: samples}
}

// failOp counts one failed op, keeping the first few reasons.
func (r *result) failOp(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool {
	return r.failed == 0 && len(r.problems) == 0 && r.attempted > 0
}

// endToEnd records the end-to-end metrics shared by every workload.
// setups are set-up durations (s), opsS per-window throughputs, lat op
// latencies (µs), cpuUS per-window CPU per op (µs); speedup is the
// workload's work-avoidance factor.
func (r *result) endToEnd(setups, opsS, lat, cpuUS []float64, speedup float64) {
	r.add("setup_s", median(setups), "s", len(setups))
	r.add("ops_s", median(opsS), "1/s", len(opsS))
	s := sortedCopy(lat)
	r.add("p50_us", quantile(s, 0.5), "us", len(s))
	r.add("cpu_us_per_op", median(cpuUS), "us", len(cpuUS))
	r.add("sim_speedup", speedup, "x", 1)
	// Not gated (README, "Left out of the gate"): printed for reading.
	if tailOK(len(s), 0.99) {
		r.detail["p99_us"] = quantile(s, 0.99)
		r.detail["p99_samples_beyond"] = beyond(len(s), 0.99)
	}
	if _, ok := r.detail["peak_rss_mb"]; !ok {
		r.detail["peak_rss_mb"] = peakRSSMB()
	}
	if len(opsS) > 0 {
		q1, _, q3 := quartiles(opsS)
		r.detail["ops_s_quartiles"] = []float64{q1, q3}
	}
}

// addTraceCost reports what tracing cost, as the drop from the untraced
// to the traced op rate, and how much of an untraced op the layer rows
// account for: the spans' summed self time per traced op over the mean
// untraced op latency.
func (r *result) addTraceCost(untracedRate, tracedRate float64, untracedPerOp, tracedPerOp time.Duration, samples int) {
	if untracedRate <= 0 || untracedPerOp <= 0 {
		return
	}
	r.add("trace.overhead_pct", (untracedRate-tracedRate)/untracedRate*100, "%", samples)
	r.add("trace.coverage", float64(tracedPerOp)/float64(untracedPerOp), "ratio", samples)
}

// merge adds other's metrics that r lacks, and its failures.
func (r *result) merge(other *result) {
	for name, m := range other.metrics {
		if _, ok := r.metrics[name]; !ok {
			r.metrics[name] = m
		}
	}
	r.attempted += other.attempted
	r.failed += other.failed
	r.failures = append(r.failures, other.failures...)
	r.problems = append(r.problems, other.problems...)
}

// workloads maps a workload name to its untraced and traced runs. A
// traced run reports every layer: its own workload's layers from its op
// stream, and the layers it never touches from a short fixed probe of
// the workload that does, so every per-layer row exists in every run.
var workloads = map[string]struct {
	run   func(seed int64, seconds int) *result
	trace func(seed int64, seconds int, probe bool) *result
}{
	"pipeline": {runPipeline, func(seed int64, _ int, probe bool) *result { return tracePipeline(seed, probe) }},
	"tiered-read": {
		func(seed int64, s int) *result { return runTiered(kindRead, seed, s) },
		func(seed int64, s int, probe bool) *result { return traceTiered(kindRead, seed, s, probe) },
	},
	"tiered-dep": {
		func(seed int64, s int) *result { return runTiered(kindDep, seed, s) },
		func(seed int64, s int, probe bool) *result { return traceTiered(kindDep, seed, s, probe) },
	},
}

var workloadOrder = []string{"pipeline", "tiered-read", "tiered-dep"}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadOrder, ", "))
	seed := fs.Int64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Int("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n",
			strings.Join(workloadOrder, ", "))
		return 2
	}

	steal0, total0 := cpuStat()
	var res *result
	if *trace == 0 {
		res = w.run(*seed, *seconds)
	} else {
		res = w.trace(*seed, *seconds, false)
		for _, other := range workloadOrder {
			if other != *name {
				res.merge(workloads[other].trace(*seed, *seconds, true))
			}
		}
	}
	for name, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			res.problem("metric %s is not a number", name)
			delete(res.metrics, name)
		}
	}
	steal1, total1 := cpuStat()
	envBlock := env(*name, *seed, *seconds, *trace, res)
	envBlock["steal_pct"] = float64(steal1-steal0) / float64(max(total1-total0, 1)) * 100
	report(os.Stdout, res, envBlock)
	if !res.correct() {
		return 1
	}
	return 0
}

// env is the environment block every result records.
func env(name string, seed int64, seconds, trace int, res *result) map[string]any {
	samples := map[string]int{}
	for n, m := range res.metrics {
		samples[n] = m.samples
	}
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model": cpuModel(), "go": runtime.Version(),
		"kernel": strings.TrimSpace(string(kernel)), "samples": samples,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report prints the human-readable lines, then the result as the last
// line: one JSON object with correct, attempted, failed and metrics.
func report(out *os.File, res *result, envBlock map[string]any) {
	line := func(label string, v any) {
		b, _ := json.Marshal(v)
		fmt.Fprintf(out, "%s %s\n", label, b)
	}
	line("env", envBlock)
	line("detail", res.detail)
	for _, f := range res.failures {
		fmt.Fprintln(out, "failed op:", f)
	}
	for _, p := range res.problems {
		fmt.Fprintln(out, "invalid run:", p)
	}
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	metrics := map[string]any{}
	for _, n := range names {
		m := res.metrics[n]
		fmt.Fprintf(out, "%-28s %14.6g %-10s (%d samples)\n", n, m.value, m.unit, m.samples)
		metrics[n] = map[string]any{"value": m.value, "unit": m.unit}
	}
	b, _ := json.Marshal(map[string]any{
		"correct": res.correct(), "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
	fmt.Fprintf(out, "%s\n", b)
}
