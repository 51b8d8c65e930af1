package core_test

import (
	"testing"

	"compreuse/internal/bench"
	"compreuse/internal/core"
)

// BenchmarkCoreRun runs the whole scheme — analyses, profiling runs,
// transformation and measurement — on one core suite program at scale-8
// inputs with MinFreq 8 (the crcbench -scale 8 settings), at O0, O3 and
// O0 with dependence keys. GNUGO is the program whose dependence-key
// second chance admits a segment, so all three settings do distinct work.
//
//	go test -run NONE -bench BenchmarkCoreRun -benchmem ./internal/core/
func BenchmarkCoreRun(b *testing.B) {
	const scale = 8
	p, err := bench.ByName("GNUGO")
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name, level string
		dep         bool
	}{{"O0", "O0", false}, {"O3", "O3", false}, {"O0+dep", "O0", true}} {
		o := p.RunOptions(v.level)
		o.MainArgs = append([]int64(nil), o.MainArgs...)
		o.MainArgs[1] = max(1, o.MainArgs[1]/scale)
		o.MinFreq = 8
		o.DepKeys = v.dep
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := core.Run(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCoreRunCensusRetake runs the one compile path the pipeline
// workload does not take: a dependence-key compile whose frequency run
// cannot serve the footprint census, so the census is retaken in a third
// run. UNEPIC at its full inputs is such a compile (see
// TestDepCensusRetakeMatchesSeparateRun).
//
//	go test -run NONE -bench BenchmarkCoreRunCensusRetake -benchmem ./internal/core/
func BenchmarkCoreRunCensusRetake(b *testing.B) {
	p, err := bench.ByName("UNEPIC")
	if err != nil {
		b.Fatal(err)
	}
	o := p.RunOptions("O0")
	o.DepKeys = true
	b.ReportAllocs()
	for b.Loop() {
		e0 := core.Executions.Load()
		if _, err := core.Run(o); err != nil {
			b.Fatal(err)
		}
		if execs := core.Executions.Load() - e0; execs != 3 {
			b.Fatalf("UNEPIC executed %d times, want 3", execs)
		}
	}
}

// BenchmarkWatchedRun times the compile's watched frequency run against
// a plain run of the same prepared program, for the 7 core programs at
// O0, O3 and O0 with dependence keys, on the pipeline workload's scale-8
// inputs (MinFreq 8). Each watched sub-benchmark reports watched/plain
// against the plain one before it; the pass sub-benchmarks run all 21
// programs once per op, so pass/watched's B/op is what the watched runs
// of one pass allocate and its watched/plain the ratio summed over it.
//
//	go test -run NONE -bench BenchmarkWatchedRun -benchmem ./internal/core/
func BenchmarkWatchedRun(b *testing.B) {
	const scale = 8
	type runs struct {
		name           string
		plain, watched func() error
	}
	var all []runs
	for _, p := range bench.Core() {
		for _, v := range []struct {
			name, level string
			dep         bool
		}{{"O0", "O0", false}, {"O3", "O3", false}, {"O0+dep", "O0", true}} {
			o := p.RunOptions(v.level)
			o.MainArgs = append([]int64(nil), o.MainArgs...)
			o.MainArgs[1] = max(1, o.MainArgs[1]/scale)
			o.MinFreq = 8
			o.DepKeys = v.dep
			plain, watched, err := core.ProfileRuns(o)
			if err != nil {
				b.Fatal(err)
			}
			all = append(all, runs{p.Name + "/" + v.name, plain, watched})
		}
	}
	// time runs each of fs once per op and returns the time per op.
	time := func(b *testing.B, fs ...func() error) float64 {
		b.ReportAllocs()
		for b.Loop() {
			for _, f := range fs {
				if err := f(); err != nil {
					b.Fatal(err)
				}
			}
		}
		return float64(b.Elapsed()) / float64(b.N)
	}
	// ratio reports watched/plain once both have run.
	ratio := func(b *testing.B, watched, plain float64) {
		if plain > 0 {
			b.ReportMetric(watched/plain, "watched/plain")
		}
	}
	for _, r := range all {
		var plain float64
		b.Run(r.name+"/plain", func(b *testing.B) { plain = time(b, r.plain) })
		b.Run(r.name+"/watched", func(b *testing.B) { ratio(b, time(b, r.watched), plain) })
	}
	var plains, watcheds []func() error
	for _, r := range all {
		plains, watcheds = append(plains, r.plain), append(watcheds, r.watched)
	}
	var plain float64
	b.Run("pass/plain", func(b *testing.B) { plain = time(b, plains...) })
	b.Run("pass/watched", func(b *testing.B) { ratio(b, time(b, watcheds...), plain) })
}
