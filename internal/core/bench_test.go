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
