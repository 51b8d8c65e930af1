package core_test

import (
	"testing"

	"compreuse/internal/bench"
	"compreuse/internal/core"
)

// A compile prepares the program once and executes it twice: one
// instrumented run takes the frequency profile, every value-set profile,
// with dependence keys the footprint census of the candidates the
// selection keeps, and the baseline, and one measures the transformed
// program. It holds for every core program at scale-8 inputs with the
// suite's own input seeds and, with dependence keys, with those of
// perfbench's pipeline workload at its seeds 11 and 23.
func TestCompilePrepsOnceAndExecutesTwice(t *testing.T) {
	depRuns := 0
	for _, seed := range []int64{0, 11, 23} {
		for i, p := range bench.Core() {
			for _, level := range []string{"O0", "O3", "O0+dep"} {
				if seed != 0 && level != "O0+dep" {
					continue
				}
				o := p.RunOptions(level[:2])
				o.MainArgs = append([]int64(nil), o.MainArgs...)
				if seed != 0 {
					o.MainArgs[0] = pipelineSeed(seed, i)
				}
				o.MainArgs[1] = max(1, o.MainArgs[1]/8)
				o.MinFreq = 8
				o.DepKeys = level == "O0+dep"
				p0, e0 := core.Preps.Load(), core.Executions.Load()
				rep, err := core.Run(o)
				if err != nil {
					t.Fatalf("seed %d %s/%s: %v", seed, p.Name, level, err)
				}
				if rep.DepProfiles != nil {
					depRuns++
				}
				if preps, execs := core.Preps.Load()-p0, core.Executions.Load()-e0; preps != 1 || execs != 2 {
					t.Errorf("seed %d %s/%s: %d preps and %d executions, want 1 and 2", seed, p.Name, level, preps, execs)
				}
			}
		}
	}
	if depRuns == 0 {
		t.Error("no compile took a dependence-footprint census")
	}
}

// pipelineSeed is the input seed perfbench's pipeline workload gives
// core program i at workload seed seed.
func pipelineSeed(seed int64, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return 1 + int64((x^x>>31)%(1<<30-1))
}
