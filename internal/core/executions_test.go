package core_test

import (
	"testing"

	"compreuse/internal/bench"
	"compreuse/internal/core"
)

// A compile prepares the program once and executes it twice: one
// instrumented run takes the frequency profile, every value-set profile
// and the baseline, and one measures the transformed program. With
// dependence keys, the footprint census of any second-chance candidates
// is one more run on the same copy.
func TestCompilePrepsOnceAndExecutesTwice(t *testing.T) {
	depRuns := 0
	for _, p := range bench.Core() {
		for _, level := range []string{"O0", "O3", "O0+dep"} {
			o := p.RunOptions(level[:2])
			o.MainArgs = append([]int64(nil), o.MainArgs...)
			o.MainArgs[1] = max(1, o.MainArgs[1]/8)
			o.MinFreq = 8
			o.DepKeys = level == "O0+dep"
			p0, e0 := core.Preps.Load(), core.Executions.Load()
			rep, err := core.Run(o)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, level, err)
			}
			want := int64(2)
			if rep.DepProfiles != nil {
				want++
				depRuns++
			}
			if preps, execs := core.Preps.Load()-p0, core.Executions.Load()-e0; preps != 1 || execs != want {
				t.Errorf("%s/%s: %d preps and %d executions, want 1 and %d", p.Name, level, preps, execs, want)
			}
		}
	}
	if depRuns == 0 {
		t.Error("no compile took a dependence-footprint census")
	}
}
