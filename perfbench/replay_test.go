package main

import (
	"testing"

	"compreuse/internal/core"
)

// The traced pipeline replay must reach core.Run's outcome, or its layer
// rows describe a different program. One flat and one dependence-key
// config keep the test short; the traced run checks every config.
func TestReplayMatchesCoreRun(t *testing.T) {
	cfgs := pipelineConfigs(7)
	for _, c := range []pipeConfig{cfgs[0], cfgs[5]} {
		rep, err := core.Run(c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rec := newRecorder(1 << 12)
		out, err := replayRun(rec, c.opts)
		if err != nil {
			t.Fatalf("replay %s: %v", c.name, err)
		}
		if out.pipeOutcome != outcomeOf(rep) {
			t.Fatalf("%s: replay %+v, core.Run %+v", c.name, out.pipeOutcome, outcomeOf(rep))
		}
		lt := layerTotals{}
		lt.add(rec.spans)
		if lt.get("interp.run").count == 0 || lt.get("core.run").count != 1 {
			t.Fatalf("%s: missing spans: %v", c.name, lt)
		}
	}
}

func TestProgramSeedsArePositiveAndDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for i := range 7 {
			s := programSeed(seed, i)
			if s < 1 || s >= 1<<30 || seen[s] {
				t.Fatalf("programSeed(%d, %d) = %d", seed, i, s)
			}
			seen[s] = true
		}
	}
}
