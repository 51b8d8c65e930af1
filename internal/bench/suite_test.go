package bench

import (
	"testing"

	"compreuse/internal/core"
)

// TestSuiteSmoke pushes every program through the full pipeline at O0 with
// reduced sizes and checks the invariants every benchmark must satisfy:
// semantics preserved, at least one segment transformed, positive reuse.
func TestSuiteSmoke(t *testing.T) {
	small := map[string][]int64{
		"G721_encode":   {1, 3000},
		"G721_encode_s": {1, 3000},
		"G721_encode_b": {1, 3000},
		"G721_decode":   {1, 2500},
		"G721_decode_s": {1, 2500},
		"G721_decode_b": {1, 2500},
		"MPEG2_encode":  {97, 40},
		"MPEG2_decode":  {97, 40},
		"RASTA":         {5, 300},
		"UNEPIC":        {31, 1500},
		"GNUGO":         {2, 1},
	}
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			opts := p.RunOptions("O0")
			opts.MainArgs = small[p.Name]
			opts.MinFreq = 8 // tiny test sizes fall under the suite threshold
			rep, err := core.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Baseline.Ret != rep.Reuse.Ret || rep.Baseline.Output != rep.Reuse.Output {
				t.Fatalf("semantics broken: ret %d vs %d", rep.Baseline.Ret, rep.Reuse.Ret)
			}
			if rep.SegmentsTransformed == 0 {
				for _, rec := range rep.Ledger {
					t.Logf("%s accepted=%v gain=%.0f (%s)", rec.Segment, rec.Accepted, rec.Gain, rec.Reason)
				}
				t.Fatal("nothing transformed")
			}
			hits := int64(0)
			for _, tab := range rep.Tables {
				hits += tab.Stats.Hits
			}
			if hits == 0 {
				t.Fatal("no reuse hits")
			}
			t.Logf("transformed=%d speedup=%.3f energy=%.1f%% hits=%d",
				rep.SegmentsTransformed, rep.Speedup(), rep.EnergySaving()*100, hits)
		})
	}
}
