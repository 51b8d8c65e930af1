package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"compreuse/internal/profile"
)

// g721Mini is a compact G721-style program: quan in its original
// three-parameter form (paper Fig. 4), exercised by a codec-like loop.
// The pipeline must (1) specialize quan, (2) select the specialized
// function body, (3) speed the program up.
const g721Mini = `
int power2[15] = {1,2,4,8,16,32,64,128,256,512,1024,2048,4096,8192,16384};

int quan(int val, int *table, int size) {
    int i;
    for (i = 0; i < size; i++)
        if (val < table[i])
            break;
    return (i);
}

int step;
int predict(int v) {
    step = (step * 3 + v) & 1023;
    return step;
}

int main(void) {
    int s = 0;
    int v;
    step = 7;
    for (v = 0; v < 3000; v++) {
        int sample = predict(v);
        s += quan(sample, power2, 15);
    }
    return s;
}
`

func TestPipelineG721MiniO0(t *testing.T) {
	rep, err := Run(Options{Name: "g721mini", Source: g721Mini})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Specialized) != 1 {
		t.Fatalf("specialized = %v, want one quan specialization", rep.Specialized)
	}
	if rep.SegmentsAnalyzed < 5 {
		t.Fatalf("analyzed %d segments", rep.SegmentsAnalyzed)
	}
	if rep.SegmentsTransformed < 1 {
		logLedger(t, rep)
		t.Fatal("nothing transformed")
	}
	// Semantics preserved.
	if rep.Baseline.Ret != rep.Reuse.Ret {
		t.Fatalf("results differ: %d vs %d", rep.Baseline.Ret, rep.Reuse.Ret)
	}
	// A quan-specialized segment must be among the selected.
	found := false
	for _, rec := range rep.Ledger {
		if rec.Accepted && strings.HasPrefix(rec.Segment, "quan__spec") {
			found = true
		}
	}
	if !found {
		logLedger(t, rep)
		t.Fatal("specialized quan not selected")
	}
	// Speedup: sample values repeat heavily (1024 distinct over 3000
	// calls) and quan is the dominant cost.
	if rep.Speedup() <= 1.05 {
		t.Fatalf("speedup = %.3f, want > 1.05", rep.Speedup())
	}
	if rep.EnergySaving() <= 0 {
		t.Fatalf("energy saving = %.3f", rep.EnergySaving())
	}
	if len(rep.Tables) == 0 {
		t.Fatal("no tables reported")
	}
	tab := rep.Tables[0]
	if tab.Stats.Hits == 0 {
		t.Fatal("no table hits in final run")
	}
	if tab.SizeBytes <= 0 || tab.Entries <= 0 {
		t.Fatalf("table sizing: %+v", tab)
	}
}

// logLedger logs every ledger record: its verdict, gain and reason.
func logLedger(t *testing.T, rep *Report) {
	t.Helper()
	for _, rec := range rep.Ledger {
		t.Logf("%s kind=%s accepted=%v gain=%.1f (%s)", rec.Segment, rec.Kind, rec.Accepted, rec.Gain, rec.Reason)
	}
}

func TestPipelineO3StillWins(t *testing.T) {
	r0, err := Run(Options{Name: "g721mini", Source: g721Mini, OptLevel: "O0"})
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Run(Options{Name: "g721mini", Source: g721Mini, OptLevel: "O3"})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Baseline.Ret != r0.Baseline.Ret {
		t.Fatal("O-levels disagree on program result")
	}
	// The paper's Table 6 vs 7: O3 baselines are faster, and reuse still
	// helps at O3 (usually a bit less than at O0).
	if r3.Baseline.Cycles >= r0.Baseline.Cycles {
		t.Fatalf("O3 baseline (%d) not faster than O0 (%d)", r3.Baseline.Cycles, r0.Baseline.Cycles)
	}
	if r3.Speedup() <= 1.0 {
		t.Fatalf("reuse must still win at O3: %.3f", r3.Speedup())
	}
}

func TestPipelineForcedSmallTableLRU(t *testing.T) {
	// Table 5's study: a tiny LRU buffer slashes the hit ratio for a
	// program with many distinct inputs.
	big, outs, err := RunSweep(Options{Name: "g721mini", Source: g721Mini}, []SweepPoint{{Entries: 4, LRU: true}})
	if err != nil {
		t.Fatal(err)
	}
	small := outs[0]
	if small.Reuse.Ret != big.Baseline.Ret || small.Reuse.Output != big.Baseline.Output {
		t.Fatal("semantics broken with small table")
	}
	bigHit := big.Tables[0].Stats.HitRatio()
	smallHit := small.Tables[0].Stats.HitRatio()
	if smallHit >= bigHit {
		t.Fatalf("4-entry LRU hit ratio %.3f not below optimal %.3f", smallHit, bigHit)
	}
}

func TestPipelineCrossInput(t *testing.T) {
	// Table 10's methodology: profile on one input, measure on another.
	src := `
int tab[16] = {3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3};
int f(int v) {
    int r = 0;
    int k;
    for (k = 0; k < 16; k++)
        r += tab[k] * ((v >> k) & 1);
    return r;
}
int main(int seed, int n) {
    int s = 0;
    int x = seed;
    int i;
    for (i = 0; i < n; i++) {
        x = (x * 1103515245 + 12345) & 255;
        s += f(x);
    }
    return s;
}
`
	rep, err := Run(Options{
		Name: "cross", Source: src,
		MainArgs:    []int64{1, 2000},
		MeasureArgs: []int64{42, 3000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SegmentsTransformed == 0 {
		logLedger(t, rep)
		t.Fatal("nothing transformed")
	}
	if rep.Baseline.Ret != rep.Reuse.Ret {
		t.Fatal("cross-input semantics broken")
	}
	// 256 distinct inputs at most: reuse still wins on the unseen input.
	if rep.Speedup() <= 1.0 {
		t.Fatalf("cross-input speedup = %.3f", rep.Speedup())
	}
}

func TestPipelineNoProfitNoTransform(t *testing.T) {
	// A program whose only hot segment never repeats inputs: formula (3)
	// must reject it.
	src := `
int f(int v) {
    int r = 0;
    int k;
    for (k = 0; k < 6; k++)
        r += (v >> k) * 3;
    return r;
}
int main(void) {
    int s = 0;
    int i;
    for (i = 0; i < 500; i++)
        s += f(i * 7 + 1);  // all inputs distinct -> R = small
    return s;
}
`
	rep, err := Run(Options{Name: "noprofit", Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SegmentsTransformed != 0 {
		logLedger(t, rep)
		t.Fatal("unprofitable program must not be transformed")
	}
	if rep.Baseline.Ret != rep.Reuse.Ret {
		t.Fatal("untransformed program must be unchanged")
	}
}

func TestPipelineDeterministic(t *testing.T) {
	r1, err := Run(Options{Name: "g721mini", Source: g721Mini})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(Options{Name: "g721mini", Source: g721Mini})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Reuse.Cycles != r2.Reuse.Cycles || r1.Baseline.Cycles != r2.Baseline.Cycles {
		t.Fatalf("pipeline not deterministic: %d/%d vs %d/%d",
			r1.Baseline.Cycles, r1.Reuse.Cycles, r2.Baseline.Cycles, r2.Reuse.Cycles)
	}
	if r1.SegmentsTransformed != r2.SegmentsTransformed {
		t.Fatal("selection not deterministic")
	}
}

// TestSubBlockExtensionEndToEnd exercises the beyond-paper sub-block
// extension: a function whose body is only partially reusable (the suffix
// reads a per-call counter) gains nothing under the paper's three segment
// shapes, but the sub-block carve-out recovers the reusable prefix.
func TestSubBlockExtensionEndToEnd(t *testing.T) {
	src := `
int tick;
int weights[16] = {3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3};
int f(int v) {
    int heavy = 0;
    int k;
    for (k = 0; k < 24; k++)
        heavy += weights[k & 15] * ((v >> (k & 3)) + 1) + (heavy >> 7);
    int seq = tick;
    tick = tick + 1;
    int r = heavy + (seq & 1);
    return r;
}
int main(void) {
    int s = 0;
    int i;
    for (i = 0; i < 2000; i++)
        s = (s + f(i & 7)) & 16777215;
    print_int(s);
    return s & 255;
}
`
	plain, err := Run(Options{Name: "p.c", Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if plain.SegmentsTransformed != 0 {
		logLedger(t, plain)
		t.Fatal("without sub-blocks nothing should be transformable")
	}
	sub, err := Run(Options{Name: "p.c", Source: src, SubBlocks: true})
	if err != nil {
		t.Fatal(err)
	}
	if sub.SegmentsTransformed == 0 {
		logLedger(t, sub)
		t.Fatal("sub-block extension found nothing")
	}
	if sub.Baseline.Ret != sub.Reuse.Ret || sub.Baseline.Output != sub.Reuse.Output {
		t.Fatalf("sub-block transform broke semantics\n%s", sub.TransformedSource)
	}
	if sub.Speedup() <= 1.05 {
		t.Fatalf("sub-block speedup = %.3f", sub.Speedup())
	}
	found := false
	for _, rec := range sub.Ledger {
		if rec.Accepted && rec.Kind == "sub" {
			found = true
		}
	}
	if !found {
		t.Fatal("the selected segment is not a sub-block")
	}
}

func TestProfileSnapshotWorkflow(t *testing.T) {
	// Profile once, save, reload, and compile from the snapshot without
	// re-profiling: the decisions and the transformed behavior must match.
	first, err := Run(Options{Name: "g721mini", Source: g721Mini})
	if err != nil {
		t.Fatal(err)
	}
	saved := first.Snapshot()
	if len(saved.Freq) == 0 || len(saved.Segments) == 0 {
		t.Fatalf("snapshot holds %d frequencies and %d profiles", len(saved.Freq), len(saved.Segments))
	}

	var buf strings.Builder
	if err := saved.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := profile.LoadSnapshot(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}

	second, err := Run(Options{Name: "g721mini", Source: g721Mini, Profile: snap})
	if err != nil {
		t.Fatal(err)
	}
	if second.SegmentsTransformed != first.SegmentsTransformed {
		t.Fatalf("snapshot compile transformed %d, direct %d",
			second.SegmentsTransformed, first.SegmentsTransformed)
	}
	if second.Reuse.Ret != first.Reuse.Ret || second.Reuse.Cycles != first.Reuse.Cycles {
		t.Fatalf("snapshot compile diverged: %d/%d vs %d/%d cycles",
			first.Reuse.Ret, first.Reuse.Cycles, second.Reuse.Ret, second.Reuse.Cycles)
	}

	// Level mismatch is rejected.
	if _, err := Run(Options{Name: "g721mini", Source: g721Mini, OptLevel: "O3", Profile: snap}); err == nil {
		t.Fatal("expected O-level mismatch error")
	}
}

// TestOldSnapshotCompilesAlike compiles from a saved snapshot and from the
// same snapshot with the per-segment access_counts that older versions
// also saved (each segment's census counts in rank order): crc
// -profile-in must read such a file and decide exactly as from the
// current one.
func TestOldSnapshotCompilesAlike(t *testing.T) {
	first, err := Run(Options{Name: "g721mini", Source: g721Mini})
	if err != nil {
		t.Fatal(err)
	}
	var cur bytes.Buffer
	if err := first.Snapshot().Save(&cur); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(cur.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	added := 0
	for _, seg := range doc["segments"].(map[string]any) {
		seg := seg.(map[string]any)
		census, _ := seg["census"].([]any)
		if len(census) == 0 {
			continue
		}
		counts := make([]any, len(census))
		for i, e := range census {
			counts[i] = e.(map[string]any)["count"]
		}
		seg["access_counts"] = counts
		added++
	}
	if added == 0 {
		t.Fatal("no segment has a census to give access counts")
	}
	old, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}

	ledger := func(file []byte) []byte {
		t.Helper()
		snap, err := profile.LoadSnapshot(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(Options{Name: "g721mini", Source: g721Mini, Profile: snap})
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep.LedgerJSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := ledger(cur.Bytes()), ledger(old); !bytes.Equal(a, b) {
		t.Fatalf("ledgers differ:\n current snapshot %s\n with access_counts %s", a, b)
	}
}
