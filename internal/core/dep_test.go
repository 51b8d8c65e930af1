package core

import (
	"strings"
	"testing"
)

// depMini stages the dependence-key second chance: lookup's flat key is
// dominated by the 256-word grid (O/C >= 1 rejects it), but the body
// reads only j and grid[j], so the dependence footprint is 2 words and
// formula (3) holds under DepOverhead. main churns a cell lookup never
// reads, so a flat key could not have hit even if admitted.
const depMini = `
int grid[256];

int lookup(int j) {
    int a;
    int r;
    a = grid[j];
    r = (a * 7 + j + 13) / 3;
    r = (r * 11 + a) / 5;
    r = (r * 13 + a) / 7;
    r = (r * 17 + a) / 9;
    r = (r * 19 + a) / 11;
    r = (r * 23 + a) / 13;
    r = (r * 29 + a) / 17;
    r = (r * 31 + a) / 19;
    return r;
}

int main(void) {
    int s = 0;
    int k;
    for (k = 0; k < 400; k++) {
        grid[200] = k;
        s += lookup(k & 3);
    }
    return s;
}
`

func depRecord(t *testing.T, rep *Report) *DecisionRecord {
	t.Helper()
	for i := range rep.Ledger {
		if strings.HasPrefix(rep.Ledger[i].Segment, "lookup") &&
			strings.HasSuffix(rep.Ledger[i].Segment, "@func") {
			return &rep.Ledger[i]
		}
	}
	t.Fatal("no ledger record for lookup@func")
	return nil
}

func TestDepKeysOffRejectsByPreFilter(t *testing.T) {
	rep, err := Run(Options{Name: "depmini", Source: depMini})
	if err != nil {
		t.Fatal(err)
	}
	rec := depRecord(t, rep)
	if rec.Accepted {
		t.Fatalf("flat pipeline accepted lookup: %+v", rec)
	}
	if !strings.HasPrefix(rec.Reason, "pre-filter") {
		t.Fatalf("reason = %q, want pre-filter rejection", rec.Reason)
	}
	if rep.DepProfiles != nil {
		t.Fatal("DepProfiles must be nil with DepKeys off")
	}
	for _, ti := range rep.Tables {
		if ti.Dep {
			t.Fatal("dep table instantiated with DepKeys off")
		}
	}
}

func TestDepKeysAdmitsPreFilterReject(t *testing.T) {
	rep, err := Run(Options{Name: "depmini", Source: depMini, DepKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Baseline.Ret != rep.Reuse.Ret {
		t.Fatalf("results differ: %d vs %d", rep.Baseline.Ret, rep.Reuse.Ret)
	}
	rec := depRecord(t, rep)
	if !rec.Accepted {
		t.Fatalf("dep second chance did not admit lookup: %+v", rec)
	}
	if !strings.Contains(rec.Reason, "dep keys") {
		t.Fatalf("reason = %q, want dep-key acceptance", rec.Reason)
	}
	dp := rep.DepProfiles[rec.Segment]
	if dp == nil {
		t.Fatal("no dep profile for the admitted segment")
	}
	// The whole point: the dynamic key is a fraction of the flat key.
	if rec.DepKeyWidth <= 0 || rec.FullKeyWidth <= 0 || rec.DepKeyWidth*16 > rec.FullKeyWidth {
		t.Fatalf("key widths: dep=%d full=%d", rec.DepKeyWidth, rec.FullKeyWidth)
	}
	if dp.ReuseRate() < 0.9 {
		t.Fatalf("footprint reuse rate %.3f, want > 0.9", dp.ReuseRate())
	}
	// The final run must have used a footprint trie profitably.
	dep := depTable(t, rep.Tables)
	if dep.Stats.Hits == 0 || dep.Stats.Probes == 0 {
		t.Fatalf("dep table stats: %+v", dep.Stats)
	}
	if rec.DepHitRate <= 0.9 {
		t.Fatalf("dep hit rate %.3f, want > 0.9", rec.DepHitRate)
	}
	// The transformed source renders the dep probe pseudo-calls.
	if !strings.Contains(rep.TransformedSource, "__crc_dep_probe") {
		t.Fatal("transformed source lacks __crc_dep_probe")
	}
	// Dep admission must beat the baseline on this input.
	if rep.Speedup() <= 1.0 {
		t.Fatalf("speedup = %.3f, want > 1.0", rep.Speedup())
	}
}

func TestDepKeysNoCandidatesIsIdentical(t *testing.T) {
	// A program with no pre-filter rejects: DepKeys on must change nothing.
	off, err := Run(Options{Name: "g721mini", Source: g721Mini})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(Options{Name: "g721mini", Source: g721Mini, DepKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.TransformedSource != on.TransformedSource {
		t.Fatal("DepKeys changed the transformed source without dep candidates")
	}
	if off.Reuse.Cycles != on.Reuse.Cycles {
		t.Fatalf("cycles differ: %d vs %d", off.Reuse.Cycles, on.Reuse.Cycles)
	}
}

// A sweep re-measures the program the compile transformed, footprint
// tries included: at the profiling-derived sizes it reproduces the
// compile's own measurement run, and a forced size reaches the tries.
func TestRunSweepWithDepKeys(t *testing.T) {
	rep, outs, err := RunSweep(Options{Name: "depmini", Source: depMini, DepKeys: true},
		[]SweepPoint{{}, {Entries: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if rec := depRecord(t, rep); !rec.Accepted {
		t.Fatalf("dep second chance did not admit lookup: %+v", rec)
	}
	if len(outs) != 2 {
		t.Fatalf("%d outcomes, want 2", len(outs))
	}
	if outs[0].Reuse != rep.Reuse {
		t.Fatalf("optimal-size sweep point measured %+v, compile measured %+v", outs[0].Reuse, rep.Reuse)
	}
	want := depTable(t, rep.Tables).Entries
	for _, out := range outs {
		if out.Reuse.Ret != rep.Baseline.Ret {
			t.Fatalf("point %+v: ret %d, baseline %d", out.Point, out.Reuse.Ret, rep.Baseline.Ret)
		}
		dep := depTable(t, out.Tables)
		if dep.Stats.Hits == 0 {
			t.Fatalf("point %+v: dep table served no hits: %+v", out.Point, dep)
		}
		if out.Point.Entries > 0 {
			want = out.Point.Entries
		}
		if dep.Entries != want {
			t.Fatalf("point %+v: dep table has %d entries, want %d", out.Point, dep.Entries, want)
		}
	}
}

func depTable(t *testing.T, tables []TableInfo) *TableInfo {
	t.Helper()
	for i := range tables {
		if tables[i].Dep {
			return &tables[i]
		}
	}
	t.Fatalf("no dep table in %+v", tables)
	return nil
}

// depInduction stages a loop body keyed on an element a[i] of its
// address-only induction variable i. A dependence key widens a[i] to all
// of a, so its footprints name absolute cells; unless i itself is
// tracked, a footprint recorded at one i hits at another, where the body
// would have read a different cell. One pass in four (mode) reads a[i];
// the others compute from a constant and hit across i.
const depInduction = `
int a[64]; int w[256]; int r[64]; int mode;
int main(int seed, int n) {
    int i; int p; int s = 0;
    for (i = 0; i < 64; i++) a[i] = (i * 37 + seed) % 101;
    for (i = 0; i < 256; i++) w[i] = (i * 53 + 11) % 97;
    for (p = 0; p < n; p++) {
        mode = (p % 4) == 0;
        w[255] = p;
        for (i = 0; i < 64; i++) {
            int t; int q;
            if (mode) t = a[i]; else t = 5;
            for (q = 0; q < 12; q++) { t = (t * 7 + w[(t + q) & 255]) % 1009; t = (t * 13 + 5) % 1013; t = (t * 17 + 3) % 1019; t = (t * 19 + 7) % 1021; }
            r[i] = t;
        }
        for (i = 0; i < 64; i++) s = s + r[i] * (i + 1);
    }
    return s & 65535;
}
`

func TestDepKeysTrackAddressOnlyInductionVariable(t *testing.T) {
	rep, err := Run(Options{Name: "depinduction", Source: depInduction, DepKeys: true, MainArgs: []int64{7, 40}})
	if err != nil {
		t.Fatal(err)
	}
	dp := rep.DepProfiles["main@loop4"]
	if dp == nil || !dp.Accepted {
		t.Fatalf("dep second chance did not admit main@loop4: %+v", dp)
	}
	if rep.Reuse.Ret != rep.Baseline.Ret {
		t.Fatalf("dependence keys changed the result: %d, baseline %d (R_dep %.4f)",
			rep.Reuse.Ret, rep.Baseline.Ret, dp.ReuseRate())
	}
	if dep := depTable(t, rep.Tables); dep.Stats.Hits == 0 {
		t.Fatalf("main@loop4's footprint trie served no hits: %+v", dep.Stats)
	}
	t.Logf("main@loop4: R_dep %.4f over %d instances", dp.ReuseRate(), dp.N)
}
