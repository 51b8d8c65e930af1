package core

import (
	"reflect"
	"testing"

	"compreuse/internal/cost"
	"compreuse/internal/depmemo"
	"compreuse/internal/interp"
	"compreuse/internal/segment"
	"compreuse/internal/transform"
)

// checkDepCensus retakes a compile's dependence-footprint census both
// ways on a fresh copy of its program: folded into the frequency run, as
// compile takes it, and in a separate run watching only the candidates
// the selection keeps, the reference. Their profiles (N, Nds, MeasuredC,
// mean and max footprint and what follows from them) must be identical,
// and so must the compile's. The candidates' footprint tries must agree
// with the compile too (checkRegionCensus). It reports whether the
// frequency run served the census; when it did not, the compile took the
// reference itself.
func checkDepCensus(t *testing.T, o Options, rep *Report) (folded bool) {
	t.Helper()
	o.defaults()
	model := cost.ModelFor(o.OptLevel)
	pa, err := prep(&o, model)
	if err != nil {
		t.Fatal(err)
	}
	res, census, err := pa.profileRun(&o, model, pa.an.Candidates())
	if err != nil {
		t.Fatal(err)
	}
	// The flat-selected segments: dep-accepted ones have no flat profile.
	selected := map[string]bool{}
	for _, rec := range rep.Ledger {
		selected[rec.Segment] = rec.Accepted && rep.Profiles[rec.Segment] != nil
	}
	var selSegs []*segment.Segment
	for _, s := range pa.an.Segments {
		if selected[s.Name] {
			selSegs = append(selSegs, s)
		}
	}
	cands := depCandidates(pa.an, model, res.Freq, o.MinFreq, selSegs)
	want, err := collectDepProfiles(&o, model, pa.prog, cands)
	if err != nil {
		t.Fatal(err)
	}
	got, folded := census.profiles(cands, model)
	if folded && !reflect.DeepEqual(got, want) {
		logProfiles(t, "folded", got)
		logProfiles(t, "separate", want)
		t.Errorf("%s/%s: the frequency run's footprint census differs from a separate census run", o.Name, o.OptLevel)
	}
	if !reflect.DeepEqual(rep.DepProfiles, want) {
		logProfiles(t, "compile", rep.DepProfiles)
		logProfiles(t, "separate", want)
		t.Errorf("%s/%s: the compile's footprint census differs from a separate census run", o.Name, o.OptLevel)
	}
	checkRegionCensus(t, &o, model, cands, rep.DepProfiles)
	return folded
}

// checkRegionCensus takes the footprint census of cands the way a
// dependence-tracked region takes it, as perfbench's frozen replay does:
// on a fresh copy whose candidates transform wraps in dep regions over
// profile-mode footprint tries (internal/depmemo), run without watches.
// Each trie must count the compile's N, Nds and mean and largest
// footprint, and evict nothing: a footprint is a function of its own
// reads, so no record can meet another that read a different location
// at a shared prefix, and a trie's distinct paths are the census's
// distinct keys.
func checkRegionCensus(t *testing.T, o *Options, model *cost.Model, cands []*segment.Segment,
	profiles map[string]*DepSegProfile) {

	t.Helper()
	if len(cands) == 0 {
		return
	}
	pa, err := prep(o, model)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range cands {
		names[s.Name] = true
	}
	var segs []*segment.Segment
	for _, s := range pa.an.Segments {
		if names[s.Name] {
			segs = append(segs, s)
		}
	}
	tres := transform.Apply(pa.prog, segs, transform.Options{DepSegs: names})
	ro := o.runOpts(model, false, o.MainArgs)
	ro.DepTables = map[int]*depmemo.Table{}
	for _, ts := range tres.Tables {
		ro.DepTables[ts.ID] = depmemo.New(ts.DepConfig(0, true))
	}
	res, err := interp.Run(pa.prog, ro)
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range tres.Tables {
		s := ts.Segs[0]
		var n int64
		if st := res.Segs[tres.Regions[s].ID()]; st != nil {
			n = st.Instances
		}
		tst := ro.DepTables[ts.ID].Stats()
		dp := profiles[s.Name]
		if dp == nil {
			if n != 0 {
				t.Errorf("%s/%s %s: its region ran %d instances, but the compile has no census of it",
					o.Name, o.OptLevel, s.Name, n)
			}
			continue
		}
		if n != dp.N || tst.Distinct != dp.Nds || tst.MeanFootprint() != dp.MeanFootprint ||
			tst.MaxFootprint != dp.MaxFootprint || tst.Evictions != 0 {
			t.Errorf("%s/%s %s: footprint trie N=%d %+v, compile's census N=%d Nds=%d footprint %v/%d",
				o.Name, o.OptLevel, s.Name, n, tst, dp.N, dp.Nds, dp.MeanFootprint, dp.MaxFootprint)
		}
	}
}

func logProfiles(t *testing.T, what string, ps map[string]*DepSegProfile) {
	t.Helper()
	for name, dp := range ps {
		t.Logf("%-8s %s: %+v", what, name, *dp)
	}
}
