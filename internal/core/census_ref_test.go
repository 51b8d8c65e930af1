package core

import (
	"reflect"
	"testing"

	"compreuse/internal/cost"
	"compreuse/internal/segment"
)

// checkDepCensus retakes a compile's dependence-footprint census both
// ways on a fresh copy of its program: folded into the frequency run, as
// compile takes it, and in a separate run watching only the candidates
// the selection keeps, the reference. Their profiles (N, Nds, MeasuredC,
// mean and max footprint and what follows from them) must be identical,
// and so must the compile's. It reports whether the frequency run served
// the census; when it did not, the compile took the reference itself.
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
	selected := map[string]bool{}
	for _, d := range rep.Decisions {
		selected[d.Name] = d.Selected
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
	return folded
}

func logProfiles(t *testing.T, what string, ps map[string]*DepSegProfile) {
	t.Helper()
	for name, dp := range ps {
		t.Logf("%-8s %s: %+v", what, name, *dp)
	}
}
