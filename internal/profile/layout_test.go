package profile_test

import (
	"fmt"
	"reflect"
	"testing"

	"compreuse/internal/bench"
	"compreuse/internal/callgraph"
	"compreuse/internal/cleanup"
	"compreuse/internal/cost"
	"compreuse/internal/dataflow"
	"compreuse/internal/interp"
	"compreuse/internal/minic"
	"compreuse/internal/opt"
	"compreuse/internal/pointer"
	"compreuse/internal/profile"
	"compreuse/internal/reusetab"
	"compreuse/internal/segment"
	"compreuse/internal/transform"
)

// analyze prepares a fresh copy of a suite program with sub-block
// candidates.
func analyze(t *testing.T, p bench.Program, level string) (*minic.Program, *segment.Analysis) {
	t.Helper()
	prog, err := minic.Parse(p.Name, p.Source)
	if err != nil {
		t.Fatal(err)
	}
	if err := minic.Check(prog); err != nil {
		t.Fatal(err)
	}
	cleanup.Run(prog)
	if level == "O3" {
		opt.Run(prog)
	}
	pts := pointer.Analyze(prog)
	cg := callgraph.Build(prog, pts)
	eff := dataflow.ComputeEffects(prog, pts, cg)
	return prog, segment.Analyze(prog, pts, cg, eff, segment.Options{Model: cost.ModelFor(level), SubBlocks: true})
}

// regionProfiles is the reference: wrap the kept segments in profile-mode
// regions, one fresh copy per wave of pairwise-disjoint segments, and read
// the profiles off the tables and the region statistics.
func regionProfiles(t *testing.T, p bench.Program, level string, keep []*segment.Segment,
	ro interp.Options) map[string]*profile.SegProfile {

	t.Helper()
	var normal, subs []*segment.Segment
	for _, s := range keep {
		if s.Kind == segment.SubBlock {
			subs = append(subs, s)
		} else {
			normal = append(normal, s)
		}
	}
	waves := [][]*segment.Segment{normal}
	for len(subs) > 0 {
		var wave []*segment.Segment
		wave, subs = segment.Disjoint(subs, nil)
		waves = append(waves, wave)
	}
	out := map[string]*profile.SegProfile{}
	for _, wave := range waves {
		names := map[string]bool{}
		for _, s := range wave {
			names[s.Name] = true
		}
		prog, an := analyze(t, p, level)
		var segs []*segment.Segment
		for _, s := range an.Segments {
			if names[s.Name] {
				segs = append(segs, s)
			}
		}
		res := transform.Apply(prog, segs, transform.Options{})
		ro.Tables = map[int]*reusetab.Table{}
		for _, ts := range res.Tables {
			ro.Tables[ts.ID] = reusetab.New(ts.Config(reusetab.ModeProfile, 0, false))
		}
		run, err := interp.Run(prog, ro)
		if err != nil {
			t.Fatal(err)
		}
		for _, ts := range res.Tables {
			tab := ro.Tables[ts.ID]
			for _, s := range ts.Segs {
				rr := res.Regions[s]
				sp := &profile.SegProfile{
					Name:      s.Name,
					TableName: ts.Name,
					Nds:       int64(tab.SegDistinct(rr.SegBit)),
					Overhead:  float64(ro.Model.HashOverhead(s.KeyBytes, s.OutBytes)),
					Census:    tab.SegSortedCensus(rr.SegBit),
					KeyBytes:  s.KeyBytes,
				}
				if st := run.Segs[rr.ID()]; st != nil {
					sp.N, sp.MeasuredC = st.Instances, st.MeasuredC()
				}
				out[s.Name] = sp
			}
		}
	}
	return out
}

// One watched run of every candidate, laid out for the frequency-passing
// ones, must give exactly the profiles of wrapping only those in
// profile-mode regions: merged tables and their census ranks, sub-block
// waves, and body cycles charged for the instrumentation of the regions
// nested in them.
func TestLayoutMatchesRegionProfiling(t *testing.T) {
	for _, p := range bench.Core() {
		for _, level := range []string{"O0", "O3"} {
			t.Run(fmt.Sprintf("%s/%s", p.Name, level), func(t *testing.T) {
				args := append([]int64(nil), p.TrainArgs...)
				args[1] = max(1, args[1]/8)
				ro := interp.Options{Model: cost.ModelFor(level), Args: args}
				prog, an := analyze(t, p, level)
				cands := an.Candidates()
				ro.CollectFreq = true
				res, err := interp.RunWatched(prog, ro, profile.Watches(cands, false))
				if err != nil {
					t.Fatal(err)
				}
				ro.CollectFreq = false
				keep := profile.FrequencyFilter(cands, res.Freq, 8)
				got, err := profile.Layout(cands, res.Watched, keep, ro.Model)
				if err != nil {
					t.Fatal(err)
				}
				want := regionProfiles(t, p, level, keep, ro)
				if len(got) != len(want) {
					t.Fatalf("%d profiles, want %d", len(got), len(want))
				}
				for name, w := range want {
					if g := got[name]; !reflect.DeepEqual(g, w) {
						t.Errorf("%s:\n got  %+v\n want %+v", name, summary(g), summary(w))
					}
				}
			})
		}
	}
}

func summary(sp *profile.SegProfile) string {
	if sp == nil {
		return "<nil>"
	}
	return fmt.Sprintf("table=%s N=%d Nds=%d C=%v census=%d", sp.TableName, sp.N, sp.Nds,
		sp.MeasuredC, len(sp.Census))
}
