package core

import (
	"fmt"
	"math"
	"sort"

	"compreuse/internal/cost"
	"compreuse/internal/depmemo"
	"compreuse/internal/minic"
	"compreuse/internal/profile"
	"compreuse/internal/segment"
)

// Dependence-key second chance (Options.DepKeys): segments the flat-key
// O/C >= 1 pre-filter rejected — typically because a wide, sparsely-read
// aggregate dominates the key — are re-profiled with dependence-tracked
// footprint tables (internal/depmemo) and admitted when formula (3)
// holds under cost.Model.DepOverhead: R_dep·C − O_dep > 0, where R_dep
// is the reuse rate over footprints and O_dep prices one trie level per
// location actually read instead of one Jenkins pass per key byte.

// DepSegProfile is the dependence-footprint analog of a value-set
// profile: the census a dep profiling wave took for one segment.
type DepSegProfile struct {
	// Segment names the profiled segment.
	Segment string
	// N is the instance count; Nds the number of distinct dependence
	// footprints (the dep analog of the paper's distinct input sets).
	N   int64
	Nds int64
	// MeasuredC is the measured per-instance body granularity (cycles).
	MeasuredC float64
	// MeanFootprint / MaxFootprint are the observed dynamic key widths
	// in tracked locations per instance.
	MeanFootprint float64
	MaxFootprint  int
	// OverheadDep is O_dep: DepOverhead over the mean footprint
	// (cycles). FullOverhead is the flat-key O the segment was rejected
	// with, for the contrast column.
	OverheadDep  float64
	FullOverhead int64
	// FullKeyBytes is the rejected flat key's width.
	FullKeyBytes int
	// Accepted is the formula-3 verdict under dep keys.
	Accepted bool
}

// ReuseRate is R_dep = 1 − Nds/N over footprints.
func (p *DepSegProfile) ReuseRate() float64 {
	if p.N == 0 {
		return 0
	}
	return 1 - float64(p.Nds)/float64(p.N)
}

// Gain is the per-instance formula-3 gain R_dep·C − O_dep (cycles).
func (p *DepSegProfile) Gain() float64 {
	return p.ReuseRate()*p.MeasuredC - p.OverheadDep
}

// DepKeyBytes is the modeled dynamic key width: 4 bytes per mean
// tracked location (one word each), rounded up.
func (p *DepSegProfile) DepKeyBytes() int {
	return int(math.Ceil(p.MeanFootprint)) * 4
}

// depCandidates selects the segments forwarded to dependence profiling:
// DepEligible under the model, frequent enough, and not overlapping any
// flat-key-selected segment or an earlier dep candidate.
func depCandidates(an *segment.Analysis, model *cost.Model, freq []int64, minFreq int64,
	selected []*segment.Segment) []*segment.Segment {

	cands, _ := segment.Disjoint(profile.FrequencyFilter(an.DepCandidates(model), freq, minFreq), selected)
	sort.Slice(cands, func(i, j int) bool { return cands[i].Index < cands[j].Index })
	return cands
}

// collectDepProfiles takes the dependence-footprint census of cands in
// one watched run of prog on the training input: each candidate keys
// like a dependence-tracked region over a profile-mode footprint trie,
// and all of them are profiled together.
func collectDepProfiles(o *Options, model *cost.Model, prog *minic.Program,
	cands []*segment.Segment) (map[string]*DepSegProfile, error) {

	if len(cands) == 0 {
		return nil, nil
	}
	tabs := make([]*depmemo.Table, len(cands))
	for i, s := range cands {
		tabs[i] = depmemo.New(depmemo.Config{Name: s.Name, Profile: true})
	}
	res, err := execute(prog, o.runOpts(model, false, o.MainArgs), profile.Watches(cands, tabs))
	if err != nil {
		return nil, fmt.Errorf("dep profiling run: %w", err)
	}

	profiles := map[string]*DepSegProfile{}
	for i, s := range cands {
		st := &res.Watched[i]
		if st.Err != nil {
			return nil, fmt.Errorf("dep profiling run: %w", st.Err)
		}
		if st.Run.Instances == 0 {
			continue
		}
		body := st.Run.BodyCycles
		for _, c := range st.Nested {
			body += c
		}
		tstats := tabs[i].Stats()
		dp := &DepSegProfile{
			Segment:       s.Name,
			N:             st.Run.Instances,
			Nds:           tstats.Distinct,
			MeasuredC:     float64(body) / float64(st.Run.BodyRuns),
			MeanFootprint: tstats.MeanFootprint(),
			MaxFootprint:  tstats.MaxFootprint,
			FullOverhead:  s.Overhead,
			FullKeyBytes:  s.KeyBytes,
		}
		fp := int(math.Ceil(dp.MeanFootprint))
		if fp < 1 {
			fp = 1
		}
		dp.OverheadDep = float64(model.DepOverhead(fp, s.OutBytes))
		dp.Accepted = dp.Gain() > 0
		profiles[s.Name] = dp
	}
	return profiles, nil
}

// depTableEntries sizes a final-run footprint table from the profiled
// distinct-footprint count, clamped to keep degenerate profiles sane.
func depTableEntries(o *Options, dp *DepSegProfile) int {
	if o.ForceEntries > 0 {
		return o.ForceEntries
	}
	n := int64(64)
	if dp != nil && dp.Nds > n {
		n = dp.Nds
	}
	if n > 16384 {
		n = 16384
	}
	return int(n)
}
