package core

import (
	"fmt"
	"math"
	"sort"

	"compreuse/internal/cost"
	"compreuse/internal/interp"
	"compreuse/internal/minic"
	"compreuse/internal/profile"
	"compreuse/internal/segment"
)

// Dependence-key second chance (Options.DepKeys): segments the flat-key
// O/C >= 1 pre-filter rejected — typically because a wide, sparsely-read
// aggregate dominates the key — are re-profiled by a census of their
// dependence footprints and, when formula (3) holds under
// cost.Model.DepOverhead, keyed by footprint tries (internal/depmemo).
// Formula (3) is then R_dep·C − O_dep > 0, where R_dep is the reuse rate
// over footprints and O_dep prices one trie level per location actually
// read instead of one Jenkins pass per key byte.

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

// depCensus is a footprint census of segs: segs[i] is watch first+i of
// the run whose statistics are stats. The frequency run takes one of the
// dep-eligible segments that no earlier one overlaps (a segment inside
// an earlier one is kept only when that one is not, so its census waits
// for the selection); a separate run takes one of exactly the candidates
// the selection keeps (collectDepProfiles).
type depCensus struct {
	segs  []*segment.Segment
	first int
	stats []interp.WatchStats
}

func newDepCensus(an *segment.Analysis, model *cost.Model, first int) *depCensus {
	segs, _ := segment.Disjoint(an.DepCandidates(model), nil)
	return &depCensus{segs: segs, first: first}
}

// watches returns the census's watches, each bounded (Watch.Bounded). A
// census the selection discards costs its watch until it stops; one it
// keeps is then retaken in a separate run. Unbounded, censuses the
// selection then drops, like MPEG2's fdct@loop4, cost far more than that
// run (DESIGN §4l).
func (c *depCensus) watches() []*interp.Watch {
	ws := profile.Watches(c.segs, true)
	for _, w := range ws {
		w.Bounded = true
	}
	return ws
}

// profiles returns the profiles of cands, the disjoint candidates the
// selection keeps, as a run watching only them would have taken them:
// their instrumentation reads were hidden from every watcher, and a body
// is charged the side cycles of the kept watches alone (profile.Layout's
// rule for a wave). ok is false when the frequency run could not serve
// every candidate: one was not watched, or its watch stopped.
func (c *depCensus) profiles(cands []*segment.Segment, model *cost.Model) (profiles map[string]*DepSegProfile, ok bool) {
	idx := make(map[*segment.Segment]int, len(c.segs))
	for i, s := range c.segs {
		idx[s] = c.first + i
	}
	for _, s := range cands {
		if i, watched := idx[s]; !watched || c.stats[i].Err != nil {
			return nil, false
		}
	}
	if len(cands) == 0 {
		return nil, true
	}
	profiles = map[string]*DepSegProfile{}
	for _, s := range cands {
		st := &c.stats[idx[s]]
		var nested int64
		for _, t := range cands {
			nested += st.Nested[idx[t]]
		}
		if dp := depProfile(s, st, nested, model); dp != nil {
			profiles[s.Name] = dp
		}
	}
	return profiles, true
}

// collectDepProfiles takes the footprint census of cands in a separate
// watched run of prog on the training input, for the candidates the
// frequency run's census could not serve.
func collectDepProfiles(o *Options, model *cost.Model, prog *minic.Program,
	cands []*segment.Segment) (map[string]*DepSegProfile, error) {

	if len(cands) == 0 {
		return nil, nil
	}
	res, err := execute(prog, o.runOpts(model, false, o.MainArgs), profile.Watches(cands, true))
	if err != nil {
		return nil, fmt.Errorf("dep profiling run: %w", err)
	}
	for _, st := range res.Watched {
		if st.Err != nil {
			return nil, fmt.Errorf("dep profiling run: %w", st.Err)
		}
	}
	profiles, _ := (&depCensus{segs: cands, stats: res.Watched}).profiles(cands, model)
	return profiles, nil
}

// depProfile is the profile of s from its watch's statistics st and the
// side cycles nested charged to its instances; nil when s never ran.
func depProfile(s *segment.Segment, st *interp.WatchStats, nested int64, model *cost.Model) *DepSegProfile {
	if st.Run.Instances == 0 {
		return nil
	}
	var records int64
	for i := range st.Census.Len() {
		records += st.Census.At(i).Count
	}
	dp := &DepSegProfile{
		Segment:      s.Name,
		N:            st.Run.Instances,
		Nds:          int64(st.Census.Len()),
		MeasuredC:    float64(st.Run.BodyCycles+nested) / float64(st.Run.BodyRuns),
		MaxFootprint: st.MaxFootprint,
		FullOverhead: s.Overhead,
		FullKeyBytes: s.KeyBytes,
	}
	if records > 0 {
		dp.MeanFootprint = float64(st.FootprintSum) / float64(records)
	}
	fp := int(math.Ceil(dp.MeanFootprint))
	if fp < 1 {
		fp = 1
	}
	dp.OverheadDep = float64(model.DepOverhead(fp, s.OutBytes))
	dp.Accepted = dp.Gain() > 0
	return dp
}

// depTableEntries sizes a final-run footprint table from the profiled
// distinct-footprint count, clamped to keep degenerate profiles sane.
func depTableEntries(dp *DepSegProfile) int {
	n := int64(64)
	if dp != nil && dp.Nds > n {
		n = dp.Nds
	}
	if n > 16384 {
		n = 16384
	}
	return int(n)
}
