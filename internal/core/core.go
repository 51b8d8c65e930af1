// Package core runs the complete compiler scheme of Ding & Li (CGO 2004),
// following their Figure 1:
//
//	source program
//	  → clean-up, specialization (§2.4), optionally -O3 optimization
//	  → call graph, pointer analysis, global def-use summary
//	  → code segment analysis (granularity / hashing-overhead bounds)
//	  → execution-frequency profiling; filter infrequent segments
//	  → O/C < 1 filter (formula 3's necessary condition)
//	  → value-set profiling (N, N_ds, measured C)
//	  → cost–benefit decision R·C − O > 0 (formulas 1–3)
//	  → nested-segment resolution (formula 4, §2.3)
//	  → code generation with (merged) reuse tables (§2.5, Fig. 2b)
//	  → measurement runs (time and energy)
//
// One prepared copy of the program serves the whole compile. A single
// instrumented execution takes the frequency profile, the value-set
// profiles of every O/C-passing candidate (in place, through interp
// watches) and, on the same input, the baseline measurement; the
// frequency filter then picks the profiles to keep. The selected
// segments are transformed on the same copy for the measurement run
// (running never mutates the AST).
package core

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"compreuse/internal/callgraph"
	"compreuse/internal/cleanup"
	"compreuse/internal/cost"
	"compreuse/internal/dataflow"
	"compreuse/internal/depmemo"
	"compreuse/internal/energy"
	"compreuse/internal/interp"
	"compreuse/internal/minic"
	"compreuse/internal/nesting"
	"compreuse/internal/opt"
	"compreuse/internal/pointer"
	"compreuse/internal/profile"
	"compreuse/internal/reusetab"
	"compreuse/internal/segment"
	"compreuse/internal/specialize"
	"compreuse/internal/statreuse"
	"compreuse/internal/transform"
)

// Options configures one pipeline run.
type Options struct {
	// Name labels the program in reports.
	Name string
	// Source is the MiniC program text.
	Source string
	// OptLevel is "O0" (default) or "O3".
	OptLevel string
	// MainArgs are passed to main.
	MainArgs []int64
	// MaxSteps bounds each VM run (0 = default).
	MaxSteps int64
	// MinFreq is the execution-frequency filter threshold (default 8).
	MinFreq int64
	// NoMerge disables hash-table merging (§2.5 ablation).
	NoMerge bool
	// NoSpecialize disables code specialization (§2.4 ablation).
	NoSpecialize bool
	// MaxSizeFactor caps the optimal table sizing search (default 4).
	MaxSizeFactor float64
	// SubBlocks enables the sub-block segment extension (the paper's §5
	// future work: reusing parts of a body instead of the whole body).
	SubBlocks bool
	// DepKeys enables the dependence-key second chance: segments the
	// flat-key O/C >= 1 pre-filter rejected are re-profiled by a census
	// of their dependence footprints and, when formula (3) holds under
	// the per-location DepOverhead model, keyed by dependence-tracked
	// footprint tables (internal/depmemo).
	// Off by default; the flat-key pipeline output is unchanged.
	DepKeys bool
	// MeasureArgs, when non-nil, are used for the measurement runs while
	// profiling still uses MainArgs — the cross-input study of Table 10.
	MeasureArgs []int64
	// Profile, when non-nil, supplies a previously collected profiling
	// snapshot (cmd/crc -profile-in): the frequency and value-set
	// profiling runs are skipped and decisions are made from the snapshot.
	// It must have been taken on the same source at the same OptLevel.
	Profile *profile.Snapshot
}

// RunSummary is one measured execution.
type RunSummary struct {
	Ret     int64
	Cycles  int64
	Seconds float64
	Energy  energy.Measurement
	Output  string
}

// TableInfo describes one instantiated reuse table after the final run.
type TableInfo struct {
	Name       string
	Segs       []string
	Entries    int
	EntryBytes int
	SizeBytes  int
	// Resident is the number of entries stored at the end of the run.
	Resident int
	Stats    reusetab.SegStats // summed over merged segments
	// Dep marks a dependence-tracked footprint trie (Options.DepKeys);
	// Stats is then synthesized from the region's run stats and the
	// trie's counters, and EntryBytes is the modeled dynamic key width
	// plus the output payload.
	Dep bool
	// AccessCounts are per-entry probe counts (Figures 7/8).
	AccessCounts []int64
	// PredictedCollisionRate is the profiling-time estimate of executions
	// lost to direct-addressing collisions at this table size (§2.1's
	// deduction; in the paper only MPEG2 collides).
	PredictedCollisionRate float64
}

// Report is the complete outcome of the pipeline.
type Report struct {
	Name     string
	OptLevel string

	SegmentsAnalyzed    int
	SegmentsProfiled    int
	SegmentsTransformed int
	Specialized         []string

	// Ledger is the structured decision ledger, the compile's only
	// per-segment record: one record per analyzed segment with the
	// observed quantities of formulas (1)-(4) and the accept/reject
	// verdict (see DecisionRecord; LedgerJSON serializes it).
	Ledger []DecisionRecord
	// Profiles holds the value-set profile (census) of each segment that
	// reached flat-key value-set profiling, by segment name.
	Profiles map[string]*profile.SegProfile
	// DepProfiles holds the dependence-footprint census for each segment
	// the dep-key second chance profiled (Options.DepKeys; nil otherwise).
	DepProfiles map[string]*DepSegProfile

	Baseline RunSummary
	Reuse    RunSummary
	Tables   []TableInfo

	// TransformedSource is the printed source-to-source output (§3.1),
	// with reuse regions rendered as __crc_probe/__crc_record/__crc_fetch
	// pseudo-calls in the style of the paper's Figure 2(b).
	TransformedSource string

	// args and freq are the training input and its frequency profile.
	args, freq []int64
}

// Snapshot packages the profiling artifact of this run, suitable for
// Options.Profile in a later invocation (cmd/crc -profile-out).
func (r *Report) Snapshot() *profile.Snapshot {
	return profile.ToSnapshot(r.Name, r.OptLevel, r.args, r.freq, r.Profiles)
}

// Speedup is baseline time over reuse time.
func (r *Report) Speedup() float64 {
	if r.Reuse.Cycles == 0 {
		return 0
	}
	return float64(r.Baseline.Cycles) / float64(r.Reuse.Cycles)
}

// EnergySaving is the fractional energy saved by the transformation.
func (r *Report) EnergySaving() float64 {
	return energy.Saving(r.Baseline.Energy, r.Reuse.Energy)
}

// prepared is one fully analyzed copy of the program.
type prepared struct {
	prog *minic.Program
	pts  *pointer.Analysis
	cg   *callgraph.Graph
	eff  *dataflow.Effects
	an   *segment.Analysis
	spec []string
}

// prep parses and runs the deterministic pre-passes and analyses.
func prep(o *Options, model *cost.Model) (*prepared, error) {
	preps.Add(1)
	prog, err := minic.Parse(o.Name, o.Source)
	if err != nil {
		return nil, err
	}
	if err := minic.Check(prog); err != nil {
		return nil, err
	}
	cleanup.Run(prog)

	var specNames []string
	if !o.NoSpecialize {
		pts := pointer.Analyze(prog)
		cg := callgraph.Build(prog, pts)
		eff := dataflow.ComputeEffects(prog, pts, cg)
		res := specialize.Run(prog, pts, cg, eff, specialize.Options{})
		for _, f := range res.Created {
			specNames = append(specNames, f.Name)
		}
	}
	if model.Name == "O3" {
		opt.Run(prog)
	}

	pts := pointer.Analyze(prog)
	cg := callgraph.Build(prog, pts)
	eff := dataflow.ComputeEffects(prog, pts, cg)
	an := segment.Analyze(prog, pts, cg, eff, segment.Options{Model: model, SubBlocks: o.SubBlocks})
	return &prepared{prog: prog, pts: pts, cg: cg, eff: eff, an: an, spec: specNames}, nil
}

func (o *Options) runOpts(model *cost.Model, freq bool, args []int64) interp.Options {
	return interp.Options{
		Model:       model,
		MaxSteps:    o.MaxSteps,
		CollectFreq: freq,
		Args:        args,
	}
}

func summarize(res *interp.Result) RunSummary {
	return RunSummary{
		Ret:     res.Ret,
		Cycles:  res.Cycles,
		Seconds: res.Seconds(),
		Energy:  energy.Measure(res, energy.Default()),
		Output:  res.Output,
	}
}

// SweepPoint is one table configuration for RunSweep.
type SweepPoint struct {
	// Entries per table (0 = the profiling-derived optimal size).
	Entries int
	// LRU selects associative LRU replacement (Table 5's hardware-buffer
	// emulation) instead of direct addressing.
	LRU bool
}

// SweepOutcome is the measurement of one sweep point.
type SweepOutcome struct {
	Point SweepPoint
	// SizeBytes is the total modeled table memory at this point.
	SizeBytes int
	Reuse     RunSummary
	Tables    []TableInfo
	// Speedup is baseline over this point's reuse time.
	Speedup float64
}

// RunSweep runs the scheme once (profiling, selection, transformation),
// then measures the transformed program under each table configuration —
// the methodology of the paper's Table 5 and Figures 14/15, which vary
// only the table, not the compilation.
func RunSweep(o Options, points []SweepPoint) (*Report, []SweepOutcome, error) {
	rep, c, err := compile(o)
	if err != nil {
		return nil, nil, err
	}
	var outcomes []SweepOutcome
	for _, pt := range points {
		out, _, err := c.measure(rep, pt)
		if err != nil {
			return nil, nil, fmt.Errorf("sweep point %+v: %w", pt, err)
		}
		outcomes = append(outcomes, out)
	}
	return rep, outcomes, nil
}

// compiled is a compile's transformed program, for further measurement.
type compiled struct {
	o           Options // with Run's defaults applied
	model       *cost.Model
	measureArgs []int64
	prog        *minic.Program
	tres        *transform.Result
}

// Counters of the prepared copies and VM executions every compile makes
// (read by tests).
var preps, executions atomic.Int64

// profileRun is the compile's instrumented run of the training input:
// it watches cands and, with dependence keys, takes the footprint census.
func (pa *prepared) profileRun(o *Options, model *cost.Model, cands []*segment.Segment) (*interp.Result, *depCensus, error) {
	watches := profile.Watches(cands, false)
	var census *depCensus
	if o.DepKeys {
		census = newDepCensus(pa.an, model, len(cands))
		watches = append(watches, census.watches()...)
	}
	res, err := execute(pa.prog, o.runOpts(model, true, o.MainArgs), watches)
	if err != nil {
		return nil, nil, fmt.Errorf("frequency profiling run: %w", err)
	}
	if census != nil {
		census.stats = res.Watched
	}
	return res, census, nil
}

// execute is the one way the pipeline runs the VM.
func execute(prog *minic.Program, ro interp.Options, watches []*interp.Watch) (*interp.Result, error) {
	executions.Add(1)
	return interp.RunWatched(prog, ro, watches)
}

// Run executes the whole scheme.
func Run(o Options) (*Report, error) {
	rep, _, err := compile(o)
	return rep, err
}

// defaults fills in the options Run defaults.
func (o *Options) defaults() {
	if o.OptLevel == "" {
		o.OptLevel = "O0"
	}
	if o.MinFreq == 0 {
		o.MinFreq = 8
	}
	if o.MaxSizeFactor == 0 {
		o.MaxSizeFactor = 4
	}
}

// compile runs the scheme and returns the report with the transformed
// program it measured.
func compile(o Options) (*Report, *compiled, error) {
	o.defaults()
	model := cost.ModelFor(o.OptLevel)
	measureArgs := o.MainArgs
	if o.MeasureArgs != nil {
		measureArgs = o.MeasureArgs
	}

	rep := &Report{Name: o.Name, OptLevel: o.OptLevel}

	pa, err := prep(&o, model)
	if err != nil {
		return nil, nil, err
	}
	rep.Specialized = pa.spec
	rep.SegmentsAnalyzed = len(pa.an.Segments)

	// --- Profiling. Frequencies and value-set profiles come from the
	// training input (MainArgs); the baseline time/energy measurement
	// uses the measurement input, so the profiling run doubles as the
	// baseline when the two coincide.
	var freq []int64
	var candidates []*segment.Segment
	var census *depCensus
	profiles := map[string]*profile.SegProfile{}
	measured := false
	if o.Profile != nil {
		// Offline workflow: frequencies and value-set profiles come from
		// the snapshot; only the baseline measurement runs.
		if o.Profile.OptLevel != o.OptLevel {
			return nil, nil, fmt.Errorf("profile snapshot was taken at %s, not %s",
				o.Profile.OptLevel, o.OptLevel)
		}
		freq = o.Profile.Freq
		candidates = profile.FrequencyFilter(pa.an.Candidates(), freq, o.MinFreq)
		// Keep only the profiles for segments that are candidates of this
		// compilation.
		snap := o.Profile.Profiles()
		for _, s := range candidates {
			if sp, ok := snap[s.Name]; ok {
				profiles[s.Name] = sp
			}
		}
	} else {
		// One instrumented run profiles every structural candidate that
		// passes the O/C filter and, with dependence keys, takes the
		// footprint census of the dep-eligible ones; the frequency filter
		// and the selection then pick the profiles to keep.
		cands := pa.an.Candidates()
		var res *interp.Result
		res, census, err = pa.profileRun(&o, model, cands)
		if err != nil {
			return nil, nil, err
		}
		freq = res.Freq
		candidates = profile.FrequencyFilter(cands, freq, o.MinFreq)
		if profiles, err = profile.Layout(cands, res.Watched[:len(cands)], candidates, model); err != nil {
			return nil, nil, err
		}
		if measured = slices.Equal(o.MainArgs, measureArgs); measured {
			rep.Baseline = summarize(res)
		}
	}
	if !measured {
		res, err := execute(pa.prog, o.runOpts(model, false, measureArgs), nil)
		if err != nil {
			return nil, nil, fmt.Errorf("baseline run: %w", err)
		}
		rep.Baseline = summarize(res)
	}
	passedFreq := map[string]bool{}
	for _, s := range candidates {
		passedFreq[s.Name] = true
	}
	rep.args, rep.freq = o.MainArgs, freq
	rep.Profiles = profiles
	rep.SegmentsProfiled = len(profiles)

	// --- Decision: formula (3) then nesting resolution (formula 4).
	var cands []*nesting.Candidate
	for _, s := range candidates {
		sp := profiles[s.Name]
		if sp == nil {
			continue
		}
		if sp.CostProfile().Profitable() {
			cands = append(cands, &nesting.Candidate{Seg: s, Gain: sp.Gain(), Instances: sp.N})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Seg.Index < cands[j].Seg.Index })
	ng := nesting.Build(cands, pa.cg)
	nestSelected := ng.Select()
	selected := dropOverlapping(nestSelected)
	overlapDropped := map[string]bool{}
	kept := map[string]bool{}
	for _, c := range selected {
		kept[c.Seg.Name] = true
	}
	for _, c := range nestSelected {
		if !kept[c.Seg.Name] {
			overlapDropped[c.Seg.Name] = true
		}
	}
	nestingWhy := nestingExplanations(ng, selected)
	selectedNames := map[string]bool{}
	for _, c := range selected {
		selectedNames[c.Seg.Name] = true
	}

	// --- Dep-key second chance (Options.DepKeys): admit pre-filter
	// rejects that are profitable under DepOverhead, keyed by
	// dependence-tracked footprint tables. Skipped in the
	// offline-snapshot workflow (the snapshot holds no footprint census).
	var depProfiles map[string]*DepSegProfile
	depNames := map[string]bool{}
	if census != nil {
		var selSegs []*segment.Segment
		for _, c := range selected {
			selSegs = append(selSegs, c.Seg)
		}
		depCands := depCandidates(pa.an, model, freq, o.MinFreq, selSegs)
		var folded bool
		if depProfiles, folded = census.profiles(depCands, model); !folded {
			if depProfiles, err = collectDepProfiles(&o, model, pa.prog, depCands); err != nil {
				return nil, nil, err
			}
		}
		for name, dp := range depProfiles {
			if dp.Accepted {
				depNames[name] = true
			}
		}
	}
	rep.DepProfiles = depProfiles
	rep.SegmentsTransformed = len(selected) + len(depNames)

	// Static reuse-rate estimation R̂ — computed from the analysis alone
	// (no profiling data), recorded next to the profiled R so the report
	// layer can measure the estimator's error and the serving tier can
	// seed admission priors before any traffic arrives.
	rep.Ledger = buildLedger(&o, rep, pa.an.Segments, passedFreq, selectedNames,
		nestingWhy, overlapDropped, statreuse.EstimateAll(pa.an), depProfiles)

	// --- Final transformation, on the profiled copy, and measurement run.
	var final []*segment.Segment
	for _, s := range pa.an.Segments {
		if selectedNames[s.Name] || depNames[s.Name] {
			final = append(final, s)
		}
	}
	tres := transform.Apply(pa.prog, final, transform.Options{NoMerge: o.NoMerge, DepSegs: depNames})
	rep.TransformedSource = minic.Print(pa.prog)
	c := &compiled{o: o, model: model, measureArgs: measureArgs, prog: pa.prog, tres: tres}
	out, tabs, err := c.measure(rep, SweepPoint{})
	if err != nil {
		return nil, nil, fmt.Errorf("transformed run: %w", err)
	}
	rep.Reuse, rep.Tables = out.Reuse, out.Tables
	for i, ts := range tres.Tables {
		info := &rep.Tables[i]
		if ts.Dep {
			if st := info.Stats; st.Probes > 0 {
				for j := range rep.Ledger {
					if rep.Ledger[j].Segment == ts.Name {
						rep.Ledger[j].DepHitRate = float64(st.Hits) / float64(st.Probes)
					}
				}
			}
			continue
		}
		info.AccessCounts = tabs[ts.ID].AccessCounts()
		if sp := rep.Profiles[ts.Segs[0].Name]; sp != nil {
			info.PredictedCollisionRate = profile.CollisionDeduction(sp.Census, info.Entries)
		}
	}
	return rep, c, nil
}

// newTables instantiates fresh tables for a transformed program: flat
// tables of pt.Entries each (0 = the profiling-derived optimal size),
// with LRU replacement when pt.LRU is set, and footprint tries sized from
// the dependence census (pt.Entries, when positive, overrides that size
// too). The compile's own measurement uses the zero SweepPoint.
func (o *Options) newTables(tres *transform.Result, rep *Report, pt SweepPoint) (map[int]*reusetab.Table, map[int]*depmemo.Table) {
	tabs := map[int]*reusetab.Table{}
	depTabs := map[int]*depmemo.Table{}
	for _, ts := range tres.Tables {
		n := pt.Entries
		if ts.Dep {
			if n <= 0 {
				n = depTableEntries(rep.DepProfiles[ts.Name])
			}
			depTabs[ts.ID] = depmemo.New(ts.DepConfig(n, false))
			continue
		}
		if n <= 0 {
			n = o.optimalEntries(ts, rep.Profiles)
		}
		tabs[ts.ID] = reusetab.New(ts.Config(reusetab.ModeReuse, n, pt.LRU))
	}
	return tabs, depTabs
}

// measure runs the transformed program on the measurement input with
// fresh tables configured by pt, and describes each table after the run
// (in c.tres.Tables order). It also returns the flat tables, by ID.
func (c *compiled) measure(rep *Report, pt SweepPoint) (SweepOutcome, map[int]*reusetab.Table, error) {
	tabs, depTabs := c.o.newTables(c.tres, rep, pt)
	ro := c.o.runOpts(c.model, false, c.measureArgs)
	ro.Tables = tabs
	if len(depTabs) > 0 {
		ro.DepTables = depTabs
	}
	res, err := execute(c.prog, ro, nil)
	if err != nil {
		return SweepOutcome{}, nil, err
	}
	out := SweepOutcome{Point: pt, Reuse: summarize(res)}
	for _, ts := range c.tres.Tables {
		var info TableInfo
		if ts.Dep {
			info = depTableInfo(ts, depTabs[ts.ID], rep.DepProfiles[ts.Name], res, c.tres)
		} else {
			info = flatTableInfo(ts, tabs[ts.ID])
		}
		out.Tables = append(out.Tables, info)
		out.SizeBytes += info.SizeBytes
	}
	if out.Reuse.Cycles > 0 {
		out.Speedup = float64(rep.Baseline.Cycles) / float64(out.Reuse.Cycles)
	}
	return out, tabs, nil
}

// flatTableInfo describes a flat table after a measurement run.
func flatTableInfo(ts *transform.TableSpec, tab *reusetab.Table) TableInfo {
	info := TableInfo{
		Name:       ts.Name,
		Entries:    tab.Config().Entries,
		EntryBytes: tab.EntryBytes(),
		SizeBytes:  tab.SizeBytes(),
		Resident:   tab.Resident(),
		Stats:      tab.TotalStats(),
	}
	for _, s := range ts.Segs {
		info.Segs = append(info.Segs, s.Name)
	}
	return info
}

// depTableInfo synthesizes the TableInfo of a dependence-tracked table:
// probes/hits come from the region's run stats, records/evictions from
// the trie.
func depTableInfo(ts *transform.TableSpec, tab *depmemo.Table,
	dp *DepSegProfile, reuseRes *interp.Result, tres *transform.Result) TableInfo {

	dst := tab.Stats()
	var inst, hits int64
	if st := reuseRes.Segs[tres.Regions[ts.Segs[0]].ID()]; st != nil {
		inst, hits = st.Instances, st.Hits
	}
	entryBytes := ts.OutBytes[0]
	if dp != nil {
		entryBytes += dp.DepKeyBytes()
	} else {
		entryBytes += ts.KeyBytes // no census: fall back to the flat key width
	}
	return TableInfo{
		Name:       ts.Name,
		Segs:       []string{ts.Name},
		Entries:    tab.Config().Entries,
		EntryBytes: entryBytes,
		SizeBytes:  tab.Config().Entries * entryBytes,
		Resident:   tab.Resident(),
		Dep:        true,
		Stats: reusetab.SegStats{
			Probes:    inst,
			Hits:      hits,
			Misses:    inst - hits,
			Records:   dst.Records,
			Evictions: dst.Evictions,
		},
	}
}

// optimalEntries sizes a table from the profiling census (paper §3.1: "the
// hash table size is determined based on the value profiling information").
func (o *Options) optimalEntries(ts *transform.TableSpec, profiles map[string]*profile.SegProfile) int {
	seen := map[string]bool{}
	var keys []string
	for _, seg := range ts.Segs {
		sp := profiles[seg.Name]
		if sp == nil {
			continue
		}
		for _, kc := range sp.Census {
			if !seen[kc.Key] {
				seen[kc.Key] = true
				keys = append(keys, kc.Key)
			}
		}
	}
	if len(keys) == 0 {
		return 64
	}
	return reusetab.OptimalEntries(keys, o.MaxSizeFactor)
}

// dropOverlapping resolves residual conflicts among selected candidates
// (overlapping sub-block runs are not a nesting relation, so formula (4)
// cannot arbitrate them): keep the higher-total-gain candidate.
func dropOverlapping(selected []*nesting.Candidate) []*nesting.Candidate {
	sorted := append([]*nesting.Candidate(nil), selected...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].TotalGain() > sorted[j].TotalGain() })
	segs := make([]*segment.Segment, len(sorted))
	for i, c := range sorted {
		segs[i] = c.Seg
	}
	keptSegs, _ := segment.Disjoint(segs, nil)
	keep := map[*segment.Segment]bool{}
	for _, s := range keptSegs {
		keep[s] = true
	}
	var kept []*nesting.Candidate
	for _, c := range sorted {
		if keep[c.Seg] {
			kept = append(kept, c)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Seg.Index < kept[j].Seg.Index })
	return kept
}
