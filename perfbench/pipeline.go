package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"compreuse/internal/bench"
	"compreuse/internal/callgraph"
	"compreuse/internal/cleanup"
	"compreuse/internal/core"
	"compreuse/internal/cost"
	"compreuse/internal/dataflow"
	"compreuse/internal/depmemo"
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

// The pipeline workload runs the compiler scheme end to end: every op is
// one core.Run over a core-suite program, at the harness's -scale 8
// input size and MinFreq 8, as bench.Runner configures them.
const (
	pipeScale   = 8
	pipeMinFreq = 8
	pipeSetups  = 9
)

// pipeConfig is one op of a pass: a program at one pipeline setting.
type pipeConfig struct {
	name string
	opts core.Options
}

// pipeOutcome is what an op must reproduce on every pass.
type pipeOutcome struct {
	baseCycles, reuseCycles int64
	transformed             int
}

func outcomeOf(rep *core.Report) pipeOutcome {
	return pipeOutcome{rep.Baseline.Cycles, rep.Reuse.Cycles, rep.SegmentsTransformed}
}

// pipelineConfigs is one pass: the 7 core programs × {O0, O3, O0 with
// dependence keys}. The seed replaces each program's first main
// argument, its input generator's seed.
func pipelineConfigs(seed int64) []pipeConfig {
	var out []pipeConfig
	for i, p := range bench.Core() {
		for _, v := range []struct {
			level string
			dep   bool
		}{{"O0", false}, {"O3", false}, {"O0", true}} {
			o := p.RunOptions(v.level)
			o.MainArgs = append([]int64(nil), o.MainArgs...)
			o.MainArgs[0] = programSeed(seed, i)
			o.MainArgs[1] = max(1, o.MainArgs[1]/pipeScale)
			o.MinFreq = pipeMinFreq
			o.DepKeys = v.dep
			name := p.Name + "/" + v.level
			if v.dep {
				name += "+dep"
			}
			out = append(out, pipeConfig{name: name, opts: o})
		}
	}
	return out
}

// programSeed derives program i's input seed from the workload seed: a
// positive value below 2³⁰, like the suite's own seeds.
func programSeed(seed int64, i int) int64 {
	return 1 + int64(splitmix(uint64(seed)*0x9e3779b97f4a7c15+uint64(i))%(1<<30-1))
}

// pipeSetup loads the sources and runs one untimed warm-up op.
func pipeSetup(seed int64) ([]pipeConfig, error) {
	cfgs := pipelineConfigs(seed)
	if _, err := core.Run(cfgs[0].opts); err != nil {
		return nil, fmt.Errorf("warm-up %s: %w", cfgs[0].name, err)
	}
	return cfgs, nil
}

// pipePass is one timed pass: per-op latencies and the CPU it took.
type pipePass struct {
	lat  []time.Duration
	wall time.Duration
	cpu  time.Duration
}

// runPipelinePass runs every config once, checking each op against the
// baseline run and against ref (the first pass; nil on the first pass
// itself, which fills it).
func runPipelinePass(cfgs []pipeConfig, ref []pipeOutcome, res *result) pipePass {
	var p pipePass
	cpu0, t0 := cpuTime(), time.Now()
	for i, c := range cfgs {
		start := time.Now()
		rep, err := core.Run(c.opts)
		p.lat = append(p.lat, time.Since(start))
		res.attempted++
		switch {
		case err != nil:
			res.failOp("%s: %v", c.name, err)
		case rep.Reuse.Ret != rep.Baseline.Ret || rep.Reuse.Output != rep.Baseline.Output:
			res.failOp("%s: transformed program's result differs from the original's", c.name)
		case ref[i] == (pipeOutcome{}):
			ref[i] = outcomeOf(rep)
		case ref[i] != outcomeOf(rep):
			res.failOp("%s: cycles or transformed count changed between passes: %+v then %+v",
				c.name, ref[i], outcomeOf(rep))
		}
	}
	p.wall, p.cpu = time.Since(t0), cpuTime()-cpu0
	return p
}

// simSpeedup is the geometric mean of Baseline/Reuse simulated cycles.
func simSpeedup(ref []pipeOutcome) float64 {
	var logSum float64
	n := 0
	for _, o := range ref {
		if o.reuseCycles > 0 {
			logSum += math.Log(float64(o.baseCycles) / float64(o.reuseCycles))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// runPipeline is the untraced pipeline workload: whole passes until
// seconds have elapsed.
func runPipeline(seed int64, seconds int) *result {
	res := newResult()
	var setups []float64
	var cfgs []pipeConfig
	for range pipeSetups {
		t0 := time.Now()
		var err error
		if cfgs, err = pipeSetup(seed); err != nil {
			res.problem("setup: %v", err)
			return res
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	ref := make([]pipeOutcome, len(cfgs))
	var passes []pipePass
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for len(passes) == 0 || time.Now().Before(deadline) {
		passes = append(passes, runPipelinePass(cfgs, ref, res))
	}
	var lat, opsS, cpuUS []float64
	for _, p := range passes {
		for _, d := range p.lat {
			lat = append(lat, float64(d)/1e3)
		}
		opsS = append(opsS, float64(len(p.lat))/p.wall.Seconds())
		cpuUS = append(cpuUS, float64(p.cpu)/1e3/float64(len(p.lat)))
	}
	res.endToEnd(setups, opsS, lat, cpuUS, simSpeedup(ref))
	res.detail["passes"] = len(passes)
	res.detail["ops_per_pass"] = len(cfgs)
	return res
}

// tracePipeline is the traced pipeline run. A first untraced pass warms
// the process and records each op's outcome; a pass replays every op
// stage by stage with a span per layer call; unless probe is set, a
// second untraced pass then gives tracing overhead and coverage against
// an equally warm process. probe covers only the first program's three
// configs, for runs whose own workload does not touch these layers.
func tracePipeline(seed int64, probe bool) *result {
	res := newResult()
	cfgs, err := pipeSetup(seed)
	if err != nil {
		res.problem("setup: %v", err)
		return res
	}
	if probe {
		cfgs = cfgs[:3]
	}
	ref := make([]pipeOutcome, len(cfgs))
	runPipelinePass(cfgs, ref, res)

	rec := newRecorder(1 << 16)
	var cycles int64
	t0 := time.Now()
	for i, c := range cfgs {
		out, err := replayRun(rec, c.opts)
		res.attempted++
		if err != nil {
			res.failOp("replay %s: %v", c.name, err)
			continue
		}
		if got := out.pipeOutcome; got != ref[i] {
			res.problem("replay of %s diverged from core.Run: %+v, want %+v", c.name, got, ref[i])
		}
		cycles += out.cycles
	}
	tracedWall := time.Since(t0)
	lt := layerTotals{}
	lt.add(rec.spans)

	n := int64(len(cfgs))
	ms := time.Millisecond
	for _, l := range pipeLayers {
		res.add(l.metric, lt.selfPer(n, ms, l.spans...), "ms", int(lt.get(l.spans[0]).count))
	}
	res.add("core.run_ms", lt.meanTotal("core.run", ms), "ms", int(n))
	res.add("core.residual_ms", lt.selfPer(n, ms, "core.run"), "ms", int(n))
	interpSelf := lt.get("interp.run").self + lt.get("profile.collect").self
	res.add("interp.mcycles_s", float64(cycles)/1e6/interpSelf.Seconds(), "Mcycles/s", int(n))
	res.add("interp.cycles", float64(cycles)/float64(n), "count", int(n))
	if probe {
		return res
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	untraced := runPipelinePass(cfgs, ref, res)
	runtime.ReadMemStats(&ms1)
	res.add("runtime.alloc_bytes_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(n), "B", int(n))
	res.add("runtime.gc_cycles_per_kop", float64(ms1.NumGC-ms0.NumGC)/float64(n)*1e3, "count", int(n))
	res.addTraceCost(float64(n)/untraced.wall.Seconds(), float64(n)/tracedWall.Seconds(),
		untraced.wall/time.Duration(n), lt.selfSum()/time.Duration(n), int(n))
	return res
}

// pipeLayers maps each per-layer metric to the spans whose self time it
// sums, per op.
var pipeLayers = []struct {
	metric string
	spans  []string
}{
	{"minic.parse_check_ms", []string{"minic.parse_check"}},
	{"minic.print_ms", []string{"minic.print"}},
	{"cleanup.run_ms", []string{"cleanup.run"}},
	{"specialize.run_ms", []string{"specialize.run"}},
	{"opt.run_ms", []string{"opt.run"}},
	{"pointer.analyze_ms", []string{"pointer.analyze"}},
	{"callgraph.build_ms", []string{"callgraph.build"}},
	{"dataflow.effects_ms", []string{"dataflow.effects"}},
	{"segment.analyze_ms", []string{"segment.analyze"}},
	{"statreuse.estimate_ms", []string{"statreuse.estimate"}},
	{"profile.collect_ms", []string{"profile.collect"}},
	{"interp.run_ms", []string{"interp.run"}},
	{"transform.apply_ms", []string{"transform.apply"}},
}

// stager records one replayed op: each call runs inside a child span of
// the op's core.run root.
type stager struct {
	rec  *recorder
	root int32
}

func (s *stager) span(name string, f func()) {
	i := s.rec.begin(name, s.root)
	f()
	s.rec.end(i)
}

// prepared mirrors one analyzed copy of the program.
type prepared struct {
	prog *minic.Program
	cg   *callgraph.Graph
	an   *segment.Analysis
}

func (s *stager) analyses(prog *minic.Program) (*pointer.Analysis, *callgraph.Graph, *dataflow.Effects) {
	var pts *pointer.Analysis
	var cg *callgraph.Graph
	var eff *dataflow.Effects
	s.span("pointer.analyze", func() { pts = pointer.Analyze(prog) })
	s.span("callgraph.build", func() { cg = callgraph.Build(prog, pts) })
	s.span("dataflow.effects", func() { eff = dataflow.ComputeEffects(prog, pts, cg) })
	return pts, cg, eff
}

// prep is core's per-copy front end: parse and check, clean-up,
// specialization, optional -O3, then the analyses.
func (s *stager) prep(o *core.Options, model *cost.Model) (*prepared, error) {
	var prog *minic.Program
	var err error
	s.span("minic.parse_check", func() {
		if prog, err = minic.Parse(o.Name, o.Source); err == nil {
			err = minic.Check(prog)
		}
	})
	if err != nil {
		return nil, err
	}
	s.span("cleanup.run", func() { cleanup.Run(prog) })
	if !o.NoSpecialize {
		pts, cg, eff := s.analyses(prog)
		s.span("specialize.run", func() { specialize.Run(prog, pts, cg, eff, specialize.Options{}) })
	}
	if model.Name == "O3" {
		s.span("opt.run", func() { opt.Run(prog) })
	}
	pts, cg, eff := s.analyses(prog)
	var an *segment.Analysis
	s.span("segment.analyze", func() {
		an = segment.Analyze(prog, pts, cg, eff, segment.Options{Model: model, SubBlocks: o.SubBlocks})
	})
	return &prepared{prog: prog, cg: cg, an: an}, nil
}

func (s *stager) interpRun(prog *minic.Program, ro interp.Options) (res *interp.Result, err error) {
	s.span("interp.run", func() { res, err = interp.Run(prog, ro) })
	return res, err
}

// replayOut is what a replayed op measured.
type replayOut struct {
	pipeOutcome
	cycles int64 // simulated cycles of every VM run the op made
}

// replayRun replays core.Run's Figure-1 stage sequence for one config
// through the stages' public calls (no sub-blocks, no snapshot input, no
// separate measurement input — the workload uses none of them). Its
// outcome must equal core.Run's; the caller checks that.
func replayRun(rec *recorder, o core.Options) (out replayOut, err error) {
	model := cost.ModelFor(o.OptLevel)
	s := &stager{rec: rec, root: rec.root("core.run")}
	defer rec.end(s.root)
	runOpts := func(freq bool) interp.Options {
		return interp.Options{Model: model, MaxSteps: o.MaxSteps, CollectFreq: freq, Args: o.MainArgs}
	}

	// Copy A: baseline run with the execution-frequency profile.
	pa, err := s.prep(&o, model)
	if err != nil {
		return out, err
	}
	freqRes, err := s.interpRun(pa.prog, runOpts(true))
	if err != nil {
		return out, err
	}
	out.baseCycles = freqRes.Cycles
	out.cycles += freqRes.Cycles
	candidates := profile.FrequencyFilter(pa.an.Candidates(), freqRes.Freq, o.MinFreq)

	// Copy B: value-set profiling.
	profiles := map[string]*profile.SegProfile{}
	if len(candidates) > 0 {
		pb, err := s.prep(&o, model)
		if err != nil {
			return out, err
		}
		var pres *interp.Result
		s.span("profile.collect", func() {
			profiles, pres, err = profile.Collect(pb.prog, sameNamed(pb.an, candidates), model, runOpts(false))
		})
		if err != nil {
			return out, err
		}
		out.cycles += pres.Cycles
	}

	// Formula (3), then formula (4) over nested candidates.
	var cands []*nesting.Candidate
	for _, seg := range candidates {
		if sp := profiles[seg.Name]; sp != nil && sp.CostProfile().Profitable() {
			cands = append(cands, &nesting.Candidate{Seg: seg, Gain: sp.Gain(), Instances: sp.N})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Seg.Index < cands[j].Seg.Index })
	names := map[string]bool{}
	var selected []*segment.Segment
	for _, c := range nesting.Build(cands, pa.cg).Select() {
		names[c.Seg.Name] = true
		selected = append(selected, c.Seg)
	}
	out.transformed = len(selected)

	// Dependence-key second chance.
	depNames := map[string]bool{}
	depNds := map[string]int64{}
	if o.DepKeys {
		if err := s.depSecondChance(&o, model, pa.an, freqRes.Freq, selected, depNames, depNds, &out); err != nil {
			return out, err
		}
	}
	s.span("statreuse.estimate", func() { statreuse.EstimateAll(pa.an) })

	// Copy C: transform and measure.
	pc, err := s.prep(&o, model)
	if err != nil {
		return out, err
	}
	for n := range depNames {
		names[n] = true
	}
	var cSelected []*segment.Segment
	for _, seg := range pc.an.Segments {
		if names[seg.Name] {
			cSelected = append(cSelected, seg)
		}
	}
	var tres *transform.Result
	s.span("transform.apply", func() {
		tres = transform.Apply(pc.prog, cSelected, transform.Options{NoMerge: o.NoMerge, DepSegs: depNames})
	})
	ro := runOpts(false)
	ro.Tables = map[int]*reusetab.Table{}
	for _, ts := range tres.Tables {
		if ts.Dep {
			if ro.DepTables == nil {
				ro.DepTables = map[int]*depmemo.Table{}
			}
			ro.DepTables[ts.ID] = depmemo.New(ts.DepConfig(int(min(max(64, depNds[ts.Name]), 16384)), false))
			continue
		}
		ro.Tables[ts.ID] = reusetab.New(ts.Config(reusetab.ModeReuse, optimalEntries(ts, profiles, o.MaxSizeFactor), false))
	}
	s.span("minic.print", func() { minic.Print(pc.prog) })
	reuseRes, err := s.interpRun(pc.prog, ro)
	if err != nil {
		return out, err
	}
	out.reuseCycles = reuseRes.Cycles
	out.cycles += reuseRes.Cycles
	return out, nil
}

// depSecondChance profiles the frequent dependence-key candidates that
// overlap no selected segment on a fresh copy, and admits those whose
// formula-3 gain under DepOverhead is positive.
func (s *stager) depSecondChance(o *core.Options, model *cost.Model, an *segment.Analysis, freq []int64,
	selected []*segment.Segment, depNames map[string]bool, depNds map[string]int64, out *replayOut) error {

	var taken []map[int]bool
	for _, seg := range selected {
		taken = append(taken, nodeIDs(seg))
	}
	var cands []*segment.Segment
	for _, seg := range profile.FrequencyFilter(an.DepCandidates(model), freq, o.MinFreq) {
		ids := nodeIDs(seg)
		if !overlapsAny(ids, taken) {
			cands = append(cands, seg)
			taken = append(taken, ids)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	pd, err := s.prep(o, model)
	if err != nil {
		return err
	}
	mapped := sameNamed(pd.an, cands)
	profNames := map[string]bool{}
	for _, seg := range mapped {
		profNames[seg.Name] = true
	}
	var tres *transform.Result
	s.span("transform.apply", func() {
		tres = transform.Apply(pd.prog, mapped, transform.Options{DepSegs: profNames})
	})
	tabs := map[int]*depmemo.Table{}
	for _, ts := range tres.Tables {
		tabs[ts.ID] = depmemo.New(ts.DepConfig(0, true))
	}
	ro := interp.Options{Model: model, MaxSteps: o.MaxSteps, Args: o.MainArgs, DepTables: tabs}
	res, err := s.interpRun(pd.prog, ro)
	if err != nil {
		return err
	}
	out.cycles += res.Cycles
	for _, ts := range tres.Tables {
		seg := ts.Segs[0]
		st := res.Segs[tres.Regions[seg].ID()]
		if st == nil || st.Instances == 0 {
			continue
		}
		tst := tabs[ts.ID].Stats()
		fp := max(1, int(math.Ceil(tst.MeanFootprint())))
		dp := core.DepSegProfile{N: st.Instances, Nds: tst.Distinct, MeasuredC: st.MeasuredC(),
			OverheadDep: float64(model.DepOverhead(fp, seg.OutBytes))}
		depNds[seg.Name] = dp.Nds
		if dp.Gain() > 0 {
			depNames[seg.Name] = true
			out.transformed++
		}
	}
	return nil
}

// optimalEntries sizes a flat table from the union of its segments'
// profiled key census.
func optimalEntries(ts *transform.TableSpec, profiles map[string]*profile.SegProfile, factor float64) int {
	seen := map[string]bool{}
	var keys []string
	for _, seg := range ts.Segs {
		if sp := profiles[seg.Name]; sp != nil {
			for _, kc := range sp.Census {
				if !seen[kc.Key] {
					seen[kc.Key] = true
					keys = append(keys, kc.Key)
				}
			}
		}
	}
	if len(keys) == 0 {
		return 64
	}
	if factor == 0 {
		factor = 4
	}
	return reusetab.OptimalEntries(keys, factor)
}

// sameNamed finds src's segments, by name, in another analyzed copy.
func sameNamed(an *segment.Analysis, src []*segment.Segment) []*segment.Segment {
	byName := map[string]*segment.Segment{}
	for _, seg := range an.Segments {
		byName[seg.Name] = seg
	}
	var out []*segment.Segment
	for _, seg := range src {
		if m, ok := byName[seg.Name]; ok {
			out = append(out, m)
		}
	}
	return out
}

// nodeIDs is the set of AST node ids in a segment's body.
func nodeIDs(seg *segment.Segment) map[int]bool {
	ids := map[int]bool{}
	minic.Inspect(seg.Body, func(n minic.Node) bool {
		if x, ok := n.(interface{ ID() int }); ok {
			ids[x.ID()] = true
		}
		return true
	})
	return ids
}

func overlapsAny(ids map[int]bool, sets []map[int]bool) bool {
	for _, set := range sets {
		for id := range ids {
			if set[id] {
				return true
			}
		}
	}
	return false
}
