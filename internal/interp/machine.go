package interp

import (
	"strings"

	"compreuse/internal/cost"
	"compreuse/internal/depmemo"
	"compreuse/internal/minic"
	"compreuse/internal/reusetab"
)

// OpCounts tallies executed operations by class, feeding the energy model.
type OpCounts struct {
	IntOps   int64
	MulOps   int64
	DivOps   int64
	FloatOps int64
	MemOps   int64
	Branches int64
	Calls    int64
	HashOps  int64 // hashing-overhead cycles converted to op count equivalents
}

// SegRunStats accumulates per-ReuseRegion dynamic statistics (keyed by the
// region's AST node id).
type SegRunStats struct {
	// Instances is the number of times the region was entered.
	Instances int64
	// BodyCycles is the total cycles spent executing the region body
	// (misses only in ModeReuse; every instance in ModeProfile). Dividing
	// by body executions yields the measured granularity C.
	BodyCycles int64
	// BodyRuns is the number of body executions.
	BodyRuns int64
	// OverheadCycles is the total hashing overhead charged.
	OverheadCycles int64
	// Hits is the number of table hits.
	Hits int64
}

// MeasuredC returns the measured per-instance granularity in cycles.
func (s *SegRunStats) MeasuredC() float64 {
	if s.BodyRuns == 0 {
		return 0
	}
	return float64(s.BodyCycles) / float64(s.BodyRuns)
}

// Options configures a VM run.
type Options struct {
	// Model is the cycle cost model; defaults to cost.O0().
	Model *cost.Model
	// Tables maps ReuseRegion.TableID to its table. Regions referencing a
	// missing table fault at first use.
	Tables map[int]*reusetab.Table
	// DepTables maps dependence-tracked regions (ReuseRegion.Dep) to
	// their footprint tries; the ID space is shared with Tables, so dep
	// regions must use table IDs no flat-key region uses.
	DepTables map[int]*depmemo.Table
	// MaxSteps bounds executed statements (0 = 4e9).
	MaxSteps int64
	// CollectFreq enables per-node execution-frequency profiling.
	CollectFreq bool
	// MaxDepth bounds the call stack (0 = 10000).
	MaxDepth int
	// Args are the integer arguments passed to main (if it takes any).
	Args []int64
}

// Result is the outcome of a VM run.
type Result struct {
	// Ret is main's return value.
	Ret int64
	// Cycles is the total modeled cycle count.
	Cycles int64
	// Output is everything printed by the program.
	Output string
	// Ops are the executed operation counts by class.
	Ops OpCounts
	// Freq maps node id to execution count when Options.CollectFreq is set.
	Freq []int64
	// Segs holds per-ReuseRegion stats keyed by region node id.
	Segs map[int]*SegRunStats
	// Watched holds RunWatched's per-watch statistics, in watch order.
	Watched []WatchStats
	// Side and SideOps are the cycles and ops of RunWatched's
	// instrumentation, which Cycles and Ops exclude.
	Side    int64
	SideOps OpCounts
}

// Seconds returns the modeled wall-clock time of the run.
func (r *Result) Seconds() float64 { return cost.Seconds(r.Cycles) }

// Machine executes one program. A Machine is single-use: Run creates
// one, lowers the program against it and executes main.
type Machine struct {
	m       cost.Model
	u       units
	globals *Seg
	out     strings.Builder
	cycles  int64
	ops     OpCounts
	// pending holds op counts paid by static prices and not yet added
	// to ops, packed as a price packs them.
	pending uint64
	steps   int64
	maxStep int64
	depth   int
	maxDep  int
	tables  map[int]*reusetab.Table
	depTabs map[int]*depmemo.Table
	segs    map[int]*SegRunStats
	freq    []int64
	retVal  Value
	// hide is set while watch instrumentation runs: its reads are not a
	// plain run's, so the dependence watchers do not see them (onRead).
	hide bool
	// wt is the in-place profiling state of a watched run (nil otherwise).
	wt    *watching
	funcs map[*minic.FuncDecl]*function
	// escapes marks a function being lowered whose frame may escape.
	escapes bool
}

// Run executes the program from main and returns the result. Runtime
// faults are returned as *RuntimeError.
func Run(prog *minic.Program, opts Options) (*Result, error) {
	return RunWatched(prog, opts, nil)
}

// RunWatched is Run profiling the watched segments in place (see Watch):
// the result is a plain run's, plus Watched, Side and SideOps.
func RunWatched(prog *minic.Program, opts Options, watches []*Watch) (res *Result, err error) {
	mc := newMachine(prog, opts)
	if len(watches) > 0 {
		mc.wt = newWatching(watches)
	}
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(*RuntimeError); ok {
				err = re
				return
			}
			panic(r)
		}
	}()
	mc.initGlobals(prog)
	mainFn := prog.Func("main")
	if mainFn == nil {
		return nil, rtErr(minic.Pos{}, "program has no main function")
	}
	if len(opts.Args) != len(mainFn.Params) {
		return nil, rtErr(mainFn.Pos(), "main takes %d arguments, got %d", len(mainFn.Params), len(opts.Args))
	}
	f := mc.function(mainFn)
	fr := f.frame()
	for i, a := range opts.Args {
		mc.param(f, fr, i, IntVal(a))
	}
	ret := mc.enter(f, fr, mainFn.Pos())
	mc.settle()
	res = &Result{
		Ret:    ret.ival(),
		Cycles: mc.cycles,
		Output: mc.out.String(),
		Ops:    mc.ops,
		Freq:   mc.freq,
		Segs:   mc.segs,
	}
	if mc.wt != nil {
		res.Watched, res.Side, res.SideOps = mc.wt.results(), mc.wt.side, mc.wt.sideOps()
	}
	return res, nil
}

// newMachine returns a machine for one run of prog, before its globals
// are initialized.
func newMachine(prog *minic.Program, opts Options) *Machine {
	mc := &Machine{
		m:       *cost.O0(),
		globals: &Seg{data: make([]Value, prog.GlobalWords), name: "globals"},
		maxStep: opts.MaxSteps,
		maxDep:  opts.MaxDepth,
		tables:  opts.Tables,
		depTabs: opts.DepTables,
		segs:    map[int]*SegRunStats{},
		funcs:   map[*minic.FuncDecl]*function{},
	}
	if opts.Model != nil {
		mc.m = *opts.Model
	}
	mc.u = unitsOf(&mc.m)
	if mc.maxStep == 0 {
		mc.maxStep = 4e9
	}
	if mc.maxDep == 0 {
		mc.maxDep = 10000
	}
	if opts.CollectFreq {
		mc.freq = make([]int64, prog.NumNodes)
	}
	return mc
}

// initGlobals zero-fills global storage and evaluates initializers in
// declaration order (later globals may read earlier ones).
func (mc *Machine) initGlobals(prog *minic.Program) {
	fr := &Seg{name: "init"}
	for _, g := range prog.Globals {
		base := g.Sym.Slot
		if g.Init != nil {
			mc.globals.data[base] = convOf(g.Type).do(mc.lowerExpr(g.Init)(fr))
		}
		if g.InitList != nil {
			c := convOf(scalarElem(g.Type))
			for i, e := range g.InitList {
				mc.globals.data[base+i] = c.do(mc.lowerExpr(e)(fr))
			}
			// Remaining cells stay zero, with the element's kind.
			for i := len(g.InitList); i < g.Type.Words(); i++ {
				mc.globals.data[base+i] = c.do(IntVal(0))
			}
		}
	}
}

// scalarElem returns the innermost element type of a nested array type.
func scalarElem(t minic.Type) minic.Type {
	for at, ok := t.(*minic.Array); ok; at, ok = t.(*minic.Array) {
		t = at.Elem
	}
	return t
}

// units holds the price of each cost-model entry that lowering charges
// statically.
type units struct {
	alu, load, store, local, branch, conv price
}

func unitsOf(m *cost.Model) units {
	u := units{
		alu:    price{cycles: m.IntALU, lanes: laneIntOps},
		load:   price{cycles: m.Load, lanes: laneMemOps},
		store:  price{cycles: m.Store, lanes: laneMemOps},
		branch: price{cycles: m.Branch, lanes: laneBranches},
		conv:   price{cycles: m.Conv, lanes: laneIntOps},
	}
	// A frame-slot access is free for register locals.
	if m.LocalAccess != 0 {
		u.local = price{cycles: m.LocalAccess, lanes: laneMemOps}
	}
	return u
}

func (mc *Machine) charge(c int64) { mc.cycles += c }
func (mc *Machine) chargeInt()     { mc.cycles += mc.m.IntALU; mc.ops.IntOps++ }
func (mc *Machine) chargeLoad()    { mc.cycles += mc.m.Load; mc.ops.MemOps++ }
func (mc *Machine) chargeStore()   { mc.cycles += mc.m.Store; mc.ops.MemOps++ }

// step counts one executed statement against the step limit.
func (mc *Machine) step(pos minic.Pos) {
	mc.steps++
	if mc.steps > mc.maxStep {
		mc.stepLimit(pos)
	}
}

//go:noinline
func (mc *Machine) stepLimit(pos minic.Pos) { // out of line, so that step inlines
	panic(rtErr(pos, "step limit exceeded (%d statements)", mc.maxStep))
}

func (mc *Machine) countNode(id int) {
	if mc.freq != nil && id < len(mc.freq) {
		mc.freq[id]++
	}
}
