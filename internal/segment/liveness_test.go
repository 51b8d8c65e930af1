package segment_test

import (
	"fmt"
	"testing"

	"compreuse/internal/bench"
	"compreuse/internal/callgraph"
	"compreuse/internal/cfg"
	"compreuse/internal/cleanup"
	"compreuse/internal/cost"
	"compreuse/internal/dataflow"
	"compreuse/internal/minic"
	"compreuse/internal/opt"
	"compreuse/internal/pointer"
	"compreuse/internal/segment"
	"compreuse/internal/specialize"
)

// prepare runs the pre-passes and analyses the pipeline runs before
// segment analysis (core's prep), at one O-level.
func prepare(t *testing.T, p bench.Program, level string, subBlocks bool) *segment.Analysis {
	t.Helper()
	prog, err := minic.Parse(p.Name, p.Source)
	if err != nil {
		t.Fatal(err)
	}
	if err := minic.Check(prog); err != nil {
		t.Fatal(err)
	}
	cleanup.Run(prog)
	pts := pointer.Analyze(prog)
	cg := callgraph.Build(prog, pts)
	specialize.Run(prog, pts, cg, dataflow.ComputeEffects(prog, pts, cg), specialize.Options{})
	if level == "O3" {
		opt.Run(prog)
	}
	pts = pointer.Analyze(prog)
	cg = callgraph.Build(prog, pts)
	eff := dataflow.ComputeEffects(prog, pts, cg)
	return segment.Analyze(prog, pts, cg, eff,
		segment.Options{Model: cost.ModelFor(level), SubBlocks: subBlocks})
}

// oracleLiveAfter is the from-scratch live-after set of one segment: it
// rebuilds the function CFG, the extern set and the liveness fixpoint for
// this segment alone, sharing nothing with the analysis' per-function
// cache.
func oracleLiveAfter(a *segment.Analysis, s *segment.Segment) dataflow.SymSet {
	extern := dataflow.SymSet{}
	for sym, readers := range a.Eff.BuildGlobalDefUse().UseFns {
		for _, r := range readers {
			if r != s.Fn {
				extern.Add(sym)
				break
			}
		}
	}
	g := cfg.Build(s.Fn)
	live := a.Eff.Liveness(g, extern)
	if s.Kind == segment.FuncBody {
		return live[g.Exit].Out
	}
	ids := map[int]bool{}
	minic.Inspect(s.Body, func(n minic.Node) bool {
		if x, ok := n.(interface{ ID() int }); ok {
			ids[x.ID()] = true
		}
		return true
	})
	inside := func(n *cfg.Node) bool { return n.Owner != nil && ids[n.Owner.ID()] }
	out := dataflow.SymSet{}
	out.AddAll(extern)
	for _, n := range g.Nodes {
		if !inside(n) {
			continue
		}
		for _, succ := range n.Succs {
			if !inside(succ) {
				out.AddAll(live[succ].In)
			}
		}
	}
	return out
}

func sameSet(a, b dataflow.SymSet) bool {
	if len(a) != len(b) {
		return false
	}
	for sym := range a {
		if !b[sym] {
			return false
		}
	}
	return true
}

// TestLiveAfterOracle checks the per-function cached liveness against a
// from-scratch computation for every segment of every core program, at O0
// and O3, with and without sub-block segments. Every returned set is then
// scribbled on and all segments are checked again, so a cached set handed
// out to a caller that mutates it fails the second pass.
func TestLiveAfterOracle(t *testing.T) {
	scribble := &minic.Symbol{Name: "scribble", Kind: minic.SymGlobal}
	for _, p := range bench.Core() {
		for _, level := range []string{"O0", "O3"} {
			for _, sub := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/sub=%v", p.Name, level, sub), func(t *testing.T) {
					a := prepare(t, p, level, sub)
					want := make([]dataflow.SymSet, len(a.Segments))
					for i, s := range a.Segments {
						want[i] = oracleLiveAfter(a, s)
					}
					for pass := 0; pass < 2; pass++ {
						for i, s := range a.Segments {
							got := a.LiveAfter(s)
							if !sameSet(got, want[i]) {
								t.Fatalf("pass %d: %s live-after %v, want %v",
									pass, s.Name, names(got), names(want[i]))
							}
							clear(got)
							got.Add(scribble)
						}
					}
				})
			}
		}
	}
}

func names(s dataflow.SymSet) []string {
	var out []string
	for _, sym := range s.Sorted() {
		out = append(out, sym.Name)
	}
	return out
}
