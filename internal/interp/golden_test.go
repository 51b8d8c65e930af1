package interp_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"compreuse/internal/bench"
	"compreuse/internal/callgraph"
	"compreuse/internal/cleanup"
	"compreuse/internal/core"
	"compreuse/internal/cost"
	"compreuse/internal/dataflow"
	"compreuse/internal/interp"
	"compreuse/internal/minic"
	"compreuse/internal/opt"
	"compreuse/internal/pointer"
	"compreuse/internal/profile"
	"compreuse/internal/segment"
)

// The VM oracle: testdata/vm.golden pins, for every suite program, the
// exact simulated outcome of plain, value-set-profiling and full
// pipeline runs — return value, cycles, every OpCounts class, output and
// frequency-profile hashes, per-region run statistics and the decision
// ledger. Any change to the evaluator that moves a single cycle, op or
// counter shows up as a diff against this file.
//
// Regenerate (only when the cost accounting is meant to change):
//
//	go test ./internal/interp/ -run TestVMGolden -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/vm.golden")

const goldenScale = 8

func goldenArgs(p bench.Program) []int64 {
	args := append([]int64(nil), p.TrainArgs...)
	args[1] /= goldenScale
	if args[1] < 1 {
		args[1] = 1
	}
	return args
}

func fnvHex(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

func freqHash(freq []int64) string {
	b := make([]byte, 8*len(freq))
	for i, f := range freq {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(f))
	}
	return fnvHex(b)
}

func writeRun(w *bytes.Buffer, label string, res *interp.Result) {
	writeTotals(w, label, res, 0, interp.OpCounts{})
}

// writeTotals prints a run's totals; side adds instrumentation charged
// apart from the run's own cycles and ops.
func writeTotals(w *bytes.Buffer, label string, res *interp.Result, side int64, sideOps interp.OpCounts) {
	o := res.Ops
	fmt.Fprintf(w, "%s ret=%d cycles=%d ops=%d/%d/%d/%d/%d/%d/%d/%d out=%s freq=%s\n",
		label, res.Ret, res.Cycles+side, o.IntOps+sideOps.IntOps, o.MulOps+sideOps.MulOps,
		o.DivOps+sideOps.DivOps, o.FloatOps+sideOps.FloatOps, o.MemOps+sideOps.MemOps,
		o.Branches+sideOps.Branches, o.Calls+sideOps.Calls, o.HashOps+sideOps.HashOps,
		fnvHex([]byte(res.Output)), freqHash(res.Freq))
}

// writeSegStats prints per-segment run statistics sorted by segment name.
func writeSegStats(w *bytes.Buffer, segs map[string]interp.SegRunStats) {
	names := make([]string, 0, len(segs))
	for n := range segs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := segs[n]
		fmt.Fprintf(w, "  region %s inst=%d body=%d runs=%d oh=%d hits=%d\n",
			n, s.Instances, s.BodyCycles, s.BodyRuns, s.OverheadCycles, s.Hits)
	}
}

// watchedStats is the region statistics of wrapping every watched
// segment at once: each body is charged every nested watch's
// instrumentation.
func watchedStats(segs []*segment.Segment, res *interp.Result) map[string]interp.SegRunStats {
	out := map[string]interp.SegRunStats{}
	for i, ws := range res.Watched {
		st := ws.Run
		if st.Instances == 0 {
			continue
		}
		for _, c := range ws.Nested {
			st.BodyCycles += c
		}
		out[segs[i].Name] = st
	}
	return out
}

// prepProgram parses, checks and cleans a suite program, applying the
// O3 optimizer at O3 — the pipeline's pre-passes minus specialization.
func prepProgram(t testing.TB, p bench.Program, level string) *minic.Program {
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
	return prog
}

func vmGolden(t *testing.T) []byte {
	var w bytes.Buffer
	for _, p := range bench.All() {
		for _, level := range []string{"O0", "O3"} {
			model := cost.ModelFor(level)
			ro := interp.Options{Model: model, CollectFreq: true, Args: goldenArgs(p)}
			res, err := interp.Run(prepProgram(t, p, level), ro)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, level, err)
			}
			label := fmt.Sprintf("vm %s %s", p.Name, level)
			var plain bytes.Buffer
			writeRun(&plain, label, res)
			w.Write(plain.Bytes())

			// Value-set profiling of every candidate, in the frequency run.
			prog := prepProgram(t, p, level)
			pts := pointer.Analyze(prog)
			cg := callgraph.Build(prog, pts)
			eff := dataflow.ComputeEffects(prog, pts, cg)
			an := segment.Analyze(prog, pts, cg, eff, segment.Options{Model: model})
			cands := an.Candidates()
			_, pres, err := profile.Collect(prog, cands, model, ro)
			if err != nil {
				t.Fatalf("%s/%s profile: %v", p.Name, level, err)
			}
			// The instrumentation stays off the run's own books. The
			// analysis gave nodes outside the program ids past the plain
			// program's; they never run.
			for _, f := range pres.Freq[len(res.Freq):] {
				if f != 0 {
					t.Fatalf("%s/%s: a node outside the program ran", p.Name, level)
				}
			}
			pres.Freq = pres.Freq[:len(res.Freq)]
			var watched bytes.Buffer
			writeRun(&watched, label, pres)
			if watched.String() != plain.String() {
				t.Errorf("watched run differs from the plain run:\n got  %s want %s", watched.String(), plain.String())
			}
			pres.Freq = nil
			writeTotals(&w, fmt.Sprintf("profile %s %s", p.Name, level), pres, pres.Side, pres.SideOps)
			writeSegStats(&w, watchedStats(cands, pres))
		}
	}
	for _, p := range bench.Core() {
		for _, cfg := range []string{"O0", "O3", "O0+dep"} {
			o := p.RunOptions(strings.TrimSuffix(cfg, "+dep"))
			o.MainArgs = goldenArgs(p)
			o.MinFreq = 8
			o.DepKeys = strings.HasSuffix(cfg, "+dep")
			rep, err := core.Run(o)
			if err != nil {
				t.Fatalf("%s/%s: %v", p.Name, cfg, err)
			}
			ledger, err := rep.LedgerJSON()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&w, "core %s %s base=%d/%d reuse=%d/%d segs=%d out=%s ledger=%s\n",
				p.Name, cfg, rep.Baseline.Ret, rep.Baseline.Cycles, rep.Reuse.Ret, rep.Reuse.Cycles,
				rep.SegmentsTransformed, fnvHex([]byte(rep.Reuse.Output)), fnvHex(ledger))
			for _, tab := range rep.Tables {
				s := tab.Stats
				fmt.Fprintf(&w, "  table %s probes=%d hits=%d misses=%d records=%d evict=%d resident=%d\n",
					tab.Name, s.Probes, s.Hits, s.Misses, s.Records, s.Evictions, tab.Resident)
			}
			names := make([]string, 0, len(rep.Profiles))
			for n := range rep.Profiles {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				sp := rep.Profiles[n]
				fmt.Fprintf(&w, "  seg %s N=%d Nds=%d C=%x\n", n, sp.N, sp.Nds, math.Float64bits(sp.MeasuredC))
			}
			names = names[:0]
			for n := range rep.DepProfiles {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				dp := rep.DepProfiles[n]
				fmt.Fprintf(&w, "  dep %s N=%d Nds=%d C=%x fp=%x/%d\n", n, dp.N, dp.Nds,
					math.Float64bits(dp.MeasuredC), math.Float64bits(dp.MeanFootprint), dp.MaxFootprint)
			}
		}
	}
	return w.Bytes()
}

func TestVMGolden(t *testing.T) {
	const path = "testdata/vm.golden"
	got := vmGolden(t)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("vm.golden line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("vm.golden: %d lines, want %d", len(gl), len(wl))
}
