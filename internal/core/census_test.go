package core_test

import (
	"bytes"
	"runtime"
	"testing"

	"compreuse/internal/bench"
	"compreuse/internal/core"
	"compreuse/internal/profile"
)

// TestDepCensusFoldMatchesSeparateRun checks the dependence-footprint
// census a compile takes in its frequency run, where the dep-eligible
// segments are watched alongside the flat candidates, against a separate
// run watching only the candidates the selection keeps: N, Nds,
// MeasuredC and the mean and max footprints must be identical, for every
// core program at O0 and O3, with and without sub-block segments.
func TestDepCensusFoldMatchesSeparateRun(t *testing.T) {
	folded, runs := 0, 0
	for _, p := range bench.Core() {
		for _, level := range []string{"O0", "O3"} {
			for _, sub := range []bool{false, true} {
				o := p.RunOptions(level)
				o.MainArgs = append([]int64(nil), o.MainArgs...)
				o.MainArgs[1] = max(1, o.MainArgs[1]/8)
				o.MinFreq = 8
				o.DepKeys = true
				o.SubBlocks = sub
				rep, err := core.Run(o)
				if err != nil {
					t.Fatalf("%s/%s sub=%v: %v", p.Name, level, sub, err)
				}
				runs++
				if core.CheckDepCensus(t, o, rep) {
					folded++
				} else {
					t.Logf("%s/%s sub=%v: the census took a separate run", p.Name, level, sub)
				}
			}
		}
	}
	if folded == 0 {
		t.Fatal("the frequency run served no footprint census")
	}
	t.Logf("the frequency run served %d of %d footprint censuses", folded, runs)
}

// TestDepCensusRetakeMatchesSeparateRun covers the compile whose
// frequency run cannot serve the census: with its full inputs, UNEPIC's
// read_pyramid@if1_else, which runs first, outgrows the census bound and
// the selection keeps it, so the compile retakes the census in a third
// run. Its profiles must still be the separate run's.
func TestDepCensusRetakeMatchesSeparateRun(t *testing.T) {
	p, err := bench.ByName("UNEPIC")
	if err != nil {
		t.Fatal(err)
	}
	o := p.RunOptions("O0")
	o.DepKeys = true
	e0 := core.Executions.Load()
	rep, err := core.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if execs := core.Executions.Load() - e0; execs != 3 {
		t.Fatalf("UNEPIC executed %d times, want 3: the census no longer takes a separate run", execs)
	}
	if core.CheckDepCensus(t, o, rep) {
		t.Fatal("the frequency run served the census the compile retook")
	}
}

// TestSnapshotOutlivesLaterCompiles saves a compile's profile snapshot,
// runs more compiles and a collection, and saves the snapshot again,
// from the same report and from the snapshot taken first: all three must
// be byte-identical. A profile's census keys alias the arena its watched
// run stored them in, so no later run may reuse that memory.
func TestSnapshotOutlivesLaterCompiles(t *testing.T) {
	compile := func(name string) *core.Report {
		t.Helper()
		p, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		o := p.RunOptions("O0")
		o.MainArgs = append([]int64(nil), o.MainArgs...)
		o.MainArgs[1] = max(1, o.MainArgs[1]/8)
		o.MinFreq = 8
		o.DepKeys = true
		rep, err := core.Run(o)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	save := func(s *profile.Snapshot) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := s.Save(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	rep := compile("MPEG2_decode")
	snap := rep.Snapshot()
	want := save(snap)
	if !bytes.Contains(want, []byte("Reference_IDCT@loop3")) {
		t.Fatal("the snapshot lacks the census it is meant to keep")
	}
	for _, name := range []string{"MPEG2_encode", "GNUGO"} {
		compile(name)
		runtime.GC()
	}
	if got := save(rep.Snapshot()); !bytes.Equal(got, want) {
		t.Error("a report's snapshot changed after later compiles")
	}
	if got := save(snap); !bytes.Equal(got, want) {
		t.Error("a saved snapshot changed after later compiles")
	}
}
