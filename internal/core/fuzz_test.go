package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Pipeline differential fuzzer: random programs with memoizable kernels go
// through the complete scheme; the transformed program must always produce
// the original result and output, whatever the profiler decided.

// genKernelProgram builds a program with 1-3 pure kernels of random body
// shape and a driver whose input stream has tunable value locality.
func genKernelProgram(rng *rand.Rand) string {
	var sb strings.Builder
	nKernels := 1 + rng.Intn(3)
	sb.WriteString("int tab[16] = {3,1,4,1,5,9,2,6,5,3,5,8,9,7,9,3};\n")

	for k := 0; k < nKernels; k++ {
		fmt.Fprintf(&sb, "int kern%d(int x) {\n", k)
		sb.WriteString("    int r = 0;\n")
		switch rng.Intn(4) {
		case 0: // table-walk kernel
			trips := 4 + rng.Intn(12)
			fmt.Fprintf(&sb, "    int i;\n    for (i = 0; i < %d; i++)\n", trips)
			fmt.Fprintf(&sb, "        r += tab[i & 15] * ((x >> (i & 3)) + %d);\n", rng.Intn(5))
		case 1: // branchy kernel
			fmt.Fprintf(&sb, "    if (x & %d) { r = x * %d; } else { r = x ^ %d; }\n",
				1+rng.Intn(7), 2+rng.Intn(9), rng.Intn(255))
			fmt.Fprintf(&sb, "    int j;\n    for (j = 0; j < %d; j++)\n        r = (r * 3 + j) & 1048575;\n",
				3+rng.Intn(10))
		case 2: // nested-loop kernel
			fmt.Fprintf(&sb, "    int i;\n    for (i = 0; i < %d; i++) {\n", 2+rng.Intn(5))
			fmt.Fprintf(&sb, "        int j;\n        for (j = 0; j < %d; j++)\n", 2+rng.Intn(5))
			sb.WriteString("            r += (x + i) * (j + 1);\n    }\n")
		default: // switch-based kernel (exercises the desugared form)
			sb.WriteString("    switch (x & 3) {\n")
			for c := 0; c < 3; c++ {
				fmt.Fprintf(&sb, "    case %d:\n        r = x * %d + %d;\n        break;\n",
					c, 2+rng.Intn(7), rng.Intn(100))
			}
			fmt.Fprintf(&sb, "    default:\n        r = x ^ %d;\n    }\n", rng.Intn(255))
			fmt.Fprintf(&sb, "    int j;\n    for (j = 0; j < %d; j++)\n        r = (r * 5 + j) & 1048575;\n",
				3+rng.Intn(8))
		}
		sb.WriteString("    return r;\n}\n\n")
	}

	mask := []int{7, 15, 31, 255, 1023}[rng.Intn(5)] // controls value locality
	sb.WriteString("int main(int seed, int n) {\n")
	sb.WriteString("    int s = 0;\n    int x = seed;\n    int v;\n")
	sb.WriteString("    for (v = 0; v < n; v++) {\n")
	fmt.Fprintf(&sb, "        x = (x * 1103515245 + 12345) & %d;\n", mask)
	for k := 0; k < nKernels; k++ {
		fmt.Fprintf(&sb, "        s = (s + kern%d(x)) & 16777215;\n", k)
	}
	sb.WriteString("    }\n    print_int(s);\n    return s & 255;\n}\n")
	return sb.String()
}

func TestFuzzPipelinePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(1612942)) // quan's call count in the paper
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for i := 0; i < iters; i++ {
		src := genKernelProgram(rng)
		rep, err := Run(Options{
			Name:     fmt.Sprintf("fuzz%d.c", i),
			Source:   src,
			MainArgs: []int64{int64(rng.Intn(1000) + 1), int64(500 + rng.Intn(1500))},
		})
		if err != nil {
			t.Fatalf("iter %d: %v\n%s", i, err, src)
		}
		if rep.Baseline.Ret != rep.Reuse.Ret || rep.Baseline.Output != rep.Reuse.Output {
			for _, rec := range rep.Ledger {
				if rec.Accepted {
					t.Logf("selected: %s", rec.Segment)
				}
			}
			t.Fatalf("iter %d: pipeline changed semantics: ret %d->%d\n%s\n--- transformed ---\n%s",
				i, rep.Baseline.Ret, rep.Reuse.Ret, src, rep.TransformedSource)
		}
		// The transformed program must never be slower than baseline plus
		// a small tolerance (the scheme only transforms on predicted gain,
		// but hash behavior on the real run may differ slightly from the
		// training run — here they are the same input, so regression means
		// the cost model and the VM disagree).
		if rep.SegmentsTransformed > 0 && float64(rep.Reuse.Cycles) > 1.02*float64(rep.Baseline.Cycles) {
			t.Fatalf("iter %d: transformed run regressed: %d -> %d cycles\n%s",
				i, rep.Baseline.Cycles, rep.Reuse.Cycles, src)
		}
	}
}

func TestFuzzPipelineO3(t *testing.T) {
	rng := rand.New(rand.NewSource(8884))
	iters := 20
	if testing.Short() {
		iters = 5
	}
	for i := 0; i < iters; i++ {
		src := genKernelProgram(rng)
		args := []int64{int64(rng.Intn(1000) + 1), 800}
		r0, err := Run(Options{Name: "f.c", Source: src, MainArgs: args, OptLevel: "O0"})
		if err != nil {
			t.Fatalf("iter %d O0: %v\n%s", i, err, src)
		}
		r3, err := Run(Options{Name: "f.c", Source: src, MainArgs: args, OptLevel: "O3"})
		if err != nil {
			t.Fatalf("iter %d O3: %v\n%s", i, err, src)
		}
		if r0.Baseline.Ret != r3.Baseline.Ret || r0.Reuse.Output != r3.Reuse.Output {
			t.Fatalf("iter %d: O-levels disagree\n%s", i, src)
		}
	}
}

// genWideKernelProgram builds dependence-key candidates: each kernel's
// flat key is dominated by a wide global table, but its body reads only
// the selector and one to three cells chosen by it, so the footprint is
// narrow and, with a small selector range, mostly invariant. main churns
// a cell no kernel reads, which defeats a flat key but not a footprint.
func genWideKernelProgram(rng *rand.Rand) string {
	var sb strings.Builder
	width := []int{128, 256, 512}[rng.Intn(3)]
	fmt.Fprintf(&sb, "int grid[%d];\n\n", width)
	nKernels := 1 + rng.Intn(2)
	for k := 0; k < nKernels; k++ {
		fmt.Fprintf(&sb, "int wide%d(int j) {\n    int a;\n    int r;\n", k)
		switch rng.Intn(3) {
		case 0: // one cell
			sb.WriteString("    a = grid[j];\n")
		case 1: // two cells at a fixed distance
			fmt.Fprintf(&sb, "    a = grid[j] + grid[j + %d];\n", 1+rng.Intn(16))
		default: // the selector decides the read set
			fmt.Fprintf(&sb, "    if (j & 1) { a = grid[j]; } else { a = grid[j + 1] * %d + grid[j + 2]; }\n", 2+rng.Intn(5))
		}
		fmt.Fprintf(&sb, "    r = (a * %d + j + %d) / 3;\n", 3+rng.Intn(9), rng.Intn(50))
		for i, steps := 0, 8+rng.Intn(6); i < steps; i++ {
			fmt.Fprintf(&sb, "    r = (r * %d + a) / %d;\n", 7+rng.Intn(30), 3+rng.Intn(17))
		}
		sb.WriteString("    return r;\n}\n\n")
	}
	mask := []int{3, 7, 15}[rng.Intn(3)]
	sb.WriteString("int main(int seed, int n) {\n    int s = 0;\n    int v;\n")
	fmt.Fprintf(&sb, "    for (v = 0; v < %d; v++) {\n        grid[v] = (v * 37 + seed) & 1023;\n    }\n", width-1)
	sb.WriteString("    for (v = 0; v < n; v++) {\n")
	fmt.Fprintf(&sb, "        grid[%d] = v;\n", width-1)
	for k := 0; k < nKernels; k++ {
		fmt.Fprintf(&sb, "        s = (s + wide%d((v * %d + seed) & %d)) & 16777215;\n", k, 1+2*rng.Intn(4), mask)
	}
	sb.WriteString("    }\n    print_int(s);\n    return s & 255;\n}\n")
	return sb.String()
}

// genLoopKernelProgram builds loop-body dependence-key candidates: the
// inner loop's body reads a scalar selector first and, when the selector
// says so, its element a[i] at the address-only induction variable i,
// then walks a wide table w at cells its running value chooses. The
// outer loop writes a cell of w every pass, which defeats a flat key on
// w; a footprint keyed on a selector that skips a[i] repeats across i.
// The footprint of a body that reads a[i] names the cell by offset, so
// it is only sound if i is tracked too.
func genLoopKernelProgram(rng *rand.Rand) string {
	var sb strings.Builder
	n := []int{16, 32, 64}[rng.Intn(3)]
	width := []int{128, 256}[rng.Intn(2)]
	fmt.Fprintf(&sb, "int a[%d]; int w[%d]; int r[%d]; int mode;\n", n, width, n)
	sb.WriteString("int main(int seed, int n) {\n    int i; int p; int s = 0;\n")
	fmt.Fprintf(&sb, "    for (i = 0; i < %d; i++) a[i] = (i * %d + seed) %% 101;\n", n, 3+2*rng.Intn(20))
	fmt.Fprintf(&sb, "    for (i = 0; i < %d; i++) w[i] = (i * %d + 11) %% 97;\n", width, 3+2*rng.Intn(30))
	sb.WriteString("    for (p = 0; p < n; p++) {\n")
	fmt.Fprintf(&sb, "        mode = (p %% %d) == 0;\n", 2+rng.Intn(4))
	fmt.Fprintf(&sb, "        w[%d] = p;\n", width-1)
	fmt.Fprintf(&sb, "        for (i = 0; i < %d; i++) {\n            int t; int q;\n", n)
	switch rng.Intn(3) {
	case 0: // the selector decides whether a[i] is read
		fmt.Fprintf(&sb, "            if (mode) t = a[i]; else t = %d;\n", rng.Intn(50))
	case 1: // a[i] is read either way, and the selector scales it
		fmt.Fprintf(&sb, "            if (mode) t = a[i] * %d; else t = (a[i] & 1) + %d;\n", 2+rng.Intn(5), rng.Intn(50))
	default: // the selector picks a[i] or a fixed cell of w
		fmt.Fprintf(&sb, "            if (mode) t = a[i]; else t = w[%d];\n", rng.Intn(width-1))
	}
	fmt.Fprintf(&sb, "            for (q = 0; q < %d; q++) {\n", 8+rng.Intn(8))
	fmt.Fprintf(&sb, "                t = (t * %d + w[(t + q) & %d]) %% 1009;\n", 3+rng.Intn(20), width-1)
	for k, steps := 0, 2+rng.Intn(3); k < steps; k++ {
		fmt.Fprintf(&sb, "                t = (t * %d + %d) %% %d;\n", 7+rng.Intn(20), rng.Intn(10), 1013+2*rng.Intn(10))
	}
	sb.WriteString("            }\n            r[i] = t;\n        }\n")
	fmt.Fprintf(&sb, "        for (i = 0; i < %d; i++) s = s + r[i] * (i + 1);\n    }\n", n)
	sb.WriteString("    print_int(s);\n    return s & 65535;\n}\n")
	return sb.String()
}

// TestFuzzPipelineDepKeys is the dependence-key arm of the differential
// fuzzer: with Options.DepKeys the transformed program must still return
// and print exactly what the original does, and the footprint census the
// frequency run took must equal a separate census run's. Two corpora,
// each from its own seed: function-body kernels (genWideKernelProgram)
// and loop-body kernels keyed on an element at the induction variable
// (genLoopKernelProgram). Across each, the second chance must admit
// footprint-keyed segments that hit, so the watcher and trie-probe paths
// of the VM really run on both shapes.
func TestFuzzPipelineDepKeys(t *testing.T) {
	funcs, loops := 24, 8
	if testing.Short() {
		funcs, loops = 8, 4
	}
	folded := 0
	// run compiles one program and counts its admitted footprint tables
	// whose segment name contains kind, and their hits.
	run := func(name, src string, args []int64, kind string) (admitted, hits int64) {
		o := Options{Name: name, Source: src, MainArgs: args, DepKeys: true}
		rep, err := Run(o)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, src)
		}
		if checkDepCensus(t, o, rep) {
			folded++
		}
		if rep.Baseline.Ret != rep.Reuse.Ret || rep.Baseline.Output != rep.Reuse.Output {
			t.Fatalf("%s: dep-key pipeline changed semantics: ret %d->%d\n%s\n--- transformed ---\n%s",
				name, rep.Baseline.Ret, rep.Reuse.Ret, src, rep.TransformedSource)
		}
		for _, ti := range rep.Tables {
			if ti.Dep && strings.Contains(ti.Name, kind) {
				admitted++
				hits += ti.Stats.Hits
			}
		}
		return admitted, hits
	}

	rng := rand.New(rand.NewSource(20040320))
	var admitted, hits int64
	for i := 0; i < funcs; i++ {
		src := genWideKernelProgram(rng)
		a, h := run(fmt.Sprintf("widefuzz%d.c", i), src,
			[]int64{int64(rng.Intn(1000) + 1), int64(300 + rng.Intn(500))}, "@")
		admitted, hits = admitted+a, hits+h
	}
	if admitted == 0 || hits == 0 {
		t.Fatalf("no dependence-keyed function body admitted and hit across %d programs (admitted %d, hits %d)",
			funcs, admitted, hits)
	}
	t.Logf("function bodies: %d dep-key tables admitted, %d trie hits", admitted, hits)

	rng = rand.New(rand.NewSource(20040321))
	var loopAdmitted, loopHits int64
	for i := 0; i < loops; i++ {
		src := genLoopKernelProgram(rng)
		a, h := run(fmt.Sprintf("loopfuzz%d.c", i), src,
			[]int64{int64(rng.Intn(1000) + 1), int64(16 + rng.Intn(24))}, "@loop")
		loopAdmitted, loopHits = loopAdmitted+a, loopHits+h
	}
	if loopAdmitted == 0 || loopHits == 0 {
		t.Fatalf("no dependence-keyed loop body admitted and hit across %d programs (admitted %d, hits %d)",
			loops, loopAdmitted, loopHits)
	}
	t.Logf("loop bodies: %d dep-key tables admitted, %d trie hits", loopAdmitted, loopHits)
	if folded == 0 {
		t.Fatalf("the frequency run served none of %d footprint censuses", funcs+loops)
	}
	t.Logf("the frequency run served %d of %d footprint censuses", folded, funcs+loops)
}
