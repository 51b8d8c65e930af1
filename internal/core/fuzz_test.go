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
			for _, d := range rep.Decisions {
				if d.Selected {
					t.Logf("selected: %s", d.Name)
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

// TestFuzzPipelineDepKeys is the dependence-key arm of the differential
// fuzzer: with Options.DepKeys the transformed program must still return
// and print exactly what the original does, the footprint census the
// frequency run took must equal a separate census run's, and across the
// corpus the second chance must admit footprint-keyed segments, so the
// watcher and trie-probe paths of the VM really run.
func TestFuzzPipelineDepKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(20040320))
	iters := 24
	if testing.Short() {
		iters = 8
	}
	var admitted, hits int64
	folded := 0
	for i := 0; i < iters; i++ {
		src := genWideKernelProgram(rng)
		o := Options{
			Name:     fmt.Sprintf("widefuzz%d.c", i),
			Source:   src,
			MainArgs: []int64{int64(rng.Intn(1000) + 1), int64(300 + rng.Intn(500))},
			DepKeys:  true,
		}
		rep, err := Run(o)
		if err != nil {
			t.Fatalf("iter %d: %v\n%s", i, err, src)
		}
		if checkDepCensus(t, o, rep) {
			folded++
		}
		if rep.Baseline.Ret != rep.Reuse.Ret || rep.Baseline.Output != rep.Reuse.Output {
			t.Fatalf("iter %d: dep-key pipeline changed semantics: ret %d->%d\n%s\n--- transformed ---\n%s",
				i, rep.Baseline.Ret, rep.Reuse.Ret, src, rep.TransformedSource)
		}
		for _, ti := range rep.Tables {
			if ti.Dep {
				admitted++
				hits += ti.Stats.Hits
			}
		}
	}
	if admitted == 0 || hits == 0 {
		t.Fatalf("no dependence-keyed segment admitted and hit across %d programs (admitted %d, hits %d)",
			iters, admitted, hits)
	}
	if folded == 0 {
		t.Fatalf("the frequency run served none of %d footprint censuses", iters)
	}
	t.Logf("%d dep-key tables admitted, %d trie hits; the frequency run served %d of %d footprint censuses",
		admitted, hits, folded, iters)
}
