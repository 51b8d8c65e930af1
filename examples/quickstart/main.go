// Quickstart: apply the computation-reuse scheme to the paper's running
// example — the G.721 quantizer quan (Ding & Li, CGO 2004, Figures 2/4).
//
// The program below uses the *original* three-parameter quan. The scheme
// (1) specializes it because every call site passes the invariant table
// power2 and the constant 15 (§2.4), (2) profiles the specialized
// function's input values, (3) decides via R·C − O > 0 that reuse pays,
// and (4) rewrites the function body into a hash-table look-up (Fig. 2b).
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"compreuse"
)

const src = `
int power2[15] = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384};

int quan(int val, int *table, int size) {
    int i;
    for (i = 0; i < size; i++)
        if (val < table[i])
            break;
    return (i);
}

/* A toy codec loop: quantize a slowly wandering signal. */
int main(int seed, int n) {
    int s = 0;
    int x = seed;
    int v;
    for (v = 0; v < n; v++) {
        x = (x * 75 + 74) & 2047;
        s += quan(x, power2, 15);
    }
    print_int(s);
    return s & 255;
}
`

func main() {
	rep, err := compreuse.Run(compreuse.Options{
		Name:     "quickstart.c",
		Source:   src,
		MainArgs: []int64{7, 20000},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("segments: %d analyzed, %d profiled, %d transformed\n",
		rep.SegmentsAnalyzed, rep.SegmentsProfiled, rep.SegmentsTransformed)
	fmt.Printf("specialized functions: %v\n\n", rep.Specialized)

	for _, rec := range rep.Ledger {
		if !rec.Accepted {
			continue
		}
		fmt.Printf("transformed %s:\n", rec.Segment)
		fmt.Printf("  instances N        = %d\n", rec.N)
		fmt.Printf("  distinct inputs    = %d\n", rec.Nds)
		fmt.Printf("  reuse rate R       = %.1f%%\n", rec.ReuseRate*100)
		fmt.Printf("  granularity C      = %.0f cycles (%.2f us at 206MHz)\n", rec.C, rec.C/206)
		fmt.Printf("  hashing overhead O = %.0f cycles\n", rec.O)
		fmt.Printf("  gain R*C - O       = %.0f cycles per instance\n\n", rec.Gain)
	}

	fmt.Printf("baseline: %.4f simulated seconds, %.3f J\n",
		rep.Baseline.Seconds, rep.Baseline.Energy.Joules)
	fmt.Printf("reuse:    %.4f simulated seconds, %.3f J\n",
		rep.Reuse.Seconds, rep.Reuse.Energy.Joules)
	fmt.Printf("speedup:  %.2fx   energy saving: %.1f%%\n\n",
		rep.Speedup(), rep.EnergySaving()*100)

	fmt.Println("transformed source (paper Fig. 2b style):")
	fmt.Println(rep.TransformedSource)
}
