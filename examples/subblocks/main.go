// Subblocks: the paper's §5 future work, implemented as an extension —
// "a candidate code segment can be a part of a loop body, a function body,
// or an IF branch, instead of the entire body."
//
// The function below interleaves a heavy, input-determined computation
// with per-call bookkeeping (a sequence counter). The whole-function
// segment keys on the counter and never repeats, so the paper's three
// segment shapes find nothing. With Options.SubBlocks the scheme carves
// out the reusable prefix and memoizes just that.
//
// Run with: go run ./examples/subblocks
package main

import (
	"fmt"
	"log"

	"compreuse"
)

const src = `
int tick;
int weights[16] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};

int score(int v) {
    /* reusable: depends only on v */
    int heavy = 0;
    int k;
    for (k = 0; k < 32; k++)
        heavy += weights[k & 15] * ((v >> (k & 3)) + 1) + (heavy >> 7);
    /* not reusable: stamps every call */
    int seq = tick;
    tick = tick + 1;
    int r = heavy + (seq & 1);
    return r;
}

int main(void) {
    int s = 0;
    int i;
    for (i = 0; i < 4000; i++)
        s = (s + score(i & 7)) & 16777215;
    print_int(s);
    return s & 255;
}
`

func main() {
	report := func(label string, opts compreuse.Options) *compreuse.Report {
		rep, err := compreuse.Run(opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s transformed=%d speedup=%.2fx\n",
			label, rep.SegmentsTransformed, rep.Speedup())
		for _, rec := range rep.Ledger {
			if rec.Accepted {
				fmt.Printf("    selected %s (kind %s): R=%.1f%% C=%.0f cycles\n",
					rec.Segment, rec.Kind, rec.ReuseRate*100, rec.C)
			}
		}
		return rep
	}

	base := compreuse.Options{Name: "score.c", Source: src}
	report("paper's segments", base)

	withSub := base
	withSub.SubBlocks = true
	rep := report("with sub-blocks (§5)", withSub)

	fmt.Println("\ntransformed source:")
	fmt.Println(rep.TransformedSource)
}
