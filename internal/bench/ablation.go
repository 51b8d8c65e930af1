package bench

import (
	"fmt"
	"io"

	"compreuse/internal/core"
)

// Ablations quantify the paper's two storage/arity optimizations beyond
// the headline tables:
//
//   - code specialization (§2.4): without it, G721's quan keeps its
//     pointer parameter and cannot be transformed at all;
//   - hash-table merging (§2.5): without it, GNU Go's eight tables each
//     store their own copy of the identical 4-int key (the paper's
//     unmerged build exhausted the iPAQ's memory).

// AblationSpecialization shows the effect of disabling §2.4 on the G721
// programs.
func AblationSpecialization(w io.Writer, r *Runner) error {
	fmt.Fprintln(w, "Ablation A. Code specialization (paper §2.4)")
	var rows [][]string
	for _, name := range []string{"G721_encode", "G721_decode"} {
		p, err := ByName(name)
		if err != nil {
			return err
		}
		for _, variant := range []struct {
			label string
			off   bool
		}{{"with specialization", false}, {"without", true}} {
			opts := r.options(p, "O0")
			opts.NoSpecialize = variant.off
			r.logf("ablation %s (%s) ...", name, variant.label)
			rep, err := core.Run(opts)
			if err != nil {
				return err
			}
			rows = append(rows, []string{
				name, variant.label,
				fmt.Sprintf("%d", rep.SegmentsTransformed),
				fmt.Sprintf("%.2f", rep.Speedup()),
			})
		}
	}
	textTable(w, []string{"Program", "Variant", "Transformed CS", "Speedup"}, rows)
	fmt.Fprintln(w, "(without specialization quan keeps its pointer parameter and cannot be keyed)")
	return nil
}

// AblationMerging shows the effect of disabling §2.5 on GNU Go.
func AblationMerging(w io.Writer, r *Runner) error {
	fmt.Fprintln(w, "Ablation B. Hash-table merging (paper §2.5)")
	p, err := ByName("GNUGO")
	if err != nil {
		return err
	}
	var rows [][]string
	for _, variant := range []struct {
		label string
		off   bool
	}{{"merged", false}, {"unmerged", true}} {
		opts := r.options(p, "O0")
		opts.NoMerge = variant.off
		r.logf("ablation GNUGO (%s) ...", variant.label)
		rep, err := core.Run(opts)
		if err != nil {
			return err
		}
		mem := TotalTableBytes(rep)
		rows = append(rows, []string{
			variant.label,
			fmt.Sprintf("%d", len(rep.Tables)),
			fmt.Sprintf("%d", mem),
			fmt.Sprintf("%.2f", rep.Speedup()),
		})
	}
	textTable(w, []string{"Variant", "Tables", "Table Memory (B)", "Speedup"}, rows)
	fmt.Fprintln(w, "(the paper's unmerged GNU Go ran out of memory on the 32MB iPAQ)")
	return nil
}

func init() {
	extraExperiments = append(extraExperiments,
		Experiment{"ablationA", "Effect of code specialization (§2.4)", AblationSpecialization},
		Experiment{"ablationB", "Effect of hash-table merging (§2.5)", AblationMerging},
		Experiment{"extension", "Sub-block segments (§5 future work)", ExtensionSubBlocks},
	)
}

// ExtensionSubBlocks measures the beyond-paper sub-block extension (§5
// future work) on the integer-kernel programs: does carving parts out of
// bodies find anything the paper's three shapes missed?
func ExtensionSubBlocks(w io.Writer, r *Runner) error {
	fmt.Fprintln(w, "Extension. Sub-block segments (paper §5 future work)")
	var rows [][]string
	for _, name := range []string{"G721_encode", "G721_decode", "RASTA", "UNEPIC", "GNUGO"} {
		p, err := ByName(name)
		if err != nil {
			return err
		}
		base, err := r.Report(name, "O0")
		if err != nil {
			return err
		}
		opts := r.options(p, "O0")
		opts.SubBlocks = true
		r.logf("extension %s (+sub-blocks) ...", name)
		ext, err := core.Run(opts)
		if err != nil {
			return err
		}
		subSel := 0
		for _, rec := range ext.Ledger {
			if rec.Accepted && rec.Kind == "sub" {
				subSel++
			}
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%d / %.2f", base.SegmentsTransformed, base.Speedup()),
			fmt.Sprintf("%d / %.2f", ext.SegmentsTransformed, ext.Speedup()),
			fmt.Sprintf("%d", subSel),
		})
	}
	textTable(w, []string{"Program", "paper shapes (CS/speedup)", "+sub-blocks (CS/speedup)", "sub CS selected"}, rows)
	fmt.Fprintln(w, "(the suite kernels are whole-body reusable, so sub-blocks mostly confirm")
	fmt.Fprintln(w, " the paper's choices; see examples/subblocks for a case they win outright)")
	return nil
}
