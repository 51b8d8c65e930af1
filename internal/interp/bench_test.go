package interp_test

import (
	"testing"

	"compreuse/internal/bench"
	"compreuse/internal/cost"
	"compreuse/internal/interp"
)

// BenchmarkVM runs one suite program per family at scale-8 inputs from a
// checked AST, lowering included, and reports the simulated cycle rate.
//
//	go test -run NONE -bench BenchmarkVM -benchmem ./internal/interp/
func BenchmarkVM(b *testing.B) {
	for _, name := range []string{"G721_encode", "MPEG2_encode", "GNUGO", "RASTA"} {
		p, err := bench.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			prog := prepProgram(b, p, "O0")
			opts := interp.Options{Model: cost.O0(), Args: goldenArgs(p)}
			b.ReportAllocs()
			var cycles int64
			for b.Loop() {
				res, err := interp.Run(prog, opts)
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.Cycles
			}
			b.ReportMetric(float64(cycles)/1e6/b.Elapsed().Seconds(), "Mcycles/s")
		})
	}
}
