// Package compreuse is a from-scratch reproduction of
//
//	Yonghua Ding and Zhiyuan Li, "A Compiler Scheme for Reusing
//	Intermediate Computation Results", CGO 2004.
//
// The paper presents a pure-software computation-reuse (memoization)
// scheme: a compiler identifies code segments whose inputs repeat at run
// time, and rewrites each profitable segment into a hash-table look-up
// that skips the computation when the input set has been seen before.
//
// This package is the public face of the reproduction. It exposes:
//
//   - Run / RunSweep: the complete pipeline of the paper's Figure 1 —
//     clean-up, code specialization, interprocedural analyses, code
//     segment analysis, execution-frequency and value-set profiling, the
//     cost–benefit formulas (1)–(4), nested-segment resolution, hash-table
//     merging, and code generation — applied to a MiniC program (a C
//     subset; see internal/minic), measured on a cycle-accounting VM that
//     stands in for the paper's 206 MHz StrongARM iPAQ.
//   - Execute: run a MiniC program on the VM without transformation.
//   - Programs / ProgramByName: the benchmark suite reproducing the
//     paper's evaluation (G721, MPEG2, RASTA, UNEPIC, GNU Go).
//   - Memo / MemoTable: a standalone generic memoization runtime for Go
//     code, built on the same reuse-table design (direct addressing,
//     merged valid bits, LRU emulation).
//   - DepMemo / TieredDepMemo: dependence-tracked selective memoization —
//     the compute runs against a tracked input view and is keyed only on
//     the locations it actually read (a footprint trie), with per-key
//     custom equality (content-hashed slices, tolerance-based floats)
//     and explicit space budgets. The pipeline's Options.DepKeys uses the
//     same machinery to admit segments the flat-key pre-filter rejected.
//
// The executables cmd/crc (compiler driver), cmd/crcrun (VM) and
// cmd/crcbench (regenerates every table and figure of the paper's
// evaluation) are thin wrappers over this API. See DESIGN.md for the
// system inventory and EXPERIMENTS.md for paper-vs-measured results.
package compreuse

import (
	"net/http"

	"compreuse/internal/bench"
	"compreuse/internal/core"
	"compreuse/internal/cost"
	"compreuse/internal/energy"
	"compreuse/internal/interp"
	"compreuse/internal/minic"
	"compreuse/internal/obs"
	"compreuse/internal/opt"
)

// Options configures a pipeline run. See the field documentation in the
// aliased type for details; the zero value plus Name/Source is a sensible
// default (O0, optimal table sizing, merging on).
type Options = core.Options

// Report is the complete outcome of a pipeline run: the per-segment
// decision ledger, profiles, table layouts, baseline and transformed
// measurements, and the transformed source text.
type Report = core.Report

// DecisionRecord is one line of the pipeline's decision ledger: the
// observed quantities of formulas (1)-(4) for one analyzed segment and the
// accept/reject verdict with its reason. Report.Ledger holds one per
// segment; Report.LedgerJSON serializes it and core.ParseLedger reads it
// back.
type DecisionRecord = core.DecisionRecord

// SweepPoint selects a reuse-table configuration for RunSweep.
type SweepPoint = core.SweepPoint

// SweepOutcome is the measurement at one sweep point.
type SweepOutcome = core.SweepOutcome

// BenchProgram is one program of the paper's evaluation suite.
type BenchProgram = bench.Program

// Run executes the complete computation-reuse scheme on a MiniC program:
// it profiles on opts.MainArgs, transforms the profitable segments, and
// measures the original and transformed programs on the simulated iPAQ.
func Run(opts Options) (*Report, error) { return core.Run(opts) }

// RunSweep runs the scheme once, then re-measures the transformed program
// under each table configuration (the paper's Table 5 and Figures 14/15).
func RunSweep(opts Options, points []SweepPoint) (*Report, []SweepOutcome, error) {
	return core.RunSweep(opts, points)
}

// ExecResult is the outcome of an untransformed VM run.
type ExecResult struct {
	// Ret is main's return value.
	Ret int64
	// Output is everything the program printed.
	Output string
	// Cycles is the modeled cycle count; Seconds the modeled wall time at
	// 206 MHz.
	Cycles  int64
	Seconds float64
	// Joules is the modeled whole-system energy.
	Joules float64
}

// Execute compiles and runs a MiniC program on the cycle-accounting VM
// without any reuse transformation. optLevel is "O0" or "O3".
func Execute(name, source string, args []int64, optLevel string) (*ExecResult, error) {
	prog, err := minic.Parse(name, source)
	if err != nil {
		return nil, err
	}
	if err := minic.Check(prog); err != nil {
		return nil, err
	}
	model := cost.ModelFor(optLevel)
	if model.Name == "O3" {
		opt.Run(prog)
	}
	res, err := interp.Run(prog, interp.Options{Model: model, Args: args})
	if err != nil {
		return nil, err
	}
	m := energy.Measure(res, energy.Default())
	return &ExecResult{
		Ret:     res.Ret,
		Output:  res.Output,
		Cycles:  res.Cycles,
		Seconds: res.Seconds(),
		Joules:  m.Joules,
	}, nil
}

// Programs returns the benchmark suite reproducing the paper's evaluation
// (Mediabench kernels and GNU Go), including the G721 _s/_b variants.
func Programs() []BenchProgram { return bench.All() }

// ProgramByName finds a suite program ("G721_encode", "MPEG2_decode", ...).
func ProgramByName(name string) (BenchProgram, error) { return bench.ByName(name) }

// EnableMetrics turns on the reuse telemetry layer: probe/record counters,
// latency and key-size histograms, table occupancy gauges and pipeline
// decision counters start updating. When disabled (the default), the
// instrumented hot paths pay a single atomic load.
func EnableMetrics() { obs.Enable() }

// DisableMetrics stops all metric updates; collected values remain
// readable.
func DisableMetrics() { obs.Disable() }

// MetricsEnabled reports whether the telemetry layer is live.
func MetricsEnabled() bool { return obs.On() }

// MetricsHandler serves the collected metrics: /metrics (Prometheus text
// format), /metrics.json, /traces, /debug/vars (expvar) and /debug/pprof.
// The crcbench serve subcommand mounts this same handler.
func MetricsHandler() http.Handler { return obs.Handler() }

// EnableTracing turns on the request-tracing layer: every sampleEvery-th
// TieredMemo.Do (1 = all) records a trace — spans for the L1/L2/pool
// levels it traverses, stitched across the wire to the serving crcserve
// node — into a fixed ring of capacity spans (0 = a reasonable default),
// readable at the /traces endpoint of MetricsHandler. When disabled (the
// default), the traced hot paths pay a single atomic load.
func EnableTracing(sampleEvery, capacity int) { obs.EnableTrace(sampleEvery, capacity) }

// DisableTracing stops recording spans; the ring remains readable.
func DisableTracing() { obs.DisableTrace() }

// TracingEnabled reports whether the span recorder is live.
func TracingEnabled() bool { return obs.TraceOn() }
