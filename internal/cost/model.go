// Package cost defines the cycle cost model of the simulated 206 MHz
// StrongARM SA-1110 target (the paper's Compaq iPAQ 3650), the hashing
// overhead estimate, and the cost–benefit formulas (1)–(4) of Ding & Li
// (CGO 2004, §2.2–§2.3).
//
// The same Model drives both the static estimates used by the compiler
// (granularity lower bound, hashing-overhead upper bound) and the dynamic
// cycle accounting in the VM, so the compiler's decisions and the measured
// outcomes are consistent by construction — exactly the property the
// paper's scheme relies on.
package cost

// ClockHz is the modeled CPU frequency (206 MHz SA-1110).
const ClockHz = 206e6

// Model is a table of per-operation cycle costs. Two instances exist:
// O0 models unoptimized GCC output (every variable access is a memory
// access); O3 models optimized output (scalar locals live in registers).
type Model struct {
	Name string

	// Integer ALU operations. The SA-1110 has no hardware divider, so
	// division and modulo are costly library calls.
	IntALU int64 // add, sub, logical, shift, compare
	IntMul int64
	IntDiv int64

	// Software-emulated double-precision floating point (no FPU).
	FloatAdd int64
	FloatMul int64
	FloatDiv int64
	FloatCmp int64
	Conv     int64 // int<->float conversion

	// Memory.
	Load  int64
	Store int64
	// LocalAccess is the extra cost of touching a scalar local or
	// parameter: a memory access at O0, free (registerized) at O3.
	LocalAccess int64

	// Control.
	Branch int64
	Call   int64 // call + prologue
	Ret    int64

	// Hashing components (paper §2.1: overhead proportional to input and
	// output sizes).
	HashFixed      int64 // index computation, bookkeeping
	HashModulo     int64 // key mod size for keys <= 32 bits
	JenkinsPerByte int64 // per-byte cost of the Jenkins hash for wide keys
	KeyPerWord     int64 // forming/comparing one 4-byte key word
	CopyPerWord    int64 // copying one output word to/from the table
}

// O0 returns the cost model for unoptimized code.
func O0() *Model {
	return &Model{
		Name:   "O0",
		IntALU: 1, IntMul: 4, IntDiv: 22,
		FloatAdd: 140, FloatMul: 240, FloatDiv: 560, FloatCmp: 90, Conv: 60,
		Load: 2, Store: 2, LocalAccess: 2,
		Branch: 2, Call: 12, Ret: 8,
		// HashModulo is far below IntDiv: the table size is loop-invariant,
		// so the generated code divides by a known constant
		// (reciprocal-multiply sequence, ~10 cycles on SA-1110).
		HashFixed: 8, HashModulo: 12, JenkinsPerByte: 18, KeyPerWord: 5, CopyPerWord: 5,
	}
}

// O3 returns the cost model for aggressively optimized code. Arithmetic
// latencies are mostly hardware properties; the main difference is that
// scalar locals are registerized (LocalAccess 0), the soft-float and
// hashing helpers are tighter, and the optimizer (internal/opt) has removed
// work before the count is taken.
func O3() *Model {
	return &Model{
		Name:   "O3",
		IntALU: 1, IntMul: 4, IntDiv: 22,
		FloatAdd: 120, FloatMul: 200, FloatDiv: 520, FloatCmp: 80, Conv: 50,
		// Scheduled loads/stores hide latency that O0's naive code pays.
		Load: 1, Store: 1, LocalAccess: 0,
		Branch: 1, Call: 8, Ret: 5,
		// The table probe remains memory-bound: its relative price rises
		// at O3, which is why the paper's O3 speedups are smaller.
		HashFixed: 6, HashModulo: 10, JenkinsPerByte: 16, KeyPerWord: 4, CopyPerWord: 4,
	}
}

// ModelFor returns the model for an optimization level ("O0" or "O3").
func ModelFor(level string) *Model {
	if level == "O3" {
		return O3()
	}
	return O0()
}

// HashOverhead estimates the cycles of the extra operations performed on
// one execution instance of a transformed segment. The paper notes a hit
// and a miss perform the same number of extra operations: both form the
// key, hash it, compare the resident key, and copy the outputs (out of the
// table on a hit, into it on a miss).
func (m *Model) HashOverhead(keyBytes int, outBytes int) int64 {
	keyWords := (keyBytes + 3) / 4
	outWords := (outBytes + 3) / 4
	o := m.HashFixed
	// Key formation and residence check.
	o += int64(keyWords) * m.KeyPerWord * 2
	// Index computation.
	if keyBytes <= 4 {
		o += m.HashModulo
	} else {
		o += int64(keyBytes)*m.JenkinsPerByte + m.HashModulo
	}
	// Output copy.
	o += int64(outWords) * m.CopyPerWord
	return o
}

// DepOverhead estimates the per-instance overhead of a dependence-
// tracked (footprint-trie) probe that reads footprintWords locations:
// each trie level loads the named location, forms and compares one key
// word, and indexes one node table; the fixed bookkeeping and the output
// copy match HashOverhead. Unlike HashOverhead there is no per-byte
// Jenkins pass over a wide flat key — the probe only ever touches the
// locations the computation depends on, which is the economics that
// lets dependence-tracked keys flip O/C ≥ 1 rejections (see
// internal/depmemo).
func (m *Model) DepOverhead(footprintWords int, outBytes int) int64 {
	outWords := (outBytes + 3) / 4
	o := m.HashFixed
	o += int64(footprintWords) * (m.Load + m.KeyPerWord*2 + m.HashModulo)
	o += int64(outWords) * m.CopyPerWord
	return o
}

// Seconds converts cycles to seconds at the modeled clock.
func Seconds(cycles int64) float64 { return float64(cycles) / ClockHz }
