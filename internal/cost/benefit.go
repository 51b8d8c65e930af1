package cost

// This file implements the paper's cost–benefit analysis (§2.2, §2.3).
//
// For a segment with computation granularity C (cycles per instance),
// hashing overhead O (cycles per instance) and input reuse rate R:
//
//	new cost      = (C+O)·(1−R) + O·R              (formula 1)
//	gain          = C − new cost = R·C − O          (formula 2)
//	profitable    ⇔ R·C − O > 0  ⇔  R > O/C        (formula 3)
//
// and for nested segments with gains g1 (outer) and g2 (inner), where each
// outer instance executes n inner instances on average:
//
//	reuse the inner ⇔ g1 − n·g2 < 0                 (formula 4)
//
// Gain evaluates formula (2), which folds formula (1) in; package nesting
// applies formula (4) to whole-run gains (TotalGain).

// Profile carries the measured quantities for one code segment.
type Profile struct {
	// C is the computation granularity in cycles per instance.
	C float64
	// O is the hashing overhead in cycles per instance.
	O float64
	// N is the number of execution instances.
	N int64
	// Nds is the number of distinct input sets.
	Nds int64
}

// ReuseRate returns R = 1 − Nds/N (paper §2.1), or 0 when N == 0.
func (p Profile) ReuseRate() float64 {
	if p.N == 0 {
		return 0
	}
	return 1 - float64(p.Nds)/float64(p.N)
}

// Gain evaluates formula (2): the per-instance gain R·C − O.
func (p Profile) Gain() float64 {
	return p.ReuseRate()*p.C - p.O
}

// Profitable evaluates formula (3).
func (p Profile) Profitable() bool { return p.Gain() > 0 }

// RatioOK reports whether O/C < 1, the pre-profiling filter the paper uses
// to limit value-set profiling cost (a segment with O ≥ C can never
// profit even at R = 1).
func (p Profile) RatioOK() bool { return p.C > 0 && p.O/p.C < 1 }

// TotalGain returns the whole-run gain in cycles, Gain()·N.
func (p Profile) TotalGain() float64 { return p.Gain() * float64(p.N) }
