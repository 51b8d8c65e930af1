package segment

import "compreuse/internal/cost"

// Dependence-key eligibility: a second chance for segments the flat-key
// O/C >= 1 filter rejected. A dependence-tracked probe (internal/depmemo)
// pays per location the body actually reads, not per byte of the
// declared input set, so a segment whose key is dominated by a wide,
// sparsely-read aggregate can clear the profitability bar under
// cost.Model.DepOverhead even though HashOverhead sank it.

// MinFootprintWords is the optimistic lower bound on a dependence
// footprint: one tracked read per scalar input, and at least one
// element read per aggregate input (a body that never reads an input at
// all would have had it filtered as dead).
func (s *Segment) MinFootprintWords() int {
	if len(s.Inputs) == 0 {
		return 1
	}
	return len(s.Inputs)
}

// DepEligible reports whether the segment should be forwarded to
// dependence-footprint profiling: structurally transformable, rejected
// by the flat-key pre-filter, and optimistically profitable under the
// dependence overhead model (O_dep/C_max < 1, the dep analog of the
// paper's formula-2 filter — R <= 1, so a segment failing even with the
// minimal footprint can never satisfy formula 3).
func (s *Segment) DepEligible(m *cost.Model) bool {
	if !s.Eligible || s.RatioOK() {
		return false
	}
	if s.CMax <= 0 {
		return false
	}
	oDep := m.DepOverhead(s.MinFootprintWords(), s.OutBytes)
	return float64(oDep)/float64(s.CMax) < 1
}

// DepInputs returns the locations a dependence-keyed region or watch of s
// tracks: each input as a whole location, since the watcher narrows an
// aggregate to the cells the body reads, then the address-only induction
// variable, if any. The flat key leaves that variable out because it
// keys arr[iv] by the element's value; a footprint instead names the
// cells it read by offset, so it depends on the variable that chose them
// and must track it, or a footprint recorded at one iv would hit at
// another where the body reads other cells.
func (s *Segment) DepInputs() []Input {
	out := make([]Input, 0, len(s.Inputs)+1)
	for _, in := range s.Inputs {
		out = append(out, Input{Sym: in.Sym})
	}
	if s.AddrVar != nil {
		out = append(out, Input{Sym: s.AddrVar})
	}
	return out
}

// DepCandidates returns the segments forwarded to dependence-footprint
// profiling: those DepEligible under m, in analysis order.
func (a *Analysis) DepCandidates(m *cost.Model) []*Segment {
	var out []*Segment
	for _, s := range a.Segments {
		if s.DepEligible(m) {
			out = append(out, s)
		}
	}
	return out
}
