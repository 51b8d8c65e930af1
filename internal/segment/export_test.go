package segment

import "compreuse/internal/dataflow"

// LiveAfter exposes liveAfter to the external oracle test.
func (a *Analysis) LiveAfter(s *Segment) dataflow.SymSet { return a.liveAfter(s) }
