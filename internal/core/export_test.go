package core

import (
	"compreuse/internal/cost"
	"compreuse/internal/interp"
)

// Preps and Executions count the prepared copies and VM executions of
// every compile in this process.
var Preps, Executions = &preps, &executions

// CheckDepCensus compares a compile's footprint census with a separate
// census run (see checkDepCensus).
var CheckDepCensus = checkDepCensus

// ProfileRuns prepares o's program once, as a compile does, and returns
// two runs of its training input: the plain run a baseline makes and
// the watched frequency run that profiles the compile (profileRun).
func ProfileRuns(o Options) (plain, watched func() error, err error) {
	o.defaults()
	model := cost.ModelFor(o.OptLevel)
	pa, err := prep(&o, model)
	if err != nil {
		return nil, nil, err
	}
	cands := pa.an.Candidates()
	plain = func() error {
		_, err := interp.Run(pa.prog, o.runOpts(model, false, o.MainArgs))
		return err
	}
	watched = func() error {
		_, _, err := pa.profileRun(&o, model, cands)
		return err
	}
	return plain, watched, nil
}
