package core

// Preps and Executions count the prepared copies and VM executions of
// every compile in this process.
var Preps, Executions = &preps, &executions

// CheckDepCensus compares a compile's footprint census with a separate
// census run (see checkDepCensus).
var CheckDepCensus = checkDepCensus
