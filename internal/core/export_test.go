package core

// Preps and Executions count the prepared copies and VM executions of
// every compile in this process.
var Preps, Executions = &preps, &executions
