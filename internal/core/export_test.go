package core

// Unprune exposes the unexported pruning switch (unprune) to this
// directory's external tests: the prune=off arm of BenchmarkPruneTable2
// needs the simulate package, which imports core and so cannot be used
// from package core itself.
var Unprune = unprune
