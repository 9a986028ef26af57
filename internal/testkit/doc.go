// Package testkit is the differential-testing substrate for fairrank's
// optimized evaluation paths. Every fast path in the engine — the closed-form
// 1-D EMD, the incremental pairwise triangle, the counted splits,
// the streaming monitor, the exhaustive enumerators — has a slow, obviously
// correct counterpart here, exported behind the stable Oracle API, plus
// deterministic input generators (Gen, seeded by internal/rng) and a
// metamorphic-property harness that each engine package imports from its own
// _test.go files.
//
// The package deliberately depends only on the leaf packages (dataset,
// partition, rng, scoring), never on the engines it checks, so any engine
// package can import it from internal tests without a cycle. Oracle
// implementations favor straight-line clarity over speed: an explicit
// monotone-coupling flow instead of the cumulative-sum closed form, a
// rebuild-everything average instead of the delta triangle, recursive block
// insertion instead of restricted-growth-string tricks. When an optimized
// path and its oracle disagree, the oracle is presumed right.
//
// Three layers build on each other:
//
//  1. Oracles — reference implementations differential tests compare against.
//  2. Generators — Gen derives schemas, datasets, partitionings, PMFs and
//     monitor event streams from a single uint64 seed, so every failure is
//     reproducible from one number and fuzz corpora stay tiny.
//  3. Metamorphic properties — CheckEMDProperties and CheckUnfairnessOracle
//     assert input-transformation invariants (permutation, refinement,
//     scaling, translation) that hold for any correct implementation,
//     catching bugs no fixed fixture would.
package testkit
