//! Stand-in: the engine crates declare `rand` but their library code never calls it.
