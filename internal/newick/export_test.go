package newick

// Exported for the external tests (package newick_test), which also
// import packages built on this one.
var (
	RefParse    = refParse
	SameOutcome = sameOutcome
)
