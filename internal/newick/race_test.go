//go:build race

package newick

// raceEnabled: the race detector makes sync.Pool drop Puts at random, so
// allocation counts are not pinned under it.
const raceEnabled = true
