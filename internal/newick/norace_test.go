//go:build !race

package newick

const raceEnabled = false
