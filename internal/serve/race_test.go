//go:build race

package serve

// raceEnabled tells the allocation guard that the race detector is on.
const raceEnabled = true
