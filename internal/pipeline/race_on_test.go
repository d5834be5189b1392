//go:build race

package pipeline

// raceEnabled reports whether the race detector is compiled in; the
// live-tier validation test relaxes its time compression under it
// (instrumentation overhead would otherwise swamp the compressed
// horizon).
const raceEnabled = true
