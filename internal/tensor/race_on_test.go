//go:build race

package tensor

// raceEnabled reports whether the race detector is compiled in; the
// exhaustive rounding test skips under it.
const raceEnabled = true
