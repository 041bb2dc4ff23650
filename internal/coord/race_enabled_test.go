//go:build race

package coord

// raceEnabled reports whether the race detector instruments this build; the
// single-threaded simulator sweeps run fewer seeds under it.
const raceEnabled = true
