//go:build race

package route

// raceEnabled reports whether the tests run under the race detector,
// whose instrumentation changes allocation counts.
const raceEnabled = true
