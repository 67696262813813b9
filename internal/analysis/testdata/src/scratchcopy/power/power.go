// Package power is a stand-in for the real power package: the
// scratchcopy analyzer matches the protected Scratch owners on the
// final import-path segment, so this fixture's Scratch counts.
package power

// Scratch mimics the power model's traffic accumulators.
type Scratch struct {
	Traffic []float64
}
