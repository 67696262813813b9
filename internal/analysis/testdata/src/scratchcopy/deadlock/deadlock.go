// Package deadlock is a stand-in for the real deadlock package: the
// scratchcopy analyzer matches the protected Scratch owners on the
// final import-path segment, so this fixture's Scratch counts.
package deadlock

// Scratch mimics the deadlock check's CSR and DFS buffers.
type Scratch struct {
	Off  []int32
	Succ []int32
}
