package deadlock

import "nocvi/internal/topology"

// AnalyzeWith exposes the scratch-backed analysis to the external
// tests, so they can drive one Scratch across many topologies.
func AnalyzeWith(top *topology.Topology, sc *Scratch) Report { return sc.analyze(top) }

// AnalyzeWalks and CheckWalksWith are the analysis and CheckWith over a
// route set given as link walks over n links, so the external tests can
// drive route sets no topology would accept: random walks, repeated
// links.
func AnalyzeWalks(n int, walks [][]topology.LinkID, sc *Scratch) Report {
	return sc.analyzeWalks(n, len(walks), func(ri int) []topology.LinkID { return walks[ri] })
}

func CheckWalksWith(n int, walks [][]topology.LinkID, sc *Scratch) error {
	return verdict(AnalyzeWalks(n, walks, sc))
}
