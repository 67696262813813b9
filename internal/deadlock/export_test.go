package deadlock

import "nocvi/internal/topology"

// AnalyzeWith exposes the scratch-backed analysis to the external
// tests, so they can drive one Scratch across many topologies.
func AnalyzeWith(top *topology.Topology, sc *Scratch) Report { return sc.analyze(top) }
