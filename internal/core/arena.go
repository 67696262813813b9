package core

import (
	"nocvi/internal/deadlock"
	"nocvi/internal/floorplan"
	"nocvi/internal/partition"
	"nocvi/internal/power"
	"nocvi/internal/route"
	"nocvi/internal/topology"
)

// buildContext is one worker's reusable build arena: the topology
// under construction, the router (with its subgraph cache and Dijkstra
// scratch), and the deadlock checker's, floorplanner's (with the
// placement it fills) and power model's scratch buffers, all recycled
// across the candidates the worker evaluates. One buildContext must not
// be used by two goroutines concurrently.
//
// The arena owns what it builds. The topology is Reset before every
// build and never given up; the router's Reset re-targets it at that
// topology with semantics identical to route.New; the deadlock, power
// and floorplan scratch hold only temporaries and the placement the
// last build filled; the design point itself, and its switch-count
// copy, are overwritten by every build. A point that outlives the
// worker's next candidate leaves through published, which copies it out
// with its topology and placement at exact size, so published results
// never alias arena storage. Every candidate therefore observes exactly
// the state a fresh allocation would give it, which is what keeps the
// sweep bit-identical to the serial, arena-free path.
type buildContext struct {
	env *sweepEnv

	top    *topology.Topology // nil until first use
	router *route.Router      // nil until first use
	dl     deadlock.Scratch
	fp     floorplan.Scratch
	pw     power.Scratch
	part   partition.Scratch // worker-owned min-cut buffers for first-touch partition-table entries

	// dp is the point the last successful build filled, and counts the
	// backing array of its SwitchCounts.
	dp     DesignPoint
	counts []int

	// pruneIdx bounds the incumbent witnesses buildPoint's staged bound
	// check accepts (strictly smaller candidate indices), set before
	// each evaluation. The zero value disables staged pruning (nothing
	// precedes candidate 0), which is exactly right for fresh contexts
	// and for the sweep winners' rebuild.
	pruneIdx uint64
}

// newBuildContext creates an empty arena for one worker. Buffers grow
// on first use and stabilize after the first candidate.
func newBuildContext(env *sweepEnv) *buildContext {
	return &buildContext{env: env}
}

// takeTop returns the arena's topology, reset for construction; only
// the first call allocates it.
func (bc *buildContext) takeTop() *topology.Topology {
	if bc.top == nil {
		bc.top = topology.New(bc.env.spec, bc.env.lib)
	} else {
		bc.top.Reset()
	}
	return bc.top
}

// takeRouter returns the arena's router re-targeted at top.
func (bc *buildContext) takeRouter(top *topology.Topology) *route.Router {
	if bc.router == nil {
		bc.router = route.New(top, bc.env.opt.Router)
	} else {
		bc.router.Reset(top)
	}
	return bc.router
}
