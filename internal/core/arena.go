package core

import (
	"sync"

	"nocvi/internal/deadlock"
	"nocvi/internal/floorplan"
	"nocvi/internal/partition"
	"nocvi/internal/power"
	"nocvi/internal/route"
	"nocvi/internal/topology"
)

// buildContext is one worker's reusable build arena: the topology
// under construction, the router (with its subgraph and Dijkstra
// scratch), and the deadlock checker's, floorplanner's (with the
// placement it fills) and power model's scratch buffers, all recycled
// across the candidates the worker evaluates. One buildContext must not
// be used by two goroutines concurrently.
//
// Arenas outlive an engine call. drive takes its workers' arenas from
// arenaPool and binds each to the call's env; the call hands them back
// (releaseArenas) once its last build is published, so the next
// Synthesize or SynthesizeSweep in the process — a relax retry, the
// next experiment, the next cache miss or sweep — starts on buffers
// already grown. Only the first call of a process, and a call after the
// garbage collector emptied the pool, pays their growth.
//
// The arena owns what it builds. The topology is rebound to the call's
// spec and library before every build and never given up; the router's
// Reset re-targets it at that topology and the call's router options
// with semantics identical to route.New; the deadlock, power, partition
// and floorplan scratch hold only temporaries and the placement the
// last build filled; the design point itself, and its switch-count
// copy, are overwritten by every build. A point that outlives the
// worker's next candidate leaves through published, which copies it out
// with its topology and placement at exact size, so published results
// never alias arena storage. Every candidate therefore observes exactly
// the state a fresh allocation would give it, whatever the arena built
// before and for whichever call, which is what keeps the sweep
// bit-identical to the serial, arena-free path.
type buildContext struct {
	env *sweepEnv // the call the arena is bound to; nil in the pool

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

// arenaPool holds the arenas of finished engine calls for the next
// call's workers. An empty pool hands out a zero buildContext, whose
// buffers grow on first use.
var arenaPool = sync.Pool{New: func() any { return new(buildContext) }}

// takeArenas binds n arenas from the pool to env as env.arenas.
func (env *sweepEnv) takeArenas(n int) {
	env.arenas = make([]*buildContext, n)
	for w := range env.arenas {
		bc := arenaPool.Get().(*buildContext)
		bc.env = env
		env.arenas[w] = bc
	}
}

// releaseArenas hands env's arenas back to the pool. Each is unbound
// first — its env, point and prune index cleared — so the pool pins
// none of a finished call's bounds, partition table or results. The
// call must not build in them afterwards.
func (env *sweepEnv) releaseArenas() {
	for _, bc := range env.arenas {
		bc.env, bc.dp, bc.pruneIdx = nil, DesignPoint{}, 0
		arenaPool.Put(bc)
	}
	env.arenas = nil
}

// takeTop returns the arena's topology, rebound to the call's spec and
// library for construction; only the arena's first build allocates it.
func (bc *buildContext) takeTop() *topology.Topology {
	if bc.top == nil {
		bc.top = topology.New(bc.env.spec, bc.env.lib)
	} else {
		bc.top.Rebind(bc.env.spec, bc.env.lib)
	}
	return bc.top
}

// takeRouter returns the arena's router re-targeted at top under the
// call's router options.
func (bc *buildContext) takeRouter(top *topology.Topology) *route.Router {
	if bc.router == nil {
		bc.router = route.New(top, bc.env.opt.Router)
	} else {
		bc.router.Reset(top, bc.env.opt.Router)
	}
	return bc.router
}
