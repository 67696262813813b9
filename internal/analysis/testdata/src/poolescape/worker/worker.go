// Package worker exercises the three poolescape escape shapes —
// global store, non-arena field store, boundary return — against the
// sanctioned arena idioms, which must all stay clean.
package worker

import (
	"errors"

	"fixture/poolescape/deadlock"
	"fixture/poolescape/graph"
	"fixture/poolescape/power"
	"fixture/poolescape/route"
	"fixture/poolescape/topology"
)

// buildContext is an arena container: it owns a scratch by value, so
// stores into its fields and returns rooted at it are the pooling
// boundary itself, not an escape.
type buildContext struct {
	scratch graph.Scratch
	dl      deadlock.Scratch
	pw      power.Scratch
	top     *topology.Topology
	router  *route.Router
}

// Server is NOT an arena container — it holds only pointers — so
// parking a pooled reference in one of its fields outlives the arena.
type Server struct {
	router *route.Router
	tops   map[string]*topology.Topology
	power  *power.Scratch
}

var leakedTop *topology.Topology
var leakedScratch *graph.Scratch
var leakedDeadlock *deadlock.Scratch
var registry = map[string]*route.Router{}
var lastNoPath *route.NoPathError

// Report is not an arena container either: a router-owned error parked
// in it is overwritten by the router's next Route. The value copy it
// also keeps is plain data and makes it no arena container.
type Report struct {
	cause *route.NoPathError
	saved route.NoPathError
	flow  int
}

// wrapper holds the build context by pointer, so it is no arena
// container.
type wrapper struct {
	bc *buildContext
}

func globalEscape(bc *buildContext) {
	leakedTop = bc.top // want poolescape "pooled *topology.Topology stored into package-level var leakedTop"
}

func globalAddrEscape(bc *buildContext) {
	leakedScratch = &bc.scratch // want poolescape "graph.Scratch reference stored into package-level var leakedScratch"
}

func globalDeadlockEscape(bc *buildContext) {
	leakedDeadlock = &bc.dl // want poolescape "deadlock.Scratch reference stored into package-level var leakedDeadlock"
}

func powerFieldEscape(s *Server, bc *buildContext) {
	s.power = &bc.pw // want poolescape "power.Scratch reference stored into field power of non-arena type worker.Server"
}

func globalIndexEscape(bc *buildContext, name string) {
	registry[name] = bc.router // want poolescape "pooled *route.Router stored into package-level var registry"
}

func fieldEscape(s *Server, bc *buildContext) {
	s.router = bc.router // want poolescape "pooled *route.Router stored into field router of non-arena type worker.Server"
}

func noPathGlobalEscape(err error) {
	var npe *route.NoPathError
	if errors.As(err, &npe) {
		lastNoPath = npe // want poolescape "pooled *route.NoPathError stored into package-level var lastNoPath"
	}
}

func noPathFieldEscape(rep *Report, err error) {
	var npe *route.NoPathError
	if errors.As(err, &npe) {
		rep.cause = npe // want poolescape "pooled *route.NoPathError stored into field cause of non-arena type worker.Report"
	}
}

type result struct {
	top *topology.Topology
}

func powerAddrReturn(w *wrapper) *power.Scratch {
	return &w.bc.pw // want poolescape "return of pooled power.Scratch reference extracted from worker.wrapper"
}

func scratchAddrReturn(bc *buildContext) *graph.Scratch {
	return &bc.scratch // want poolescape "return of pooled graph.Scratch reference extracted from worker.buildContext"
}

func returnEscape(r *result) *topology.Topology {
	return r.top // want poolescape "return of pooled *topology.Topology extracted from worker.result"
}

// --- sanctioned idioms below: no annotations, any finding fails ---

// takeTop is the arena handoff: a field store into the container and a
// return rooted at a pointer-to-container parameter are both clean.
func takeTop(bc *buildContext) *topology.Topology {
	if bc.top == nil {
		bc.top = &topology.Topology{}
	}
	return bc.top
}

// takeRouter wires a fresh router to the worker's own scratch; the
// constructor result and the SetScratch call never leave the arena.
func takeRouter(bc *buildContext) *route.Router {
	if bc.router == nil {
		bc.router = route.New()
		bc.router.SetScratch(&bc.scratch)
	}
	return bc.router
}

// fresh values are creation, not escape, even stored globally.
func fresh() *route.Router { return route.New() }

// passThrough returns its own parameter unchanged: plumbing, not
// extraction.
func passThrough(t *topology.Topology) *topology.Topology {
	if t == nil {
		return &topology.Topology{}
	}
	return t
}

// localUse keeps every pooled reference inside the arena's lifetime.
func localUse(bc *buildContext) int {
	t := takeTop(bc)
	r := takeRouter(bc)
	_ = r
	return t.Routers + len(bc.scratch.Buf) + len(bc.dl.Succ) + len(bc.pw.Traffic)
}

// classify reads the router's error locally, before the router's next
// call, and keeps what it needs by value: clean.
func classify(rep *Report, err error) int {
	var npe *route.NoPathError
	if errors.As(err, &npe) {
		rep.saved = *npe
		rep.flow = rep.saved.Flow
		return npe.Backup
	}
	return 0
}
