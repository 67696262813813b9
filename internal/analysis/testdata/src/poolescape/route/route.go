// Package route mimics the real route package: Router is
// Reset-recycled and pins a scratch pointer via SetScratch, and it owns
// the one NoPathError its Route returns.
package route

import "fixture/poolescape/graph"

type Router struct {
	scratch *graph.Scratch
	noPath  NoPathError
	own     graph.Scratch
}

// NoPathError is router-owned: valid until the router's next Route.
type NoPathError struct {
	Flow, Backup int
}

func (e *NoPathError) Error() string { return "route: no path" }

// Route hands out the router's own error. The router's address is
// taken, not a pointer extracted from it, so this is the owner lending
// its storage, not an escape.
func (r *Router) Route(flow int) error {
	r.noPath = NoPathError{Flow: flow}
	return &r.noPath
}

// New returns a fresh Router; constructor results are creation, not
// escape, so callers may store them anywhere.
func New() *Router { return &Router{} }

// SetScratch pins the router to its worker's arena.
func (r *Router) SetScratch(s *graph.Scratch) { r.scratch = s }

// LeakScratch extracts the pinned scratch out of a pooled object: the
// root of the chain is itself pooled, so the reference crosses the
// pooling boundary.
func LeakScratch(r *Router) *graph.Scratch {
	return r.scratch // want poolescape "return of pooled *graph.Scratch extracted from route.Router"
}

// ownScratch lends the router's own by-value scratch to its caller: a
// method lending a field of its own receiver, like Route's &r.noPath.
func (r *Router) ownScratch() *graph.Scratch {
	return &r.own
}

// LeakOwnScratch takes the address of the scratch a pooled router holds
// by value: no selector result, yet the reference still crosses the
// pooling boundary.
func LeakOwnScratch(r *Router) *graph.Scratch {
	return &r.own // want poolescape "return of pooled graph.Scratch reference extracted from route.Router"
}

// lendOther is a method, but the field it lends is another router's.
func (r *Router) lendOther(o *Router) *graph.Scratch {
	return &o.own // want poolescape "return of pooled graph.Scratch reference extracted from route.Router"
}
