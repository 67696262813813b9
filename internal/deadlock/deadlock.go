// Package deadlock proves freedom from routing-induced deadlock for a
// synthesized topology. In a wormhole network a packet can hold one link
// while waiting for the next, so a cycle in the Channel Dependency Graph
// (CDG) — whose vertices are the directed links and whose edges are the
// consecutive-link pairs used by some route — can produce a circular
// wait (Dally & Seitz). An acyclic CDG is a sufficient condition for
// deadlock freedom under deterministic routing, which is what the
// synthesis flow uses.
//
// The island discipline of the paper's routes (source island -> optional
// intermediate island -> destination island, never backwards) already
// prevents cross-island cycles; intra-island segments use min-cost paths
// that are usually tree-like but not provably acyclic in the CDG, so the
// checker verifies the property rather than assuming it.
package deadlock

import (
	"fmt"
	"slices"

	"nocvi/internal/topology"
)

// Report describes the outcome of a deadlock analysis.
type Report struct {
	// Channels is the number of directed links analyzed, Dependencies
	// the number of distinct link-to-link dependencies induced by the
	// routes.
	Channels     int
	Dependencies int

	// Cycle is a witness (sequence of LinkIDs, first == last) when the
	// CDG is cyclic, nil when the design is deadlock free.
	Cycle []topology.LinkID
}

// Free reports whether the analysis found no cycle.
func (r *Report) Free() bool { return len(r.Cycle) == 0 }

// String formats the report for logs.
func (r *Report) String() string {
	if r.Free() {
		//noclint:ignore bannedcall log-message formatting in String, not a cache key
		return fmt.Sprintf("deadlock-free: %d channels, %d dependencies, CDG acyclic",
			r.Channels, r.Dependencies)
	}
	//noclint:ignore bannedcall log-message formatting in String, not a cache key
	return fmt.Sprintf("DEADLOCK RISK: cyclic channel dependency through links %v", r.Cycle)
}

// Scratch holds the deadlock check's reusable working buffers: the
// channel dependency graph in compressed sparse row form (per-link
// successor offsets, the successor array and the duplicate-pair stamp)
// and the depth-first search's colour, parent and stack arrays. A zero
// Scratch is ready to use; one Scratch must not be used by two
// goroutines concurrently. Sweeps that check many candidate topologies
// reuse one Scratch per worker so a deadlock-free check allocates
// nothing once the buffers have grown.
type Scratch struct {
	off    []int32 // link a's successors are succ[off[a]:off[a+1]]
	succ   []int32
	stamp  []int32 // stamp[b] == a+1 once a->b is kept in a's bucket
	color  []int8
	parent []int32
	stack  []frame
}

// frame is one level of the iterative DFS: vertex v, scanning its
// successors from succ index idx.
type frame struct{ v, idx int32 }

// Analyze builds the channel dependency graph from the topology's routes
// and checks it for cycles.
func Analyze(top *topology.Topology) *Report {
	var sc Scratch
	rep := sc.analyze(top)
	return &rep
}

// Check returns an error when the topology's routes can deadlock.
func Check(top *topology.Topology) error {
	return CheckWith(top, &Scratch{})
}

// CheckWith is Check drawing its working buffers from sc, which may be
// reused across calls. A deadlock-free topology allocates nothing once
// sc has grown to its size.
func CheckWith(top *topology.Topology, sc *Scratch) error {
	if rep := sc.analyze(top); !rep.Free() {
		cyclic := rep // declared here so only a failing check moves it to the heap
		return fmt.Errorf("deadlock: %s", &cyclic)
	}
	return nil
}

// analyze builds the CDG into sc and searches it for a cycle. Only the
// witness of a cyclic CDG is allocated; it escapes into the report.
func (sc *Scratch) analyze(top *topology.Topology) Report {
	n := len(top.Links)
	deps := sc.buildCDG(top)
	return Report{Channels: n, Dependencies: deps, Cycle: sc.findCycle(n)}
}

// buildCDG lays out the channel dependency graph of top's routes as
// CSR and returns its number of distinct dependencies. Consecutive-link
// pairs are bucketed by source link in route traversal order, then each
// bucket keeps only the first occurrence of every successor, so the
// successor lists are exactly the adjacency lists a graph built by
// adding each newly seen pair in traversal order would hold.
func (sc *Scratch) buildCDG(top *topology.Topology) int {
	n := len(top.Links)
	off := resize(sc.off, n+1)
	clear(off)
	for ri := range top.Routes {
		ls := top.Routes[ri].Links
		for i := 1; i < len(ls); i++ {
			if ls[i-1] == ls[i] {
				panic(fmt.Sprintf("deadlock: self loop on link %d", ls[i])) //noclint:ignore bannedcall cold-path validation panic, not a cache key
			}
			off[ls[i-1]]++
		}
	}
	// Exclusive prefix sum: off[a] becomes the start of a's bucket.
	var sum int32
	for a := 0; a < n; a++ {
		c := off[a]
		off[a] = sum
		sum += c
	}
	succ := resize(sc.succ, int(sum))
	// Fill advances off[a] to the end of a's bucket, which is where
	// a+1's bucket starts; shifting by one restores the starts.
	for ri := range top.Routes {
		ls := top.Routes[ri].Links
		for i := 1; i < len(ls); i++ {
			a := ls[i-1]
			succ[off[a]] = int32(ls[i])
			off[a]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	// Drop later duplicates within each bucket, compacting in place.
	stamp := resize(sc.stamp, n)
	clear(stamp)
	var w int32
	lo := off[0]
	for a := 0; a < n; a++ {
		hi := off[a+1]
		off[a] = w
		for k := lo; k < hi; k++ {
			b := succ[k]
			if stamp[b] == int32(a)+1 {
				continue
			}
			stamp[b] = int32(a) + 1
			succ[w] = b
			w++
		}
		lo = hi
	}
	off[n] = w
	sc.off, sc.succ, sc.stamp = off, succ, stamp
	return int(w)
}

// findCycle runs an iterative three-colour DFS over the CDG in sc,
// starting from each unvisited link in ascending order and scanning
// successors in list order. It returns the first cycle closed by a back
// edge as a witness (v0, v1, ..., v0), nil when the CDG is acyclic.
func (sc *Scratch) findCycle(n int) []topology.LinkID {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	off, succ := sc.off, sc.succ
	color := resize(sc.color, n)
	clear(color)
	parent := resize(sc.parent, n)
	for i := range parent {
		parent[i] = -1
	}
	sc.color, sc.parent = color, parent
	stack := sc.stack[:0]
	for s := int32(0); int(s) < n; s++ {
		if color[s] != white {
			continue
		}
		stack = append(stack, frame{v: s, idx: off[s]})
		color[s] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.idx < off[f.v+1] {
				u := succ[f.idx]
				f.idx++
				switch color[u] {
				case white:
					color[u] = gray
					parent[u] = f.v
					stack = append(stack, frame{v: u, idx: off[u]})
				case gray:
					// Back edge f.v -> u with u an ancestor of f.v: the
					// cycle is u -> ... -> f.v -> u. The parent chain
					// yields the u..f.v path in reverse, so collect it
					// after the anchor and flip that portion only.
					sc.stack = stack[:0]
					cycle := []topology.LinkID{topology.LinkID(u)}
					for v := f.v; v != u && v != -1; v = parent[v] {
						cycle = append(cycle, topology.LinkID(v))
					}
					for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
						cycle[i], cycle[j] = cycle[j], cycle[i]
					}
					return append(cycle, topology.LinkID(u))
				}
			} else {
				color[f.v] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	sc.stack = stack
	return nil
}

// resize returns buf with length n, reusing its storage when large
// enough and otherwise growing it by append's amortized rule. The
// contents are unspecified; callers overwrite or clear.
func resize[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}
