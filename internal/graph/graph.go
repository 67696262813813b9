// Package graph provides small, allocation-conscious directed and
// undirected weighted graph types together with the algorithms the
// synthesis flow needs: Dijkstra shortest paths with per-query edge
// costs, breadth-first reachability, connected components, and simple
// degree/weight bookkeeping.
//
// Vertices are dense integers in [0, N). The synthesis engine maps cores
// and switches onto these indices.
package graph

import (
	"container/heap"
	"fmt"
	"math"
)

// Edge is a directed edge with a weight (bandwidth, cost, ...).
type Edge struct {
	From, To int
	Weight   float64
}

// Directed is a directed multigraph-free weighted graph with O(1)
// adjacency iteration. Adding an edge that already exists accumulates its
// weight, which matches how communication graphs merge parallel flows.
type Directed struct {
	n   int
	adj [][]halfEdge // outgoing
	in  [][]halfEdge // incoming
	m   int
}

type halfEdge struct {
	to int
	w  float64
}

// NewDirected creates a directed graph with n vertices and no edges.
func NewDirected(n int) *Directed {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Directed{n: n, adj: make([][]halfEdge, n), in: make([][]halfEdge, n)}
}

// N returns the number of vertices.
func (g *Directed) N() int { return g.n }

// M returns the number of distinct directed edges.
func (g *Directed) M() int { return g.m }

// AddEdge inserts the edge u->v with weight w, accumulating the weight if
// the edge already exists. Self loops are rejected.
func (g *Directed) AddEdge(u, v int, w float64) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self loop on %d", u)) //noclint:ignore bannedcall cold-path validation panic, not a cache key
	}
	for i := range g.adj[u] {
		if g.adj[u][i].to == v {
			g.adj[u][i].w += w
			for j := range g.in[v] {
				if g.in[v][j].to == u {
					g.in[v][j].w += w
					break
				}
			}
			return
		}
	}
	g.adj[u] = append(g.adj[u], halfEdge{to: v, w: w})
	g.in[v] = append(g.in[v], halfEdge{to: u, w: w})
	g.m++
}

// AddArc inserts u->v with weight w without scanning for an existing
// edge. It is the bulk-construction fast path used by builders that
// guarantee uniqueness themselves (e.g. nested loops over distinct
// vertex pairs); inserting a duplicate arc corrupts the edge count and
// makes iteration visit the pair twice. Self loops are rejected.
func (g *Directed) AddArc(u, v int, w float64) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self loop on %d", u)) //noclint:ignore bannedcall cold-path validation panic, not a cache key
	}
	g.adj[u] = append(g.adj[u], halfEdge{to: v, w: w})
	g.in[v] = append(g.in[v], halfEdge{to: u, w: w})
	g.m++
}

// HasEdge reports whether u->v exists.
func (g *Directed) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	for _, e := range g.adj[u] {
		if e.to == v {
			return true
		}
	}
	return false
}

// Weight returns the weight of u->v, or 0 when absent.
func (g *Directed) Weight(u, v int) float64 {
	g.check(u)
	g.check(v)
	for _, e := range g.adj[u] {
		if e.to == v {
			return e.w
		}
	}
	return 0
}

// Succ calls fn for every outgoing edge of u.
func (g *Directed) Succ(u int, fn func(v int, w float64)) {
	g.check(u)
	for _, e := range g.adj[u] {
		fn(e.to, e.w)
	}
}

// Pred calls fn for every incoming edge of u.
func (g *Directed) Pred(u int, fn func(v int, w float64)) {
	g.check(u)
	for _, e := range g.in[u] {
		fn(e.to, e.w)
	}
}

// OutDegree returns the number of outgoing edges of u.
func (g *Directed) OutDegree(u int) int { g.check(u); return len(g.adj[u]) }

// InDegree returns the number of incoming edges of u.
func (g *Directed) InDegree(u int) int { g.check(u); return len(g.in[u]) }

// Edges returns all edges in deterministic (source, insertion) order.
func (g *Directed) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, e := range g.adj[u] {
			out = append(out, Edge{From: u, To: e.to, Weight: e.w})
		}
	}
	return out
}

// TotalWeight sums the weights of all edges.
func (g *Directed) TotalWeight() float64 {
	var sum float64
	for u := 0; u < g.n; u++ {
		for _, e := range g.adj[u] {
			sum += e.w
		}
	}
	return sum
}

// Undirect returns the undirected view of g: an edge {u,v} with weight
// w(u->v)+w(v->u). Min-cut partitioning operates on this view.
func (g *Directed) Undirect() *Undirected {
	u := NewUndirected(g.n)
	for _, e := range g.Edges() {
		u.AddEdge(e.From, e.To, e.Weight)
	}
	return u
}

func (g *Directed) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", u, g.n)) //noclint:ignore bannedcall cold-path validation panic, not a cache key
	}
}

// Undirected is an undirected weighted graph. Parallel edge insertions
// accumulate weight.
type Undirected struct {
	n   int
	adj [][]halfEdge
	m   int
}

// NewUndirected creates an undirected graph with n vertices.
func NewUndirected(n int) *Undirected {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Undirected{n: n, adj: make([][]halfEdge, n)}
}

// N returns the number of vertices.
func (g *Undirected) N() int { return g.n }

// M returns the number of distinct undirected edges.
func (g *Undirected) M() int { return g.m }

// AddEdge inserts {u,v} with weight w, accumulating if present.
func (g *Undirected) AddEdge(u, v int, w float64) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic("graph: vertex out of range")
	}
	if u == v {
		panic(fmt.Sprintf("graph: self loop on %d", u)) //noclint:ignore bannedcall cold-path validation panic, not a cache key
	}
	for i := range g.adj[u] {
		if g.adj[u][i].to == v {
			g.adj[u][i].w += w
			for j := range g.adj[v] {
				if g.adj[v][j].to == u {
					g.adj[v][j].w += w
					break
				}
			}
			return
		}
	}
	g.adj[u] = append(g.adj[u], halfEdge{to: v, w: w})
	g.adj[v] = append(g.adj[v], halfEdge{to: u, w: w})
	g.m++
}

// Weight returns the weight of {u,v}, 0 when absent.
func (g *Undirected) Weight(u, v int) float64 {
	for _, e := range g.adj[u] {
		if e.to == v {
			return e.w
		}
	}
	return 0
}

// Neighbors calls fn for every edge incident to u.
func (g *Undirected) Neighbors(u int, fn func(v int, w float64)) {
	for _, e := range g.adj[u] {
		fn(e.to, e.w)
	}
}

// Degree returns the number of edges incident to u.
func (g *Undirected) Degree(u int) int { return len(g.adj[u]) }

// WeightedDegree returns the total incident edge weight of u.
func (g *Undirected) WeightedDegree(u int) float64 {
	var sum float64
	for _, e := range g.adj[u] {
		sum += e.w
	}
	return sum
}

// Components returns the connected components as a vertex->component map
// and the component count. Component IDs are dense and assigned in
// ascending order of their smallest vertex.
func (g *Undirected) Components() (comp []int, count int) {
	comp = make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	var queue []int
	for s := 0; s < g.n; s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = count
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, e := range g.adj[u] {
				if comp[e.to] == -1 {
					comp[e.to] = count
					queue = append(queue, e.to)
				}
			}
		}
		count++
	}
	return comp, count
}

// CutWeight returns the total weight of edges crossing the given
// bipartition (part[v] selects the side of v).
func (g *Undirected) CutWeight(part []bool) float64 {
	var cut float64
	for u := 0; u < g.n; u++ {
		for _, e := range g.adj[u] {
			if u < e.to && part[u] != part[e.to] {
				cut += e.w
			}
		}
	}
	return cut
}

// Inf is the distance reported by Dijkstra for unreachable vertices.
var Inf = math.Inf(1)

// CostFunc computes the traversal cost of edge u->v with static weight w.
// Returning +Inf excludes the edge for the current query.
type CostFunc func(u, v int, w float64) float64

// pqItem is a priority queue entry for Dijkstra.
type pqItem struct {
	v    int
	dist float64
}

type pq []pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

// Dijkstra computes least-cost distances from src over the directed
// graph, evaluating edge costs through cost (nil means use the static
// weights). It returns the distance slice and the predecessor slice
// (-1 for src and unreachable vertices).
func (g *Directed) Dijkstra(src int, cost CostFunc) (dist []float64, pred []int) {
	g.check(src)
	dist = make([]float64, g.n)
	pred = make([]int, g.n)
	for i := range dist {
		dist[i] = Inf
		pred[i] = -1
	}
	dist[src] = 0
	h := &pq{{v: src, dist: 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(pqItem)
		if it.dist > dist[it.v] {
			continue
		}
		for _, e := range g.adj[it.v] {
			c := e.w
			if cost != nil {
				c = cost(it.v, e.to, e.w)
			}
			if math.IsInf(c, 1) {
				continue
			}
			if c < 0 {
				panic("graph: negative edge cost in Dijkstra")
			}
			if nd := it.dist + c; nd < dist[e.to] {
				dist[e.to] = nd
				pred[e.to] = it.v
				heap.Push(h, pqItem{v: e.to, dist: nd})
			}
		}
	}
	return dist, pred
}

// ShortestPath returns the least-cost path src..dst (inclusive) and its
// cost, or nil and +Inf when unreachable.
func (g *Directed) ShortestPath(src, dst int, cost CostFunc) ([]int, float64) {
	dist, pred := g.Dijkstra(src, cost)
	if math.IsInf(dist[dst], 1) {
		return nil, Inf
	}
	var rev []int
	for v := dst; v != -1; v = pred[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, dist[dst]
}

// Scratch is reusable Dijkstra working state: distance, predecessor and
// binary-heap buffers owned by the caller and shared across queries.
// Clearing between queries is O(touched), not O(n): every label carries
// a generation stamp, and bumping the generation invalidates all labels
// at once. A zero Scratch is ready to use; one Scratch must not be used
// by two goroutines concurrently.
type Scratch struct {
	dist []float64
	pred []int
	gen  []uint32
	cur  uint32
	h    []pqItem
	path []int
}

// begin readies the scratch for a query over n vertices, growing the
// buffers when needed and invalidating all previous labels.
func (s *Scratch) begin(n int) {
	if cap(s.gen) < n {
		s.dist = make([]float64, n)
		s.pred = make([]int, n)
		s.gen = make([]uint32, n)
	} else {
		s.dist = s.dist[:n]
		s.pred = s.pred[:n]
		s.gen = s.gen[:n]
	}
	s.cur++
	if s.cur == 0 { // generation counter wrapped: hard-clear the stamps
		clear(s.gen[:cap(s.gen)])
		s.cur = 1
	}
	s.h = s.h[:0]
}

// hpush and hpop replicate container/heap's sift algorithms (Push =
// append+up, Pop = swap+down+shrink) on the concrete item type, so pop
// order on equal distances is identical to heap.Push/heap.Pop without
// the per-operation interface boxing.
func (s *Scratch) hpush(it pqItem) {
	s.h = append(s.h, it)
	j := len(s.h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(s.h[j].dist < s.h[i].dist) {
			break
		}
		s.h[i], s.h[j] = s.h[j], s.h[i]
		j = i
	}
}

func (s *Scratch) hpop() pqItem {
	n := len(s.h) - 1
	s.h[0], s.h[n] = s.h[n], s.h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s.h[j2].dist < s.h[j1].dist {
			j = j2
		}
		if !(s.h[j].dist < s.h[i].dist) {
			break
		}
		s.h[i], s.h[j] = s.h[j], s.h[i]
		i = j
	}
	it := s.h[n]
	s.h = s.h[:n]
	return it
}

// ShortestPathScratch is ShortestPath using caller-owned scratch state
// and an early exit once dst is settled. It allocates nothing after the
// scratch buffers have grown to the graph's size; the returned path
// slice is owned by the scratch and only valid until its next query.
// The result is identical to ShortestPath: same relaxation order, same
// heap semantics, so equal-cost ties resolve the same way.
func (g *Directed) ShortestPathScratch(sc *Scratch, src, dst int, cost CostFunc) ([]int, float64) {
	g.check(src)
	g.check(dst)
	sc.begin(g.n)
	sc.dist[src] = 0
	sc.pred[src] = -1
	sc.gen[src] = sc.cur
	sc.hpush(pqItem{v: src, dist: 0})
	for len(sc.h) > 0 {
		it := sc.hpop()
		if it.dist > sc.dist[it.v] {
			continue // stale entry
		}
		if it.v == dst {
			break // settled: dist and the pred chain are final
		}
		for _, e := range g.adj[it.v] {
			c := e.w
			if cost != nil {
				c = cost(it.v, e.to, e.w)
			}
			if math.IsInf(c, 1) {
				continue
			}
			if c < 0 {
				panic("graph: negative edge cost in Dijkstra")
			}
			// An unstamped label reads as +Inf; nd itself can only be
			// +Inf on pathological cost scales, where ShortestPath would
			// not relax either.
			if nd := it.dist + c; !math.IsInf(nd, 1) && (sc.gen[e.to] != sc.cur || nd < sc.dist[e.to]) {
				sc.dist[e.to] = nd
				sc.pred[e.to] = it.v
				sc.gen[e.to] = sc.cur
				sc.hpush(pqItem{v: e.to, dist: nd})
			}
		}
	}
	if sc.gen[dst] != sc.cur {
		return nil, Inf
	}
	sc.path = sc.path[:0]
	for v := dst; v != -1; v = sc.pred[v] {
		sc.path = append(sc.path, v)
	}
	for i, j := 0, len(sc.path)-1; i < j; i, j = i+1, j-1 {
		sc.path[i], sc.path[j] = sc.path[j], sc.path[i]
	}
	return sc.path, sc.dist[dst]
}

// ShortestPathDense runs the same algorithm as ShortestPathScratch over
// an *implicit* dense graph on n vertices: an arc u->v exists for every
// u != v with rank[u] <= rank[v] (nil rank means the complete graph),
// and cost prices each arc (its static-weight argument is always 1).
// Nothing is materialized, so callers with near-complete candidate
// graphs skip building adjacency lists entirely. Neighbors are visited
// in ascending vertex order — the order AddArc-built adjacency has when
// arcs are inserted in ascending target order — so equal-cost ties
// resolve identically to the materialized equivalent.
func (sc *Scratch) ShortestPathDense(n int, rank []int8, src, dst int, cost CostFunc) ([]int, float64) {
	if src < 0 || src >= n || dst < 0 || dst >= n {
		panic(fmt.Sprintf("graph: vertex out of range [0,%d)", n)) //noclint:ignore bannedcall cold-path validation panic, not a cache key
	}
	sc.begin(n)
	sc.dist[src] = 0
	sc.pred[src] = -1
	sc.gen[src] = sc.cur
	sc.hpush(pqItem{v: src, dist: 0})
	for len(sc.h) > 0 {
		it := sc.hpop()
		if it.dist > sc.dist[it.v] {
			continue // stale entry
		}
		if it.v == dst {
			break // settled: dist and the pred chain are final
		}
		var ru int8
		if rank != nil {
			ru = rank[it.v]
		}
		for v := 0; v < n; v++ {
			if v == it.v || (rank != nil && rank[v] < ru) {
				continue
			}
			c := cost(it.v, v, 1)
			if math.IsInf(c, 1) {
				continue
			}
			if c < 0 {
				panic("graph: negative edge cost in Dijkstra")
			}
			if nd := it.dist + c; !math.IsInf(nd, 1) && (sc.gen[v] != sc.cur || nd < sc.dist[v]) {
				sc.dist[v] = nd
				sc.pred[v] = it.v
				sc.gen[v] = sc.cur
				sc.hpush(pqItem{v: v, dist: nd})
			}
		}
	}
	if sc.gen[dst] != sc.cur {
		return nil, Inf
	}
	sc.path = sc.path[:0]
	for v := dst; v != -1; v = sc.pred[v] {
		sc.path = append(sc.path, v)
	}
	for i, j := 0, len(sc.path)-1; i < j; i, j = i+1, j-1 {
		sc.path[i], sc.path[j] = sc.path[j], sc.path[i]
	}
	return sc.path, sc.dist[dst]
}

// Reachable returns the set of vertices reachable from src (including
// src) following directed edges.
func (g *Directed) Reachable(src int) []bool {
	g.check(src)
	seen := make([]bool, g.n)
	seen[src] = true
	stack := []int{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if !seen[e.to] {
				seen[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	return seen
}

// InducedSubgraph returns the subgraph induced by keep (vertices with
// keep[v]==true) plus the mapping from new to old vertex indices.
func (g *Directed) InducedSubgraph(keep []bool) (*Directed, []int) {
	if len(keep) != g.n {
		panic("graph: keep mask length mismatch")
	}
	var toOld []int
	toNew := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		if keep[v] {
			toNew[v] = len(toOld)
			toOld = append(toOld, v)
		} else {
			toNew[v] = -1
		}
	}
	sub := NewDirected(len(toOld))
	for _, e := range g.Edges() {
		if keep[e.From] && keep[e.To] {
			sub.AddEdge(toNew[e.From], toNew[e.To], e.Weight)
		}
	}
	return sub, toOld
}
