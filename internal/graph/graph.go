// Package graph provides small, allocation-conscious directed and
// undirected weighted graph types together with the algorithms the
// synthesis flow needs: Dijkstra shortest paths with per-query edge
// costs, over a materialized graph or an implicit dense one, and the
// undirected view min-cut partitioning works on.
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
	return &Directed{n: n, adj: make([][]halfEdge, n)}
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
			return
		}
	}
	g.adj[u] = append(g.adj[u], halfEdge{to: v, w: w})
	g.m++
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

// ShortestPathDense is ShortestPath over an *implicit* dense graph on
// n vertices, on caller-owned scratch state and with an early exit once
// dst is settled: an arc u->v exists for every u != v with rank[u] <=
// rank[v] (nil rank means the complete graph), and cost prices each arc
// (its static-weight argument is always 1). Nothing is materialized, so
// callers with near-complete candidate graphs skip building adjacency
// lists entirely, and nothing is allocated once the scratch buffers
// have grown to n; the returned path slice is owned by the scratch and
// only valid until its next query. Neighbors are visited in ascending
// vertex order — the order AddEdge-built adjacency has when arcs are
// inserted in ascending target order — and the heap replicates
// container/heap, so equal-cost ties resolve identically to
// ShortestPath on the materialized equivalent.
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
