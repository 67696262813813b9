package graph

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDirectedBasics(t *testing.T) {
	g := NewDirected(4)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 2, 3)
	g.AddEdge(0, 1, 1) // accumulates
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("N=%d M=%d", g.N(), g.M())
	}
	if w := g.Weight(0, 1); w != 3 {
		t.Fatalf("Weight(0,1)=%g, want accumulated 3", w)
	}
	if w := g.Weight(2, 3); w != 0 {
		t.Fatalf("absent edge weight = %g", w)
	}
	var succ []int
	g.Succ(0, func(v int, w float64) { succ = append(succ, v) })
	if len(succ) != 1 || succ[0] != 1 {
		t.Fatal("Succ iteration wrong")
	}
}

func TestDirectedPanics(t *testing.T) {
	g := NewDirected(2)
	mustPanic(t, func() { g.AddEdge(0, 0, 1) })
	mustPanic(t, func() { g.AddEdge(0, 5, 1) })
	mustPanic(t, func() { g.Weight(-1, 0) })
	mustPanic(t, func() { NewDirected(-1) })
	mustPanic(t, func() { NewUndirected(-1) })
	u := NewUndirected(2)
	mustPanic(t, func() { u.AddEdge(1, 1, 1) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestEdgesDeterministic(t *testing.T) {
	g := NewDirected(3)
	g.AddEdge(2, 0, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(0, 1, 1)
	e := g.Edges()
	if len(e) != 3 || e[0].From != 0 || e[0].To != 2 || e[1].To != 1 || e[2].From != 2 {
		t.Fatalf("edge order not (source, insertion): %+v", e)
	}
}

func TestUndirect(t *testing.T) {
	g := NewDirected(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(1, 0, 3)
	g.AddEdge(1, 2, 5)
	u := g.Undirect()
	if u.M() != 2 {
		t.Fatalf("undirected M=%d", u.M())
	}
	if w := u.Weight(0, 1); w != 5 {
		t.Fatalf("merged weight = %g, want 5", w)
	}
	var nbrs []int
	u.Neighbors(1, func(v int, w float64) { nbrs = append(nbrs, v) })
	if len(nbrs) != 2 || u.Weight(1, 2) != 5 {
		t.Fatalf("undirected neighbors of 1 = %v", nbrs)
	}
}

func TestDijkstraStatic(t *testing.T) {
	g := NewDirected(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 5)
	g.AddEdge(2, 3, 1)
	dist, pred := g.Dijkstra(0, nil)
	if dist[2] != 2 || pred[2] != 1 {
		t.Fatalf("dist[2]=%g pred=%d", dist[2], pred[2])
	}
	if dist[3] != 3 {
		t.Fatalf("dist[3]=%g", dist[3])
	}
	if !math.IsInf(dist[4], 1) || pred[4] != -1 {
		t.Fatal("unreachable vertex not Inf")
	}
}

func TestDijkstraDynamicCost(t *testing.T) {
	g := NewDirected(3)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(0, 2, 1)
	// forbid the direct edge
	cost := func(u, v int, w float64) float64 {
		if u == 0 && v == 2 {
			return Inf
		}
		return w
	}
	path, c := g.ShortestPath(0, 2, cost)
	if c != 2 || len(path) != 3 || path[1] != 1 {
		t.Fatalf("path=%v cost=%g", path, c)
	}
}

func TestDijkstraNegativePanics(t *testing.T) {
	g := NewDirected(2)
	g.AddEdge(0, 1, -1)
	mustPanic(t, func() { g.Dijkstra(0, nil) })
}

func TestShortestPathUnreachable(t *testing.T) {
	g := NewDirected(3)
	g.AddEdge(0, 1, 1)
	p, c := g.ShortestPath(0, 2, nil)
	if p != nil || !math.IsInf(c, 1) {
		t.Fatalf("unreachable: path=%v cost=%g", p, c)
	}
	// src == dst
	p, c = g.ShortestPath(1, 1, nil)
	if len(p) != 1 || p[0] != 1 || c != 0 {
		t.Fatalf("trivial path=%v cost=%g", p, c)
	}
}

// Property: Dijkstra distances satisfy the triangle inequality over every
// edge: dist[v] <= dist[u] + w(u,v).
func TestDijkstraRelaxationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := newLCG(seed)
		n := 2 + int(r.next()%14)
		g := NewDirected(n)
		edges := n * 2
		for i := 0; i < edges; i++ {
			u := int(r.next() % uint64(n))
			v := int(r.next() % uint64(n))
			if u == v {
				continue
			}
			g.AddEdge(u, v, float64(r.next()%1000)/10+0.1)
		}
		dist, _ := g.Dijkstra(0, nil)
		for _, e := range g.Edges() {
			if !math.IsInf(dist[e.From], 1) && dist[e.To] > dist[e.From]+e.Weight+1e-9 {
				return false
			}
		}
		// distances also reconstructible: dist[0] == 0
		return dist[0] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// lcg is a tiny deterministic generator for property tests (avoids
// math/rand seeding boilerplate and keeps tests reproducible).
type lcg struct{ s uint64 }

func newLCG(seed int64) *lcg { return &lcg{s: uint64(seed)*2862933555777941757 + 3037000493} }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s >> 11
}

// denseCost is a deterministic per-arc price for the dense-graph
// tests: small integers force plenty of equal-cost ties, and about one
// arc in seven is excluded (+Inf).
func denseCost(seed int64) CostFunc {
	return func(u, v int, w float64) float64 {
		h := newLCG(seed ^ int64(u*131+v)).next()
		if h%7 == 0 {
			return Inf
		}
		return float64(h%5) + w
	}
}

// TestShortestPathScratchMatches is the identity property behind the
// router's scratch Dijkstra: on random rank filters and arc prices,
// (*Scratch).ShortestPathDense must return exactly the path and cost of
// ShortestPath on the materialized equivalent — every arc u->v with
// rank[u] <= rank[v], inserted with AddEdge in ascending target order —
// for every (src, dst) pair, with one Scratch reused across all queries.
func TestShortestPathScratchMatches(t *testing.T) {
	var sc Scratch
	f := func(seed int64) bool {
		r := newLCG(seed)
		n := 2 + int(r.next()%12)
		var rank []int8
		if r.next()%4 != 0 {
			rank = make([]int8, n)
			for v := range rank {
				rank[v] = int8(r.next() % 3)
			}
		}
		g := NewDirected(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && (rank == nil || rank[u] <= rank[v]) {
					g.AddEdge(u, v, 1)
				}
			}
		}
		cost := denseCost(seed)
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				wantPath, wantCost := g.ShortestPath(src, dst, cost)
				gotPath, gotCost := sc.ShortestPathDense(n, rank, src, dst, cost)
				if wantCost != gotCost {
					t.Logf("seed %d %d->%d: cost %g vs %g", seed, src, dst, wantCost, gotCost)
					return false
				}
				if len(wantPath) != len(gotPath) {
					t.Logf("seed %d %d->%d: path %v vs %v", seed, src, dst, wantPath, gotPath)
					return false
				}
				for i := range wantPath {
					if wantPath[i] != gotPath[i] {
						t.Logf("seed %d %d->%d: path %v vs %v", seed, src, dst, wantPath, gotPath)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestShortestPathScratchCostFunc covers the per-query cost closure and
// the rank filter: arcs priced to +Inf are excluded, exactly as in
// ShortestPath, and no arc leads to a lower rank.
func TestShortestPathScratchCostFunc(t *testing.T) {
	// Arcs 0->1->3 cost 1 each, 0->2->3 cost 1+5; 0->1 is blocked.
	price := map[[2]int]float64{{0, 1}: 1, {1, 3}: 1, {0, 2}: 1, {2, 3}: 5}
	block := func(u, v int, w float64) float64 {
		if c, ok := price[[2]int{u, v}]; ok && !(u == 0 && v == 1) {
			return c
		}
		return Inf
	}
	var sc Scratch
	path, cost := sc.ShortestPathDense(4, nil, 0, 3, block)
	if cost != 6 || len(path) != 3 || path[1] != 2 {
		t.Fatalf("blocked query returned %v cost %g", path, cost)
	}
	// Unreachable when every arc is blocked.
	if p, c := sc.ShortestPathDense(4, nil, 0, 3, func(int, int, float64) float64 { return Inf }); p != nil || !math.IsInf(c, 1) {
		t.Fatalf("fully blocked query returned %v cost %g", p, c)
	}
	// Vertex 2 ranks below 0, so the only remaining route is cut off.
	if p, c := sc.ShortestPathDense(4, []int8{1, 1, 0, 1}, 0, 3, block); p != nil || !math.IsInf(c, 1) {
		t.Fatalf("rank-filtered query returned %v cost %g", p, c)
	}
}

// chain prices the arcs of the path 0->1->...->n-1 at 1 and excludes
// every other arc of the dense graph.
func chain(u, v int, w float64) float64 {
	if v == u+1 {
		return w
	}
	return Inf
}

// TestScratchGenerationWrap forces the uint32 generation counter to
// wrap and checks stale labels from the previous epoch are not reused.
func TestScratchGenerationWrap(t *testing.T) {
	var sc Scratch
	if _, c := sc.ShortestPathDense(3, nil, 0, 2, chain); c != 2 {
		t.Fatalf("cost %g before wrap", c)
	}
	sc.cur = ^uint32(0) // next begin() wraps to 0 and must hard-reset
	if p, c := sc.ShortestPathDense(3, nil, 0, 2, chain); c != 2 || len(p) != 3 {
		t.Fatalf("after wrap: path %v cost %g", p, c)
	}
	if sc.cur != 1 {
		t.Fatalf("generation after wrap = %d, want 1", sc.cur)
	}
}

// TestScratchGrowsAcrossGraphs reuses one scratch across graphs of
// different sizes, in both directions.
func TestScratchGrowsAcrossGraphs(t *testing.T) {
	var sc Scratch
	for _, n := range []int{3, 17, 5, 40, 2} {
		p, c := sc.ShortestPathDense(n, nil, 0, n-1, chain)
		if c != float64(n-1) || len(p) != n {
			t.Fatalf("n=%d: cost %g len %d", n, c, len(p))
		}
	}
}
