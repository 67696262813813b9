// Equivalence proof for the scratch-backed deadlock check: the CSR
// channel dependency graph and its worker-owned DFS must report
// exactly what the graph-based checker it replaced reported — the same
// Channels and Dependencies and the same Cycle witness, link for link —
// on every bundled benchmark's and random SoCs' synthesized designs and
// on random route sets with injected cycles. refAnalyze below is a
// frozen copy of that checker: a graph.Directed built pair by pair
// behind a seen map, then an iterative three-colour DFS.
package deadlock_test

import (
	"fmt"
	"reflect"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/deadlock"
	"nocvi/internal/graph"
	"nocvi/internal/model"
	"nocvi/internal/specgen"
	"nocvi/internal/topology"
)

// refAnalyze is the graph-based checker, frozen. Do not "improve" it:
// its value is that it builds and searches the CDG the way the original
// code did.
func refAnalyze(top *topology.Topology) *deadlock.Report {
	n := len(top.Links)
	cdg := graph.NewDirected(n)
	deps := 0
	seen := make(map[[2]topology.LinkID]bool)
	for ri := range top.Routes {
		r := &top.Routes[ri]
		for i := 1; i < len(r.Links); i++ {
			key := [2]topology.LinkID{r.Links[i-1], r.Links[i]}
			if seen[key] {
				continue
			}
			seen[key] = true
			cdg.AddEdge(int(key[0]), int(key[1]), 1)
			deps++
		}
	}
	rep := &deadlock.Report{Channels: n, Dependencies: deps}
	if has, cyc := refHasCycle(cdg); has {
		rep.Cycle = make([]topology.LinkID, len(cyc))
		for i, v := range cyc {
			rep.Cycle[i] = topology.LinkID(v)
		}
	}
	return rep
}

// refHasCycle is the iterative three-colour DFS the graph package used
// to provide, reading successors in graph.Directed insertion order.
func refHasCycle(g *graph.Directed) (bool, []int) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	adj := make([][]int, g.N())
	for u := range adj {
		g.Succ(u, func(v int, _ float64) { adj[u] = append(adj[u], v) })
	}
	color := make([]int8, g.N())
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = -1
	}
	type frame struct {
		v   int
		idx int
	}
	for s := 0; s < g.N(); s++ {
		if color[s] != white {
			continue
		}
		stack := []frame{{v: s}}
		color[s] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.idx < len(adj[f.v]) {
				u := adj[f.v][f.idx]
				f.idx++
				switch color[u] {
				case white:
					color[u] = gray
					parent[u] = f.v
					stack = append(stack, frame{v: u})
				case gray:
					cycle := []int{u}
					for v := f.v; v != u && v != -1; v = parent[v] {
						cycle = append(cycle, v)
					}
					for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
						cycle[i], cycle[j] = cycle[j], cycle[i]
					}
					cycle = append(cycle, u)
					return true, cycle
				}
			} else {
				color[f.v] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return false, nil
}

// compareReports checks the fresh-scratch and shared-scratch analyses
// and CheckWith's verdict against the frozen reference.
func compareReports(t *testing.T, label string, top *topology.Topology, shared *deadlock.Scratch) {
	t.Helper()
	want := refAnalyze(top)
	if got := deadlock.Analyze(top); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Analyze differs:\n  got  %+v\n  want %+v", label, got, want)
	}
	if got := deadlock.AnalyzeWith(top, shared); !reflect.DeepEqual(&got, want) {
		t.Fatalf("%s: reused-scratch analysis differs:\n  got  %+v\n  want %+v", label, got, *want)
	}
	err := deadlock.CheckWith(top, shared)
	if want.Free() != (err == nil) {
		t.Fatalf("%s: CheckWith returned %v for report %v", label, err, want)
	}
	if err != nil && err.Error() != fmt.Errorf("deadlock: %s", want).Error() {
		t.Fatalf("%s: CheckWith message %q", label, err)
	}
}

// compareSynthesized compares every design point of a synthesis run.
func compareSynthesized(t *testing.T, label string, res *core.Result, shared *deadlock.Scratch) {
	t.Helper()
	if len(res.Points) == 0 {
		t.Fatalf("%s: no design points", label)
	}
	for i := range res.Points {
		compareReports(t, fmt.Sprintf("%s/point %d", label, i), res.Points[i].Top, shared)
	}
}

func TestDeadlockEquivalenceSuite(t *testing.T) {
	lib := model.Default65nm()
	var shared deadlock.Scratch
	for _, name := range bench.Names() {
		spec, err := bench.Islanded(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Synthesize(spec, lib, core.Options{AllowIntermediate: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compareSynthesized(t, name, res, &shared)
	}
}

func TestDeadlockEquivalenceSpecgen(t *testing.T) {
	lib := model.Default65nm()
	var shared deadlock.Scratch
	for seed := int64(1); seed <= 12; seed++ {
		spec := specgen.Random(seed, specgen.Options{
			MaxCores:   10 + int(seed%3)*12, // 10, 22, 34
			MaxIslands: 2 + int(seed%5),     // 2..6
		})
		res, err := core.Synthesize(spec, lib, core.Options{AllowIntermediate: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		compareSynthesized(t, fmt.Sprintf("seed=%d", seed), res, &shared)
	}
}

// TestDeadlockEquivalenceRandomRoutes drives bare topologies whose
// routes are random link walks — repeated pairs, long chains, links no
// route uses — with cycles injected into half of them, through one
// Scratch whose size grows and shrinks from case to case.
func TestDeadlockEquivalenceRandomRoutes(t *testing.T) {
	var shared deadlock.Scratch
	cyclic := 0
	for seed := uint64(1); seed <= 300; seed++ {
		r := seed * 0x9e3779b97f4a7c15
		next := func(n int) int {
			r = r*6364136223846793005 + 1442695040888963407
			return int((r >> 33) % uint64(n))
		}
		n := 2 + next(40)
		top := &topology.Topology{Links: make([]topology.Link, n)}
		walk := func(length int) []topology.LinkID {
			ls := []topology.LinkID{topology.LinkID(next(n))}
			for len(ls) < length {
				if l := topology.LinkID(next(n)); l != ls[len(ls)-1] {
					ls = append(ls, l)
				}
			}
			return ls
		}
		for i, routes := 0, 1+next(3*n); i < routes; i++ {
			top.Routes = append(top.Routes, topology.Route{Links: walk(1 + next(6))})
		}
		if seed%2 == 0 {
			// Inject a cycle through k distinct links, split across
			// routes that each carry one or two of its dependencies,
			// at random positions among the existing routes.
			k := 2 + next(min(n-1, 5))
			ring := make([]topology.LinkID, 0, k)
			for len(ring) < k {
				l := topology.LinkID(next(n))
				dup := false
				for _, x := range ring {
					dup = dup || x == l
				}
				if !dup {
					ring = append(ring, l)
				}
			}
			for i := 0; i < k; {
				step := 1 + next(2)
				ls := []topology.LinkID{ring[i]}
				for s := 1; s <= step && i+s <= k; s++ {
					ls = append(ls, ring[(i+s)%k])
				}
				i += len(ls) - 1
				at := next(len(top.Routes) + 1)
				top.Routes = append(top.Routes[:at], append([]topology.Route{{Links: ls}}, top.Routes[at:]...)...)
			}
		}
		if !refAnalyze(top).Free() {
			cyclic++
		}
		compareReports(t, fmt.Sprintf("seed=%d/links=%d/routes=%d", seed, n, len(top.Routes)), top, &shared)
	}
	if cyclic < 150 {
		t.Fatalf("only %d of 300 route sets were cyclic; the injected cycles are not reaching the check", cyclic)
	}
}

// TestSelfLoopPanicsLikeReference pins the remaining contract: a route
// that repeats a link is a programming error both checkers refuse.
func TestSelfLoopPanicsLikeReference(t *testing.T) {
	top := &topology.Topology{
		Links:  make([]topology.Link, 3),
		Routes: []topology.Route{{Links: []topology.LinkID{0, 1}}, {Links: []topology.LinkID{2, 2}}},
	}
	for name, analyze := range map[string]func(){
		"reference": func() { refAnalyze(top) },
		"scratch":   func() { deadlock.Analyze(top) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s checker accepted a self loop", name)
				}
			}()
			analyze()
		}()
	}
}
