package deadlock

import (
	"testing"
	"testing/quick"

	"nocvi/internal/topology"
)

// walks is a route set given as link walks over n links.
type walks struct {
	n     int
	links [][]topology.LinkID
}

// cdg returns the route set whose channel dependency graph is exactly
// the given edge list: n links and one two-link route per edge. The
// checker reads nothing else, so the witness cases below exercise the
// whole path — CSR build, duplicate drop and DFS — on hand-made graphs.
func cdg(n int, edges ...[2]int) walks {
	w := walks{n: n}
	for _, e := range edges {
		w.links = append(w.links, []topology.LinkID{topology.LinkID(e[0]), topology.LinkID(e[1])})
	}
	return w
}

// analyzeCDG analyzes w with sc.
func analyzeCDG(sc *Scratch, w walks) Report {
	return sc.analyzeWalks(w.n, len(w.links), func(ri int) []topology.LinkID { return w.links[ri] })
}

// hasEdge reports whether u->v is one of the edges.
func hasEdge(edges [][2]int, u, v topology.LinkID) bool {
	for _, e := range edges {
		if topology.LinkID(e[0]) == u && topology.LinkID(e[1]) == v {
			return true
		}
	}
	return false
}

// closedWalk reports whether the witness is a cycle v0, ..., v0 of at
// least two distinct links along existing edges.
func closedWalk(edges [][2]int, cycle []topology.LinkID) bool {
	if len(cycle) < 3 || cycle[0] != cycle[len(cycle)-1] {
		return false
	}
	for i := 1; i < len(cycle); i++ {
		if !hasEdge(edges, cycle[i-1], cycle[i]) {
			return false
		}
	}
	return true
}

// kahnAcyclic is an independent acyclicity oracle: Kahn's topological
// sort consumes every vertex exactly when the graph has no cycle.
func kahnAcyclic(n int, edges [][2]int) bool {
	seen := map[[2]int]bool{}
	indeg := make([]int, n)
	adj := make([][]int, n)
	for _, e := range edges {
		if !seen[e] {
			seen[e] = true
			adj[e[0]] = append(adj[e[0]], e[1])
			indeg[e[1]]++
		}
	}
	var queue []int
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	done := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		done++
		for _, u := range adj[v] {
			if indeg[u]--; indeg[u] == 0 {
				queue = append(queue, u)
			}
		}
	}
	return done == n
}

func TestCycleAcyclic(t *testing.T) {
	edges := [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {0, 1}}
	rep := analyzeCDG(&Scratch{}, cdg(5, edges...))
	if !rep.Free() {
		t.Fatalf("acyclic DAG reported cyclic: %v", rep.Cycle)
	}
	if rep.Channels != 5 || rep.Dependencies != 5 {
		t.Fatalf("duplicate pair counted twice or channels wrong: %+v", rep)
	}
	if !kahnAcyclic(5, edges) {
		t.Fatal("oracle disagrees on the DAG")
	}
}

func TestCycleSimple(t *testing.T) {
	edges := [][2]int{{0, 1}, {1, 2}, {2, 0}, {2, 3}}
	rep := analyzeCDG(&Scratch{}, cdg(4, edges...))
	if rep.Free() {
		t.Fatal("3-cycle not detected")
	}
	if !closedWalk(edges, rep.Cycle) {
		t.Fatalf("witness is not a closed walk along existing edges: %v", rep.Cycle)
	}
	if kahnAcyclic(4, edges) {
		t.Fatal("oracle sorted a cyclic graph")
	}
}

func TestCycleSelfContained(t *testing.T) {
	// Two components, the cycle only in the second.
	rep := analyzeCDG(&Scratch{}, cdg(6, [2]int{0, 1}, [2]int{3, 4}, [2]int{4, 5}, [2]int{5, 3}))
	if rep.Free() {
		t.Fatal("cycle in second component missed")
	}
	for _, v := range rep.Cycle {
		if v < 3 {
			t.Fatalf("witness strays into acyclic component: %v", rep.Cycle)
		}
	}
}

func TestCycleTwoNode(t *testing.T) {
	if rep := analyzeCDG(&Scratch{}, cdg(2, [2]int{0, 1}, [2]int{1, 0})); rep.Free() {
		t.Fatal("2-cycle not detected")
	}
}

func TestCycleEmpty(t *testing.T) {
	rep := analyzeCDG(&Scratch{}, cdg(0))
	if !rep.Free() || rep.Channels != 0 || rep.Dependencies != 0 {
		t.Fatalf("empty CDG: %+v", rep)
	}
}

// Property: on random graphs — one Scratch reused across sizes that
// grow and shrink — a cycle is reported exactly when Kahn's sort fails,
// any witness is a closed walk, and Dependencies counts distinct pairs.
func TestCycleAgreesWithTopo(t *testing.T) {
	var sc Scratch
	f := func(seed int64) bool {
		r := uint64(seed)*6364136223846793005 + 1442695040888963407
		next := func() uint64 {
			r = r*6364136223846793005 + 1442695040888963407
			return r >> 11
		}
		n := 2 + int(next()%12)
		var edges [][2]int
		distinct := map[[2]int]bool{}
		for i := 0; i < n*2; i++ {
			u, v := int(next()%uint64(n)), int(next()%uint64(n))
			if u != v {
				edges = append(edges, [2]int{u, v})
				distinct[[2]int{u, v}] = true
			}
		}
		rep := analyzeCDG(&sc, cdg(n, edges...))
		if rep.Free() != kahnAcyclic(n, edges) || rep.Dependencies != len(distinct) {
			return false
		}
		return rep.Free() || closedWalk(edges, rep.Cycle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
