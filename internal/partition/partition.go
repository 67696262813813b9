// Package partition implements balanced min-cut graph partitioning, the
// workhorse of Algorithm 1 step 11: "Perform k min-cut partitions of
// VCG(V,E,j)". Cores in a partition share a switch, so a good min-cut
// keeps heavily-communicating cores on the same switch.
//
// The implementation is a deterministic Fiduccia–Mattheyses (FM) style
// bisection with prefix-rollback, applied recursively for k-way cuts and
// followed by a direct k-way refinement sweep. Graphs in this domain are
// small (tens of cores per island), so clarity is preferred over bucket
// data structures; every pass is O(n^2 · degree) worst case.
package partition

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"nocvi/internal/graph"
)

// Options tunes the partitioner.
type Options struct {
	// MaxPartSize caps the number of vertices per part. Zero means
	// unbounded. KWay returns an error when k*MaxPartSize < n.
	MaxPartSize int
}

// passes bounds the number of FM improvement passes per bisection and
// the number of k-way refinement sweeps.
const passes = 8

// KWay partitions the vertices of g into k non-empty balanced parts
// minimizing the total cut weight. The returned slice maps each vertex to
// its part in [0,k). Part sizes differ by at most one from the ideal
// n/k split before the refinement sweep; refinement preserves the size
// bounds [floor(n/k), ceil(n/k)] unless MaxPartSize forces tighter caps.
func KWay(g *graph.Undirected, k int, opt Options) ([]int, error) {
	return kwayWith(g, k, opt, &kwayScratch{})
}

// kwayScratch pools the working storage of KWay invocations: every
// slice and map the bisection/refinement machinery needs, grown once
// and reused across calls. Each synthesis worker holds one (inside a
// Scratch), so the dozens of engine invocations of a sweep share
// buffers instead of allocating ~7 slices per bisection. One scratch
// must not be used by two goroutines concurrently.
type kwayScratch struct {
	vertices []int
	tmp      []int
	side     []bool
	attract  []float64
	locked   []bool
	d        []float64
	swaps    []swapPair
	gains    []float64
	idxOf    map[int]int
	size     []int
	conn     []float64
}

type swapPair struct{ a, b int }

// grow returns buf with length n, reusing its storage when large
// enough and otherwise growing it by append's amortized rule, so a
// scratch sized one step at a time does not reallocate on every step.
// The contents are unspecified; callers overwrite or clear.
func grow[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// kwayWith is KWay computing through the given scratch. Only the
// returned part slice is freshly allocated (it escapes into caches and
// results); everything else lives in sc.
func kwayWith(g *graph.Undirected, k int, opt Options, sc *kwayScratch) ([]int, error) {
	n := g.N()
	if k <= 0 {
		return nil, fmt.Errorf("partition: k=%d must be positive", k)
	}
	if k > n {
		return nil, fmt.Errorf("partition: k=%d exceeds vertex count %d", k, n)
	}
	if opt.MaxPartSize > 0 && k*opt.MaxPartSize < n {
		return nil, fmt.Errorf("partition: %d parts of at most %d vertices cannot hold %d vertices", k, opt.MaxPartSize, n)
	}
	part := make([]int, n)
	sc.vertices = grow(sc.vertices, n)
	for i := range sc.vertices {
		sc.vertices[i] = i
	}
	sc.tmp = grow(sc.tmp, n)
	if sc.idxOf == nil {
		sc.idxOf = make(map[int]int, n)
	}
	recursiveBisect(g, sc.vertices, k, 0, part, sc, sc.tmp)
	refineKWay(g, part, k, opt, sc)
	return part, nil
}

// recursiveBisect splits vertices into k parts labelled base..base+k-1,
// writing assignments into part. vertices is permuted in place (side A
// becomes a prefix, side B a suffix, both keeping their relative
// order), with tmp — parallel to vertices — as the shuttle buffer.
func recursiveBisect(g *graph.Undirected, vertices []int, k, base int, part []int, sc *kwayScratch, tmp []int) {
	if k == 1 {
		for _, v := range vertices {
			part[v] = base
		}
		return
	}
	kA := k / 2
	kB := k - kA
	// Target size of side A proportional to its share of parts.
	sizeA := len(vertices) * kA / k
	if sizeA < kA {
		sizeA = kA // each part needs at least one vertex
	}
	if len(vertices)-sizeA < kB {
		sizeA = len(vertices) - kB
	}
	sideA := bisect(g, vertices, sizeA, sc)
	// Stable in-place split: A-group to tmp's prefix in vertices order,
	// B-group to its suffix in reverse, then copy back un-reversed.
	na, nb := 0, 0
	for i, v := range vertices {
		if sideA[i] {
			tmp[na] = v
			na++
		} else {
			nb++
			tmp[len(vertices)-nb] = v
		}
	}
	copy(vertices[:na], tmp[:na])
	for i := 0; i < nb; i++ {
		vertices[na+i] = tmp[len(vertices)-1-i]
	}
	recursiveBisect(g, vertices[:na], kA, base, part, sc, tmp[:na])
	recursiveBisect(g, vertices[na:], kB, base+kA, part, sc, tmp[na:])
}

// bisect splits the given vertex subset into side A (true) of exactly
// sizeA vertices and side B, minimizing the cut between them within g.
// The result is indexed parallel to vertices; it lives in sc.side and
// is only valid until the next bisect call on the same scratch.
func bisect(g *graph.Undirected, vertices []int, sizeA int, sc *kwayScratch) []bool {
	n := len(vertices)
	sc.side = grow(sc.side, n)
	side := sc.side
	for i := range side {
		side[i] = false
	}
	if sizeA <= 0 {
		return side
	}
	if sizeA >= n {
		for i := range side {
			side[i] = true
		}
		return side
	}
	idxOf := sc.idxOf // graph vertex -> local index
	clear(idxOf)
	for i, v := range vertices {
		idxOf[v] = i
	}

	// Initial solution: grow side A greedily from the vertex with the
	// highest weighted degree inside the subset, always absorbing the
	// outside vertex with the strongest connection to A (deterministic
	// tie-break on vertex id). This seeds FM close to a good cut.
	seed := 0
	best := -1.0
	for i, v := range vertices {
		var wd float64
		g.Neighbors(v, func(u int, w float64) {
			if _, ok := idxOf[u]; ok {
				wd += w
			}
		})
		if wd > best || (wd == best && vertices[i] < vertices[seed]) { //noclint:ignore floateq exact tie-break on weighted degree keeps seed selection deterministic
			best = wd
			seed = i
		}
	}
	side[seed] = true
	sc.attract = grow(sc.attract, n)
	attract := sc.attract // connection weight to current A
	for i, v := range vertices {
		if i == seed {
			continue
		}
		attract[i] = weightBetween(g, v, vertices[seed])
	}
	for count := 1; count < sizeA; count++ {
		pick := -1
		bestW := -1.0
		for i := range vertices {
			if side[i] {
				continue
			}
			if attract[i] > bestW || (attract[i] == bestW && pick >= 0 && vertices[i] < vertices[pick]) { //noclint:ignore floateq exact tie-break on attraction keeps growth order deterministic
				bestW = attract[i]
				pick = i
			}
		}
		side[pick] = true
		for i, v := range vertices {
			if !side[i] {
				attract[i] += weightBetween(g, v, vertices[pick])
			}
		}
	}

	// FM passes with exact balance: each pass performs tentative swaps
	// (one A->B and one B->A move per step keeps sizes constant), then
	// rolls back to the best prefix.
	for pass := 0; pass < passes; pass++ {
		if !fmSwapPass(g, vertices, idxOf, side, sc) {
			break
		}
	}
	return side
}

// weightBetween returns the undirected edge weight between graph
// vertices a and b.
func weightBetween(g *graph.Undirected, a, b int) float64 {
	return g.Weight(a, b)
}

// fmSwapPass performs one Kernighan–Lin style pass of best-gain vertex
// swaps with rollback to the best prefix. It reports whether the pass
// strictly improved the cut.
func fmSwapPass(g *graph.Undirected, vertices []int, idxOf map[int]int, side []bool, sc *kwayScratch) bool {
	n := len(vertices)
	sc.locked = grow(sc.locked, n)
	locked := sc.locked
	for i := range locked {
		locked[i] = false
	}
	swaps := sc.swaps[:0]
	gains := sc.gains[:0]
	defer func() { sc.swaps, sc.gains = swaps[:0], gains[:0] }()

	// d[i] = external - internal connection weight of vertex i under the
	// current side assignment (classic KL D-values, subset-local).
	sc.d = grow(sc.d, n)
	d := sc.d
	recompute := func() {
		for i, v := range vertices {
			var ext, int_ float64
			g.Neighbors(v, func(u int, w float64) {
				j, ok := idxOf[u]
				if !ok {
					return
				}
				if side[j] == side[i] {
					int_ += w
				} else {
					ext += w
				}
			})
			d[i] = ext - int_
		}
	}
	recompute()

	steps := n / 2
	for s := 0; s < steps; s++ {
		bestGain := math.Inf(-1)
		bi, bj := -1, -1
		for i := 0; i < n; i++ {
			if locked[i] || !side[i] {
				continue
			}
			for j := 0; j < n; j++ {
				if locked[j] || side[j] {
					continue
				}
				gain := d[i] + d[j] - 2*weightBetween(g, vertices[i], vertices[j])
				if gain > bestGain || //noclint:ignore floateq exact tie-break on KL gain keeps swap selection deterministic
					(gain == bestGain && (bi == -1 || vertices[i] < vertices[bi] || (vertices[i] == vertices[bi] && vertices[j] < vertices[bj]))) {
					bestGain = gain
					bi, bj = i, j
				}
			}
		}
		if bi == -1 {
			break
		}
		side[bi], side[bj] = false, true
		locked[bi], locked[bj] = true, true
		swaps = append(swaps, swapPair{bi, bj})
		gains = append(gains, bestGain)
		recompute()
	}

	// Best prefix of cumulative gains.
	bestSum, bestK := 0.0, 0
	sum := 0.0
	for k, gn := range gains {
		sum += gn
		if sum > bestSum+1e-12 {
			bestSum = sum
			bestK = k + 1
		}
	}
	// Roll back swaps after the best prefix.
	for k := len(swaps) - 1; k >= bestK; k-- {
		side[swaps[k].a], side[swaps[k].b] = true, false
	}
	return bestK > 0
}

// refineKWay sweeps vertices, moving each to the part that most reduces
// the cut while keeping every part within [1, cap] and within balance
// bounds ceil(n/k) (+MaxPartSize if tighter). Deterministic and runs
// passes sweeps at most.
func refineKWay(g *graph.Undirected, part []int, k int, opt Options, sc *kwayScratch) {
	n := len(part)
	if k <= 1 {
		return
	}
	maxSize := (n + k - 1) / k
	if opt.MaxPartSize > 0 && opt.MaxPartSize < maxSize {
		maxSize = opt.MaxPartSize
	}
	if maxSize < 1 {
		maxSize = 1
	}
	sc.size = grow(sc.size, k)
	size := sc.size
	for i := range size {
		size[i] = 0
	}
	for _, p := range part {
		size[p]++
	}
	sc.conn = grow(sc.conn, k)
	conn := sc.conn
	for pass := 0; pass < passes; pass++ {
		improved := false
		for v := 0; v < n; v++ {
			cur := part[v]
			if size[cur] <= 1 {
				continue // never empty a part
			}
			for p := range conn {
				conn[p] = 0
			}
			g.Neighbors(v, func(u int, w float64) {
				conn[part[u]] += w
			})
			bestP, bestGain := cur, 0.0
			for p := 0; p < k; p++ {
				if p == cur || size[p] >= maxSize {
					continue
				}
				gain := conn[p] - conn[cur]
				if gain > bestGain+1e-12 || (gain > bestGain-1e-12 && gain > 0 && p < bestP && bestP != cur) {
					bestGain = gain
					bestP = p
				}
			}
			if bestP != cur {
				size[cur]--
				size[bestP]++
				part[v] = bestP
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

// Sizes returns the size of each of the k parts.
func Sizes(part []int, k int) []int {
	size := make([]int, k)
	for _, p := range part {
		if p < 0 || p >= k {
			panic(fmt.Sprintf("partition: part id %d out of range [0,%d)", p, k))
		}
		size[p]++
	}
	return size
}

// CutWeight returns the total weight of edges of g crossing parts.
func CutWeight(g *graph.Undirected, part []int) float64 {
	var cut float64
	for v := 0; v < g.N(); v++ {
		g.Neighbors(v, func(u int, w float64) {
			if v < u && part[v] != part[u] {
				cut += w
			}
		})
	}
	return cut
}

// Canonical relabels parts so that part IDs appear in ascending order of
// their smallest member vertex, which makes results comparable across
// algorithm variants in tests.
func Canonical(part []int, k int) []int {
	first := make([]int, k)
	for i := range first {
		first[i] = math.MaxInt32
	}
	for v, p := range part {
		if v < first[p] {
			first[p] = v
		}
	}
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return first[order[a]] < first[order[b]] })
	relabel := make([]int, k)
	for newID, oldID := range order {
		relabel[oldID] = newID
	}
	out := make([]int, len(part))
	for v, p := range part {
		out[v] = relabel[p]
	}
	return out
}
