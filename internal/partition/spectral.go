package partition

import (
	"fmt"
	"math"

	"nocvi/internal/graph"
)

// SpectralKWay partitions g into k balanced parts by recursive spectral
// bisection: each split sorts the vertices along the Fiedler vector
// (the eigenvector of the graph Laplacian's second-smallest eigenvalue)
// and cuts at the balance point, then the same k-way refinement pass as
// KWay polishes the result. It obeys the same contract as KWay and is
// provided as an alternative engine — spectral cuts see global graph
// structure that the greedy-growth seeding of FM can miss, at the cost
// of more arithmetic.
func SpectralKWay(g *graph.Undirected, k int, opt Options) ([]int, error) {
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
	vertices := make([]int, n)
	for i := range vertices {
		vertices[i] = i
	}
	sc := &kwayScratch{}
	spectralRecurse(g, vertices, k, 0, part, sc)
	refineKWay(g, part, k, opt, sc)
	return part, nil
}

func spectralRecurse(g *graph.Undirected, vertices []int, k, base int, part []int, sc *kwayScratch) {
	if k == 1 {
		for _, v := range vertices {
			part[v] = base
		}
		return
	}
	kA := k / 2
	kB := k - kA
	sizeA := len(vertices) * kA / k
	if sizeA < kA {
		sizeA = kA
	}
	if len(vertices)-sizeA < kB {
		sizeA = len(vertices) - kB
	}
	fiedler := fiedlerVector(g, vertices)
	// Order vertices by their Fiedler coordinate (ties by vertex ID for
	// determinism) and take the sizeA smallest as side A.
	idx := make([]int, len(vertices))
	for i := range idx {
		idx[i] = i
	}
	sortByKey(idx, func(a, b int) bool {
		if fiedler[a] != fiedler[b] { //noclint:ignore floateq exact sort tie-break on the Fiedler vector; epsilon would break transitivity
			return fiedler[a] < fiedler[b]
		}
		return vertices[a] < vertices[b]
	})
	var va, vb []int
	for rank, i := range idx {
		if rank < sizeA {
			va = append(va, vertices[i])
		} else {
			vb = append(vb, vertices[i])
		}
	}
	// One FM polish over the spectral split before recursing.
	side := make([]bool, len(vertices))
	idxOf := make(map[int]int, len(vertices))
	for i, v := range vertices {
		idxOf[v] = i
	}
	for _, v := range va {
		side[idxOf[v]] = true
	}
	for pass := 0; pass < 2; pass++ {
		if !fmSwapPass(g, vertices, idxOf, side, sc) {
			break
		}
	}
	va, vb = va[:0], vb[:0]
	for i, v := range vertices {
		if side[i] {
			va = append(va, v)
		} else {
			vb = append(vb, v)
		}
	}
	spectralRecurse(g, va, kA, base, part, sc)
	spectralRecurse(g, vb, kB, base+kA, part, sc)
}

// fiedlerVector approximates the Fiedler vector of the subgraph induced
// by vertices using power iteration on the shifted Laplacian M = cI − L
// with deflation against the constant vector. Returns one coordinate
// per entry of vertices. Deterministic: fixed start vector, fixed
// iteration count.
func fiedlerVector(g *graph.Undirected, vertices []int) []float64 {
	n := len(vertices)
	idxOf := make(map[int]int, n)
	for i, v := range vertices {
		idxOf[v] = i
	}
	// Local weighted degrees and the shift constant.
	deg := make([]float64, n)
	for i, v := range vertices {
		g.Neighbors(v, func(u int, w float64) {
			if _, ok := idxOf[u]; ok {
				deg[i] += w
			}
		})
	}
	c := 1.0
	for _, d := range deg {
		if 2*d > c {
			c = 2 * d
		}
	}
	// Deterministic start vector orthogonal-ish to 1.
	x := make([]float64, n)
	s := uint64(0x853c49e6748fea9b)
	for i := range x {
		s = s*6364136223846793005 + 1442695040888963407
		x[i] = float64(s>>40)/float64(1<<24) - 0.5
	}
	y := make([]float64, n)
	for iter := 0; iter < 120; iter++ {
		// Deflate the constant vector (the trivial eigenvector).
		var mean float64
		for _, xi := range x {
			mean += xi
		}
		mean /= float64(n)
		for i := range x {
			x[i] -= mean
		}
		// y = (cI - L) x = c·x - deg_i·x_i + Σ_j w_ij·x_j
		for i := range y {
			y[i] = (c - deg[i]) * x[i]
		}
		for i, v := range vertices {
			g.Neighbors(v, func(u int, w float64) {
				if j, ok := idxOf[u]; ok {
					y[i] += w * x[j]
				}
			})
		}
		// Normalize.
		var norm float64
		for _, yi := range y {
			norm += yi * yi
		}
		norm = math.Sqrt(norm)
		if norm < 1e-30 {
			// Degenerate (e.g. empty graph): fall back to index order.
			for i := range x {
				x[i] = float64(i)
			}
			break
		}
		for i := range x {
			x[i] = y[i] / norm
		}
	}
	return x
}

// sortByKey is a tiny deterministic insertion sort (n is small; avoids
// importing sort with a closure allocation in the hot recursion).
func sortByKey(idx []int, less func(a, b int) bool) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && less(idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}
