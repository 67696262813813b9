package partition

import (
	"sync"

	"nocvi/internal/graph"
)

// Engine is a k-way partitioning function (KWay or SpectralKWay).
type Engine func(g *graph.Undirected, k int, opt Options) ([]int, error)

// Cache memoizes k-way partitions of one fixed graph under fixed
// options and a fixed engine, keyed by the part count k, so repeated
// lookups of one k cost a map probe.
//
// Results are canonicalized (see Canonical) and must be treated as
// read-only by callers: the same slice is handed out on every hit.
// Cache is safe for concurrent use; a miss computes under the cache's
// mutex. The synthesis sweep does not go through a Cache: its
// partition table memoizes each (island, k) cut itself and computes
// through a per-worker Scratch.
type Cache struct {
	g      *graph.Undirected
	engine Engine
	opt    Options

	mu  sync.Mutex
	byK map[int]cacheEntry
}

type cacheEntry struct {
	part []int
	err  error
}

// NewCache wraps the engine over a fixed graph and option set. A nil
// engine selects KWay.
func NewCache(g *graph.Undirected, engine Engine, opt Options) *Cache {
	if engine == nil {
		engine = KWay
	}
	return &Cache{g: g, engine: engine, opt: opt, byK: make(map[int]cacheEntry)}
}

// Partition returns the canonical k-way partition of the cached graph,
// computing it on first use. Errors are memoized too: an infeasible k
// (e.g. k*MaxPartSize < n) fails once and every later lookup returns
// the same error without re-running the engine.
func (c *Cache) Partition(k int) ([]int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byK[k]; ok {
		return e.part, e.err
	}
	part, err := c.engine(c.g, k, c.opt)
	if err == nil {
		part = Canonical(part, k)
	}
	c.byK[k] = cacheEntry{part: part, err: err}
	return part, err
}

// Scratch is caller-owned working storage for the built-in FM engine:
// its buffers, grown on first use and reused across calls. One Scratch
// must not be used by two goroutines concurrently; distinct goroutines
// holding distinct Scratches partition concurrently with no shared
// state. A zero Scratch is ready to use.
type Scratch struct {
	kway kwayScratch
}

// KWay is the package-level KWay computing through sc, returning the
// canonical cut (see Canonical). Scratch contents never influence the
// output, so the result is bit-identical to a fresh computation.
func (sc *Scratch) KWay(g *graph.Undirected, k int, opt Options) ([]int, error) {
	part, err := kwayWith(g, k, opt, &sc.kway)
	if err != nil {
		return nil, err
	}
	return Canonical(part, k), nil
}
