package partition

import (
	"sync"

	"nocvi/internal/graph"
)

// Engine is a k-way partitioning function (KWay or SpectralKWay).
type Engine func(g *graph.Undirected, k int, opt Options) ([]int, error)

// Cache memoizes k-way partitions of one fixed graph under fixed
// options and a fixed engine, keyed by the part count k. The synthesis
// sweep re-partitions the same island VCG for every intermediate-switch
// value and for every counts-vector that assigns the island the same
// switch count; the cache collapses those repeats into one computation.
//
// Results are canonicalized (see Canonical) and must be treated as
// read-only by callers: the same slice is handed out on every hit.
// Cache is safe for concurrent use. Both engines are deterministic, so
// a cached result is bit-identical to a fresh computation and
// duplicated work between racing goroutines is harmless — the first
// stored result wins and all callers observe it.
//
// Concurrent misses: Partition computes through a cache-held scratch
// guarded by one mutex, which serializes every compute through the
// cache — fine for occasional use, a contention collapse when many
// workers miss at once. Parallel sweeps therefore call
// PartitionScratch with a per-worker Scratch, which computes misses
// with no lock held beyond the map probes.
type Cache struct {
	g      *graph.Undirected
	engine Engine
	opt    Options

	mu  sync.Mutex
	byK map[int]cacheEntry

	// misses counts engine invocations (not lookups); see Stats.
	misses int

	// sc pools the built-in engine's working storage across the cache's
	// k values (non-nil only when NewCache was given a nil engine).
	// scMu serializes computes through it; it backs only the
	// scratch-less Partition path — PartitionScratch never touches it.
	scMu sync.Mutex
	sc   *kwayScratch
}

// Scratch is caller-owned working storage for Cache.PartitionScratch:
// the built-in FM engine's buffers, grown on first use and reused
// across calls. One Scratch must not be used by two goroutines
// concurrently; distinct goroutines holding distinct Scratches may
// compute cache misses concurrently without serializing on the cache.
// A zero Scratch is ready to use.
type Scratch struct {
	kway kwayScratch
}

type cacheEntry struct {
	part []int
	err  error
}

// NewCache wraps the engine over a fixed graph and option set. A nil
// engine selects KWay.
func NewCache(g *graph.Undirected, engine Engine, opt Options) *Cache {
	c := &Cache{g: g, engine: engine, opt: opt, byK: make(map[int]cacheEntry)}
	if engine == nil {
		// Built-in KWay runs through a cache-held scratch, so repeated
		// k values amortize the partitioner's working storage.
		c.sc = &kwayScratch{}
	}
	return c
}

// Partition returns the canonical k-way partition of the cached graph,
// computing it on first use. Errors are memoized too: an infeasible k
// (e.g. k*MaxPartSize < n) fails once and every later lookup returns
// the same error without re-running the engine.
func (c *Cache) Partition(k int) ([]int, error) {
	return c.PartitionScratch(k, nil)
}

// PartitionScratch is Partition computing misses through caller-owned
// working storage. A nil sc falls back to the cache-held scratch,
// serialized by its mutex; a per-goroutine sc lets concurrent misses
// on distinct k values proceed in parallel. Either way the stored
// result is bit-identical — the engines are deterministic and scratch
// contents never influence the output — so the first store wins and
// racing duplicates are discarded.
func (c *Cache) PartitionScratch(k int, sc *Scratch) ([]int, error) {
	c.mu.Lock()
	e, ok := c.byK[k]
	c.mu.Unlock()
	if ok {
		return e.part, e.err
	}
	// Compute outside the byK lock; determinism makes a racing
	// duplicate computation identical.
	var part []int
	var err error
	switch {
	case c.engine != nil:
		part, err = c.engine(c.g, k, c.opt)
	case sc != nil:
		part, err = kwayWith(c.g, k, c.opt, &sc.kway)
	default:
		// Scratch-less built-in path: serialize on the cache-held
		// buffers. Occasional callers share one allocation; sweeps that
		// care pass their own scratch above.
		c.scMu.Lock()
		part, err = kwayWith(c.g, k, c.opt, c.sc)
		c.scMu.Unlock()
	}
	if err == nil {
		part = Canonical(part, k)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.byK[k]; ok {
		return prev.part, prev.err
	}
	c.byK[k] = cacheEntry{part: part, err: err}
	c.misses++
	return part, err
}

// Stats reports the number of distinct k values computed so far (cache
// entries, i.e. engine invocations that were stored).
func (c *Cache) Stats() (entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.misses
}
