package partition

import (
	"fmt"
	"sync"
	"testing"

	"nocvi/internal/graph"
)

func cacheTestGraph() *graph.Undirected {
	g := graph.NewUndirected(12)
	s := uint64(7)
	for i := 0; i < 40; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		u := int((s >> 33) % 12)
		v := int((s >> 13) % 12)
		if u != v {
			g.AddEdge(u, v, float64(s%50)+1)
		}
	}
	return g
}

func TestCacheMatchesDirectKWay(t *testing.T) {
	g := cacheTestGraph()
	c := NewCache(g, nil, Options{})
	var sc Scratch
	for k := 1; k <= 6; k++ {
		direct, err := KWay(g, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprint(Canonical(direct, k))
		first, err := c.Partition(k)
		if err != nil {
			t.Fatal(err)
		}
		again, err := c.Partition(k) // must hit the cache
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(first) != want || &again[0] != &first[0] {
			t.Fatalf("k=%d: %v then %v, want %v handed out twice", k, first, again, want)
		}
		// The scratch path returns the same canonical cut.
		scratched, err := sc.KWay(g, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(scratched) != want {
			t.Fatalf("k=%d: Scratch.KWay %v, want %v", k, scratched, want)
		}
	}
}

func TestCacheMemoizesErrors(t *testing.T) {
	calls := 0
	counting := func(g *graph.Undirected, k int, opt Options) ([]int, error) {
		calls++
		return KWay(g, k, opt)
	}
	c := NewCache(cacheTestGraph(), counting, Options{MaxPartSize: 2})
	for pass := 0; pass < 2; pass++ {
		if _, err := c.Partition(3); err == nil { // 3*2 < 12 vertices
			t.Fatal("infeasible k accepted")
		}
	}
	if _, err := c.Partition(6); err != nil { // 6*2 == 12: feasible
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("expected 2 engine calls (one error, one partition), got %d", calls)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	g := cacheTestGraph()
	c := NewCache(g, SpectralKWay, Options{})
	want := make([]string, 7)
	for k := 1; k <= 6; k++ {
		p, err := SpectralKWay(g, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[k] = fmt.Sprint(Canonical(p, k))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 60)
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k <= 6; k++ {
				got, err := c.Partition(k)
				if err != nil {
					errs <- err
					return
				}
				if fmt.Sprint(got) != want[k] {
					errs <- fmt.Errorf("k=%d: %v, want %v", k, got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
