package core_test

import (
	"context"
	"sync/atomic"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/cache"
	"nocvi/internal/core"
	"nocvi/internal/model"
	"nocvi/internal/viplace"
)

// hitAllocCeiling is what one full hit of BenchmarkSynthesizeCached's
// D26 entry may allocate: the count this test measures, 473 since a
// route holds no link slice and the decoder cuts each topology's link
// table from a shared chunk (497 before, and 522 before the store read
// entries into a pooled buffer and the decoder filled each design point
// in place).
const hitAllocCeiling = 473

// TestFullHitEvaluatesNothing pins the cache's hit path with gates that
// do not depend on CPU speed, on the entry BenchmarkSynthesizeCached
// measures: a full hit evaluates no candidate — the engine's
// evaluation hook never fires, while it fires on the miss that stored
// the entry — and allocates at most hitAllocCeiling times.
func TestFullHitEvaluatesNothing(t *testing.T) {
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		t.Fatal(err)
	}
	lib := model.Default65nm()
	opt := core.Options{AllowIntermediate: true, MaxIntermediateSwitches: 3}
	store, err := cache.Open(t.TempDir(), cache.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var evaluated atomic.Int64
	core.WithEvalHook(t, func([]int, int) { evaluated.Add(1) })
	run := func(want core.CacheStats) {
		res, err := cache.Synthesize(ctx, store, spec, lib, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheStats != want {
			t.Fatalf("cache stats %+v, want %+v", res.CacheStats, want)
		}
	}

	run(core.CacheStats{Misses: 1})
	if evaluated.Load() == 0 {
		t.Fatal("the miss evaluated no candidate: the evaluation hook is not live")
	}
	evaluated.Store(0)
	run(core.CacheStats{Hits: 1})
	if n := evaluated.Load(); n != 0 {
		t.Fatalf("a full hit evaluated %d candidates, want 0", n)
	}

	if core.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	n := testing.AllocsPerRun(20, func() { run(core.CacheStats{Hits: 1}) })
	if n > hitAllocCeiling {
		t.Fatalf("a full hit allocates %v times, want at most %d", n, hitAllocCeiling)
	}
	t.Logf("a full hit allocates %v times (ceiling %d)", n, hitAllocCeiling)
}
