package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"nocvi/internal/model"
)

// TestRepeatedCallsReuseArenas pins that arenas outlive an engine call:
// from an empty pool, a round of Synthesize and SynthesizeSweep calls —
// two specs, two workers and then one — creates exactly the two arenas
// its widest call needs, and further rounds take every arena from the
// pool and create none. The garbage collector is off so the pool is not
// emptied mid-test, and one P runs the test so every arena handed back
// is visible to the next call's take.
func TestRepeatedCallsReuseArenas(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a random share of what it is given")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	created := 0
	defer func(orig func() any) { arenaPool.New = orig }(arenaPool.New)
	arenaPool.New = func() any {
		created++
		return new(buildContext)
	}
	lib := model.Default65nm()
	d26 := mustIslanded(t, "d26_media")
	round := func() {
		for _, w := range []int{2, 1} {
			if _, err := Synthesize(d26, lib, Options{AllowIntermediate: true, Workers: w}); err != nil {
				t.Fatal(err)
			}
			if _, err := SynthesizeSweep(context.Background(), miniSoC(), lib, Options{Workers: w}, SweepOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for drained := false; !drained; {
		before := created
		arenaPool.Get()
		drained = created > before
	}
	created = 0
	for i := 0; i < 4; i++ {
		round()
		if created != 2 {
			t.Fatalf("after round %d the pool created %d arenas, want 2: one per worker of the widest call, all reused afterwards", i, created)
		}
	}
}

// TestReleasedArenasAreUnbound: handing the arenas back clears each
// one's env, point and prune index, so the pool pins no finished call's
// bounds, partition table or design point, and the env drops them.
func TestReleasedArenasAreUnbound(t *testing.T) {
	env := mustEnv(t, miniSoC(), model.Default65nm(), Options{AllowIntermediate: true, MaxIntermediateSwitches: 2, Workers: 2})
	env.takeArenas(2)
	for w, bc := range env.arenas {
		if bc.env != env {
			t.Fatalf("arena %d is not bound to the call's env", w)
		}
	}
	c := arenaPicks(t, env)[0]
	env.arenas[0].pruneIdx = 7
	if _, err := buildPoint(env.arenas[0], c.counts, c.parts, c.mid); err != nil {
		t.Fatal(err)
	}
	arenas := slices.Clone(env.arenas)
	env.releaseArenas()
	if env.arenas != nil {
		t.Fatal("the env still holds its arenas after handing them back")
	}
	for w, bc := range arenas {
		if bc.env != nil || bc.dp.Top != nil || bc.dp.Placement != nil || bc.pruneIdx != 0 {
			t.Fatalf("arena %d handed back still bound: env %p, point %+v, prune index %d", w, bc.env, bc.dp, bc.pruneIdx)
		}
	}
	if arenas[0].top == nil {
		t.Fatal("the arena handed back dropped the topology it built")
	}
}
