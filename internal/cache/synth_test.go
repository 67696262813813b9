package cache

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/fault"
	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/specgen"
)

// TestSynthesizeCachedIdentityOnSuite is the headline acceptance test:
// for every bundled benchmark SoC, a cold run (nil store), a cache-miss
// run, and a cache-hit run produce byte-identical results — across
// worker counts — and the CacheStats counters report what happened.
func TestSynthesizeCachedIdentityOnSuite(t *testing.T) {
	lib := model.Default65nm()
	ctx := context.Background()
	for _, name := range bench.Names() {
		spec, err := bench.Islanded(name)
		if err != nil {
			t.Fatal(err)
		}
		s := openTest(t, StoreOptions{})
		opt := testOptions()

		cold, err := Synthesize(ctx, nil, spec, lib, opt)
		if err != nil {
			t.Fatalf("%s cold: %v", name, err)
		}
		if cold.CacheStats != (core.CacheStats{}) {
			t.Fatalf("%s: cold run reported cache activity: %+v", name, cold.CacheStats)
		}

		miss, err := Synthesize(ctx, s, spec, lib, opt)
		if err != nil {
			t.Fatalf("%s miss: %v", name, err)
		}
		if miss.CacheStats.Misses != 1 || miss.CacheStats.Hits != 0 {
			t.Fatalf("%s: first cached run stats %+v", name, miss.CacheStats)
		}

		// Hit at a different worker count: Workers is excluded from the
		// options digest, so the entry must still match.
		opt.Workers = 8
		hit, err := Synthesize(ctx, s, spec, lib, opt)
		if err != nil {
			t.Fatalf("%s hit: %v", name, err)
		}
		if hit.CacheStats.Hits != 1 || hit.CacheStats.Misses != 0 {
			t.Fatalf("%s: second cached run stats %+v", name, hit.CacheStats)
		}

		cd, md, hd := ResultDigest(cold), ResultDigest(miss), ResultDigest(hit)
		if cd != md || md != hd {
			t.Fatalf("%s: digests differ: cold %s miss %s hit %s",
				name, cd.Short(), md.Short(), hd.Short())
		}
	}
}

// TestSynthesizeCachedIdentityOnSpecgen extends the identity proof to
// random well-formed SoCs.
func TestSynthesizeCachedIdentityOnSpecgen(t *testing.T) {
	lib := model.Default65nm()
	ctx := context.Background()
	gen := specgen.Options{MaxCores: 12, MaxIslands: 4}
	for seed := int64(1); seed <= 8; seed++ {
		spec := specgen.Random(seed, gen)
		s := openTest(t, StoreOptions{})
		opt := testOptions()
		cold, cerr := Synthesize(ctx, nil, spec, lib, opt)
		miss, merr := Synthesize(ctx, s, spec, lib, opt)
		hit, herr := Synthesize(ctx, s, spec, lib, opt)
		if (cerr == nil) != (merr == nil) || (merr == nil) != (herr == nil) {
			t.Fatalf("seed %d: error divergence: %v / %v / %v", seed, cerr, merr, herr)
		}
		if cerr != nil {
			continue // infeasible spec: nothing cached, nothing to compare
		}
		if ResultDigest(cold) != ResultDigest(miss) || ResultDigest(miss) != ResultDigest(hit) {
			t.Fatalf("seed %d: digests differ", seed)
		}
		if hit.CacheStats.Hits != 1 {
			t.Fatalf("seed %d: expected full hit, got %+v", seed, hit.CacheStats)
		}
	}
}

// editIsland returns a copy of spec with one intra-island flow's
// bandwidth scaled — an edit confined to the given island, leaving
// every other island's VCG digest unchanged (as long as the scaled
// flow does not set the spec-wide bandwidth maximum).
func editIsland(t *testing.T, spec *soc.Spec, island soc.IslandID) *soc.Spec {
	t.Helper()
	edited := *spec
	edited.Flows = append([]soc.Flow(nil), spec.Flows...)
	max := spec.MaxFlowBandwidth()
	for i, f := range edited.Flows {
		if spec.IslandOf[f.Src] == island && spec.IslandOf[f.Dst] == island {
			bw := f.BandwidthBps * 0.875
			if bw >= max {
				continue
			}
			edited.Flows[i].BandwidthBps = bw
			return &edited
		}
	}
	t.Skipf("no editable intra-island flow in island %d", island)
	return nil
}

// TestEditedSpecMissIdenticalToFresh is the spec-edit proof: synthesize
// spec A against a store, edit one island, and synthesize the edited
// spec B against the same store. The B run must miss (nothing of A's
// entry may leak into it) and be byte-identical to a storeless B run.
func TestEditedSpecMissIdenticalToFresh(t *testing.T) {
	lib := model.Default65nm()
	ctx := context.Background()
	specA := bench.D26()
	specB := editIsland(t, specA, 0)

	for _, workers := range []int{1, 4} {
		s := openTest(t, StoreOptions{})
		opt := testOptions()
		opt.Workers = workers

		if _, err := Synthesize(ctx, s, specA, lib, opt); err != nil {
			t.Fatal(err)
		}
		missed, err := Synthesize(ctx, s, specB, lib, opt)
		if err != nil {
			t.Fatal(err)
		}
		if missed.CacheStats.Hits != 0 || missed.CacheStats.Misses != 1 {
			t.Fatalf("workers=%d: edited spec should miss: %+v", workers, missed.CacheStats)
		}

		fresh, err := Synthesize(ctx, nil, specB, lib, opt)
		if err != nil {
			t.Fatal(err)
		}
		if md, fd := ResultDigest(missed), ResultDigest(fresh); md != fd {
			t.Fatalf("workers=%d: edited-spec miss differs from a fresh run: %s vs %s",
				workers, md.Short(), fd.Short())
		}
	}
}

// TestCampaignCached proves fault-campaign reports round-trip through
// the cache with the derived Off masks restored.
func TestCampaignCached(t *testing.T) {
	lib := model.Default65nm()
	spec := bench.D26()
	res, err := core.Synthesize(spec, lib, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	top := res.Best().Top
	opt := fault.CampaignOptions{MaxStates: 16}

	s := openTest(t, StoreOptions{})
	first, err := RunCampaign(s, top, opt)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := RunCampaign(s, top, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, cached) {
		a, _ := json.Marshal(first)
		b, _ := json.Marshal(cached)
		t.Fatalf("campaign reports differ:\n%s\n%s", a, b)
	}
	for i := range cached.States {
		if cached.States[i].Off == nil {
			t.Fatalf("state %d: Off not restored on cache hit", i)
		}
	}
	if st := s.StoreStats(); st.Hits != 1 || st.Puts != 1 {
		t.Fatalf("store stats %+v", st)
	}
}

// TestPartialResultsNeverCached: a canceled run publishes nothing.
func TestPartialResultsNeverCached(t *testing.T) {
	lib := model.Default65nm()
	spec := bench.D26()
	s := openTest(t, StoreOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Synthesize(ctx, s, spec, lib, testOptions())
	if err == nil && res != nil && !res.Partial {
		t.Skip("run completed before observing cancellation")
	}
	if st := s.StoreStats(); st.Puts != 0 {
		t.Fatalf("partial result was published: %+v", st)
	}
}

// TestKeySensitivity pins what the keys must and must not react to.
func TestKeySensitivity(t *testing.T) {
	lib := model.Default65nm()
	spec := bench.D26()
	opt := testOptions()

	base := ResultKey(spec, lib, opt)

	same := opt
	same.Workers = 16
	if ResultKey(spec, lib, same) != base {
		t.Fatal("Workers changed the result key")
	}

	diff := opt
	diff.MaxIntermediateSwitches = 1
	if ResultKey(spec, lib, diff) == base {
		t.Fatal("MaxIntermediateSwitches did not change the result key")
	}

	edited := editIsland(t, spec, 0)
	if ResultKey(edited, lib, opt) == base {
		t.Fatal("flow edit did not change the result key")
	}

	lib2 := *lib
	lib2.LinkWidthBits *= 2
	if ResultKey(spec, &lib2, opt) == base {
		t.Fatal("library change did not change the result key")
	}
}
