package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"nocvi/internal/bench"
	"nocvi/internal/deadlock"
	"nocvi/internal/floorplan"
	"nocvi/internal/model"
	"nocvi/internal/partition"
	"nocvi/internal/power"
	"nocvi/internal/soc"
)

// mustEnv runs the sweeps' prologue, exposing the environment and its
// partition table so tests can drive buildPoint and the sweep driver directly.
func mustEnv(t *testing.T, spec *soc.Spec, lib *model.Library, opt Options) *sweepEnv {
	t.Helper()
	env, err := newSweepEnv(spec, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// sameBuiltPoint asserts two independently built design points are
// bit-identical in every observable: configuration, metrics, the full
// topology (switches with their core lists, links, routes hop by hop)
// and the full placement.
func sameBuiltPoint(t *testing.T, label string, a, b *DesignPoint) {
	t.Helper()
	if !reflect.DeepEqual(a.SwitchCounts, b.SwitchCounts) || a.MidSwitches != b.MidSwitches {
		t.Fatalf("%s: config differs: %v/%d vs %v/%d",
			label, a.SwitchCounts, a.MidSwitches, b.SwitchCounts, b.MidSwitches)
	}
	if a.NoCPower != b.NoCPower || a.MeanLatencyCycles != b.MeanLatencyCycles ||
		a.NoCAreaMM2 != b.NoCAreaMM2 || a.WireViolations != b.WireViolations {
		t.Fatalf("%s: metrics differ:\n%+v\nvs\n%+v", label, *a, *b)
	}
	if !reflect.DeepEqual(a.Top.Switches, b.Top.Switches) {
		t.Fatalf("%s: switches differ:\n%v\nvs\n%v", label, a.Top.Switches, b.Top.Switches)
	}
	if !reflect.DeepEqual(a.Top.Links, b.Top.Links) {
		t.Fatalf("%s: links differ:\n%v\nvs\n%v", label, a.Top.Links, b.Top.Links)
	}
	if !reflect.DeepEqual(a.Top.Routes, b.Top.Routes) {
		t.Fatalf("%s: routes differ:\n%v\nvs\n%v", label, a.Top.Routes, b.Top.Routes)
	}
	if !reflect.DeepEqual(a.Top.SwitchOf, b.Top.SwitchOf) {
		t.Fatalf("%s: core attachment differs", label)
	}
	if !reflect.DeepEqual(a.Placement, b.Placement) {
		t.Fatalf("%s: placements differ:\n%+v\nvs\n%+v", label, a.Placement, b.Placement)
	}
}

// TestArenaNoStateLeak drives one shared buildContext through
// candidates with different switch-count vectors — the situation where
// a stale core list, route buffer, subgraph, deadlock or power buffer
// surviving a Reset would corrupt the next build — and checks every
// point against a build from a fresh, never-used arena. The
// A-B-...-B-A order grows and then shrinks the switch and link counts,
// and makes the first candidate also rebuild on an arena dirtied by
// differently-shaped ones.
//
// Every build lands in the arena's own point, topology, placement and
// switch-count buffer. It runs three ways: the ordered path, whose
// collector keeps a published copy of every point — sharing none of
// that arena storage, and leaving the arena's point as it was — that
// must still match its fresh build after the arena has built every
// later candidate; the streaming collector's path, which only
// summarizes each point; and the streaming path under
// SkipAnnotate with a pruner armed, where the point's NoCPower is the
// staged pre-floorplan breakdown — compared against a fresh arena
// without a pruner, which costs the point after floorplanning instead.
func TestArenaNoStateLeak(t *testing.T) {
	spec := miniSoC()
	lib := model.Default65nm()
	for _, mode := range []struct {
		name           string
		skip, stream   bool
		stagedNoCPower bool
	}{
		{name: "ordered"},
		{name: "stream", stream: true},
		{name: "stream/skip-annotate", skip: true, stream: true, stagedNoCPower: true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			opt := Options{AllowIntermediate: true, MaxIntermediateSwitches: 2}
			opt.Floorplan.SkipAnnotate = mode.skip
			env := mustEnv(t, spec, lib, opt)
			picks := arenaPicks(t, env)

			sharedEnv := env
			if mode.stagedNoCPower {
				sharedEnv = mustEnv(t, spec, lib, opt)
				sharedEnv.pruner = &incumbentPruner{} // armed, never dominates: nothing is published
			}
			shared := &buildContext{env: sharedEnv}
			cols := streamCollectors{&sweepCollector{errCap: 1}}
			ordered := &orderedCollector{outs: make([]evalOutcome, len(picks))}
			fresh := make([]*DesignPoint, len(picks))
			var arenaPl *floorplan.Placement
			for i, c := range picks {
				label := fmt.Sprintf("pick %d (%v/%d)", i, c.counts, c.mid)
				var err error
				fresh[i], err = buildPoint(&buildContext{env: env}, c.counts, c.parts, c.mid)
				if err != nil {
					t.Fatalf("%s: fresh build failed: %v", label, err)
				}
				reused, err := buildPoint(shared, c.counts, c.parts, c.mid)
				if err != nil {
					t.Fatalf("%s: arena build failed: %v", label, err)
				}
				if i == 0 {
					arenaPl = reused.Placement
				}
				inArena := func(dp *DesignPoint) bool {
					return dp == &shared.dp && dp.Top == shared.top && dp.Placement == arenaPl &&
						&dp.SwitchCounts[0] == &shared.counts[0]
				}
				if !inArena(reused) {
					t.Fatalf("%s: buildPoint did not build in the arena's point, topology, placement and counts", label)
				}
				sameBuiltPoint(t, label, fresh[i], reused)
				if mode.stream {
					cols.add(0, uint64(i), evalOutcome{dp: reused})
					continue
				}
				ordered.add(0, uint64(i), evalOutcome{dp: reused})
				kept := ordered.outs[i].dp
				if kept == reused || kept.Top == shared.top || kept.Placement == arenaPl ||
					&kept.SwitchCounts[0] == &shared.counts[0] {
					t.Fatalf("%s: the collector kept the arena's storage", label)
				}
				if !inArena(reused) {
					t.Fatalf("%s: publishing changed the arena's point", label)
				}
				sameBuiltPoint(t, label+" (arena after publishing)", fresh[i], reused)
			}
			if mode.stream {
				if cols[0].feasible != uint64(len(picks)) {
					t.Fatalf("collector summarized %d of %d points", cols[0].feasible, len(picks))
				}
				return
			}
			for i, out := range ordered.outs {
				sameBuiltPoint(t, fmt.Sprintf("published pick %d", i), fresh[i], out.dp)
			}
		})
	}
}

// arenaPick is one candidate of TestArenaNoStateLeak's replay.
type arenaPick struct {
	counts []int
	parts  [][]int
	mid    int
}

// arenaPicks selects the mid=0 candidate of up to four feasible
// diagonal vectors, then replays them in reverse down to the first
// (A-B-C-D-C-B-A). Partitions are resolved through a dedicated arena's
// partition scratch — the worker-side first-touch path, reusing one
// scratch across every entry — so the replayed builds consume
// partitions computed off an already-dirtied scratch, exactly as a
// sweep worker would see.
func arenaPicks(t *testing.T, env *sweepEnv) []arenaPick {
	t.Helper()
	space := env.diagonal()
	var picks []arenaPick
	resolver := &buildContext{env: env}
	for idx := uint64(0); idx < space.Size() && len(picks) < 4; idx += uint64(space.midDim) {
		c := arenaPick{counts: make([]int, len(env.spec.Islands))}
		c.mid = space.Decode(idx, c.counts)
		for j, k := range c.counts {
			if e := env.table.entry(j, k, &resolver.part); e.err == nil {
				c.parts = append(c.parts, e.part)
			}
		}
		if len(c.parts) == len(c.counts) {
			picks = append(picks, c)
		}
	}
	if len(picks) < 2 {
		t.Fatalf("need at least two distinct feasible counts vectors, got %d", len(picks))
	}
	for i := len(picks) - 2; i >= 0; i-- {
		picks = append(picks, picks[i])
	}
	return picks
}

// TestMidSweepCancellationDrainsWorkers cancels sweeps at racy,
// unsynchronized moments — before, during and after the worker pool's
// lifetime — and asserts that every goroutine the sweep spawned has
// drained afterwards. Run under -race this also exercises the
// cancellation check in the sweep driver's atomic claiming loop.
func TestMidSweepCancellationDrainsWorkers(t *testing.T) {
	spec, err := bench.Islanded("d26_media")
	if err != nil {
		t.Fatal(err)
	}
	lib := model.Default65nm()
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := SynthesizeContext(ctx, spec, lib, Options{
				AllowIntermediate: true,
				Workers:           8,
			})
			done <- err
		}()
		if i%2 == 0 {
			runtime.Gosched() // let the sweep get going before the cancel
		}
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("iteration %d: canceled sweep must degrade to a partial result, got %v", i, err)
		}
	}
	// Workers exit via the claiming loop's context check; give the
	// scheduler a moment, then require the goroutine count back at (or
	// below) the baseline plus slack for runtime housekeeping.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not drain: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPartitionEntryRace hammers the first-touch once latch of the
// lazy partition table: for each (island, switch count) entry the
// diagonal space can reach, a pack of goroutines calls entry at the same
// instant, each through its own worker arena's partition scratch.
// Exactly one racer resolves the entry; every racer must then observe
// the same immutable cut and bound pieces, equal to a serial resolution
// on a fresh table. Under -race this is the regression test proving the
// latch publishes entries safely with no coordinator in the loop.
func TestPartitionEntryRace(t *testing.T) {
	spec := miniSoC()
	lib := model.Default65nm()
	opt := Options{AllowIntermediate: true, MaxIntermediateSwitches: 2}
	env := mustEnv(t, spec, lib, opt)
	ref := mustEnv(t, spec, lib, opt)

	const racers = 32
	raced := 0
	for j, cores := range env.islandCores {
		for k := env.minSwitches[j]; k <= len(cores); k++ {
			raced++
			var start, done sync.WaitGroup
			start.Add(1)
			views := make([]*partEntry, racers)
			for r := 0; r < racers; r++ {
				done.Add(1)
				bc := &buildContext{env: env}
				go func(r int, bc *buildContext) {
					defer done.Done()
					start.Wait()
					views[r] = env.table.entry(j, k, &bc.part)
				}(r, bc)
			}
			start.Done()
			done.Wait()

			want := ref.table.entry(j, k, &partition.Scratch{})
			for r, got := range views {
				if (got.err == nil) != (want.err == nil) {
					t.Fatalf("island %d k=%d racer %d: err %v, serial reference err %v", j, k, r, got.err, want.err)
				}
				if !reflect.DeepEqual(got.part, want.part) || got.piece != want.piece ||
					got.cross != want.cross || got.infeas != want.infeas {
					t.Fatalf("island %d k=%d racer %d saw %v (%g/%d/%v), serial reference %v (%g/%d/%v)",
						j, k, r, got.part, got.piece, got.cross, got.infeas,
						want.part, want.piece, want.cross, want.infeas)
				}
			}
		}
	}
	if raced < 4 {
		t.Fatalf("want several table entries, raced %d", raced)
	}
}

// TestWarmArenaAllocatesNothing is the zero-allocation guard for the
// per-candidate tail of buildPoint: once a worker's arena has costed a
// point, the deadlock check, both power breakdowns and a warm PlaceWith
// allocate nothing on that point again.
func TestWarmArenaAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	env := mustEnv(t, miniSoC(), model.Default65nm(), Options{AllowIntermediate: true, MaxIntermediateSwitches: 2})
	picks := arenaPicks(t, env)
	c := picks[len(picks)/2] // the largest candidate
	bc := &buildContext{env: env}
	dp, err := buildPoint(bc, c.counts, c.parts, c.mid)
	if err != nil {
		t.Fatal(err)
	}
	top := dp.Top
	for _, stage := range []struct {
		name string
		fn   func()
	}{
		{"deadlock.CheckWith", func() {
			if err := deadlock.CheckWith(top, &bc.dl); err != nil {
				t.Fatal(err)
			}
		}},
		{"power.NoCWith", func() { _ = power.NoCWith(top, &bc.pw) }},
		{"power.NoCSansLinkWires", func() { _ = power.NoCSansLinkWires(top, &bc.pw) }},
		{"floorplan.PlaceWith (warm)", func() {
			if _, err := floorplan.PlaceWith(top, env.opt.Floorplan, &bc.fp); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if n := testing.AllocsPerRun(50, stage.fn); n != 0 {
			t.Errorf("%s: %v allocations per warm call, want 0", stage.name, n)
		}
	}
}

// warmBuildAllocs is what a warm buildPoint allocates, whatever the
// candidate's size: nothing, since the point and its switch counts
// live in the arena too.
const warmBuildAllocs = 0

// TestWarmBuildPointAllocsConstant guards the whole of buildPoint: once
// the arena has built every candidate of the replay, building any of
// them again allocates exactly warmBuildAllocs times. The point,
// topology, router and placement all stay in the arena, so the count
// does not grow with the candidate's switches, links or routes.
func TestWarmBuildPointAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	env := mustEnv(t, miniSoC(), model.Default65nm(), Options{AllowIntermediate: true, MaxIntermediateSwitches: 2})
	picks := arenaPicks(t, env)
	bc := &buildContext{env: env}
	for _, c := range picks {
		if _, err := buildPoint(bc, c.counts, c.parts, c.mid); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range picks[:len(picks)/2+1] {
		n := testing.AllocsPerRun(20, func() {
			if _, err := buildPoint(bc, c.counts, c.parts, c.mid); err != nil {
				t.Fatal(err)
			}
		})
		if n != warmBuildAllocs {
			t.Errorf("pick %d (%v/%d): %v allocations per warm buildPoint, want %d",
				i, c.counts, c.mid, n, warmBuildAllocs)
		}
	}
}

// span is one backing array's address range, tagged with its owner;
// spare marks a slice whose capacity exceeds its length.
type span struct {
	lo, hi uintptr
	owner  int
	spare  bool
}

// storage appends a span for every non-empty backing array reachable
// from v, following pointers (each once) and maps. The spec, the
// library and the sweep environment are shared read-only by every point
// and arena, so they are not walked.
func storage(v reflect.Value, owner int, seen map[uintptr]bool, out []span) []span {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return out
		}
		switch v.Type() {
		case reflect.TypeOf(&soc.Spec{}), reflect.TypeOf(&model.Library{}), reflect.TypeOf(&sweepEnv{}):
			return out
		}
		seen[v.Pointer()] = true
		return storage(v.Elem(), owner, seen, out)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = storage(v.Field(i), owner, seen, out)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			out = storage(it.Value(), owner, seen, out)
		}
	case reflect.Slice:
		if v.Cap() > 0 && v.Type().Elem().Size() > 0 {
			lo := v.Pointer()
			out = append(out, span{lo, lo + uintptr(v.Cap())*v.Type().Elem().Size(), owner, v.Len() != v.Cap()})
		}
		for i := 0; i < v.Len(); i++ {
			out = storage(v.Index(i), owner, seen, out)
		}
	}
	return out
}

// sharedStorage names the first pair of owners whose backing arrays
// overlap, or "" when every owner's storage is its own.
func sharedStorage(spans []span, name func(owner int) string) string {
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i, a := range spans {
		for _, b := range spans[i+1:] {
			if b.lo >= a.hi {
				break
			}
			if a.owner != b.owner {
				return name(a.owner) + " and " + name(b.owner)
			}
		}
	}
	return ""
}

// assertPublished checks a set of published points: each one's
// topology and placement are exact-size copies, and no two points share
// a backing array.
func assertPublished(t *testing.T, label string, pts []*DesignPoint) {
	t.Helper()
	var spans []span
	for i, dp := range pts {
		seen := map[uintptr]bool{}
		for _, s := range storage(reflect.ValueOf(dp.Placement), i, seen, storage(reflect.ValueOf(dp.Top), i, seen, nil)) {
			if s.spare {
				t.Fatalf("%s: point %d has a topology or placement slice with spare capacity: not a published copy", label, i)
			}
		}
		spans = storage(reflect.ValueOf(*dp), i, map[uintptr]bool{}, spans)
	}
	if s := sharedStorage(spans, func(i int) string { return fmt.Sprintf("point %d", i) }); s != "" {
		t.Fatalf("%s: %s share a backing array", label, s)
	}
}

// TestPublishedPointsOwnTheirStorage: every point a sweep returns owns
// its storage. On the suite at one and two workers, and on the
// streaming sweep's rebuilt winners, no two points share a backing
// array and each topology and placement is an exact-size copy; and a
// point published from a warm arena shares nothing with that arena.
func TestPublishedPointsOwnTheirStorage(t *testing.T) {
	lib := model.Default65nm()
	for _, name := range bench.Names() {
		spec, err := bench.Islanded(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2} {
			res, err := Synthesize(spec, lib, Options{AllowIntermediate: true, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			pts := make([]*DesignPoint, len(res.Points))
			for i := range res.Points {
				pts[i] = &res.Points[i]
			}
			assertPublished(t, fmt.Sprintf("%s workers=%d", name, w), pts)
		}
	}

	opt := Options{AllowIntermediate: true, MaxIntermediateSwitches: 2, Workers: 2}
	sw := sweepOnce(t, miniSoC(), lib, opt, SweepOptions{})
	winners := []*DesignPoint{sw.BestPower}
	if sw.BestLatency != sw.BestPower {
		winners = append(winners, sw.BestLatency)
	}
	assertPublished(t, "sweep winners", winners)

	env := mustEnv(t, miniSoC(), lib, opt)
	bc := &buildContext{env: env}
	for i, c := range arenaPicks(t, env) {
		built, err := buildPoint(bc, c.counts, c.parts, c.mid)
		if err != nil {
			t.Fatal(err)
		}
		dp := built.published()
		spans := storage(reflect.ValueOf(*dp), 0, map[uintptr]bool{}, nil)
		spans = storage(reflect.ValueOf(bc), 1, map[uintptr]bool{}, spans)
		if s := sharedStorage(spans, func(o int) string { return [...]string{"the published point", "its arena"}[o] }); s != "" {
			t.Fatalf("pick %d: %s share a backing array", i, s)
		}
	}
}
