package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/cache"
	"nocvi/internal/core"
	"nocvi/internal/floorplan"
	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/specgen"
	"nocvi/internal/specio"
)

// The engine calls of the reuse tests, as the benchmark's synth-suite
// and sweep-d104 workloads make them at seed 0.
var (
	reuseSuiteOpt = core.Options{AllowIntermediate: true, MaxIntermediateSwitches: 3}
	reuseSweepOpt = core.Options{Floorplan: floorplan.Options{SkipAnnotate: true}}
	reuseSweep    = core.SweepOptions{WidthPerIsland: 4, Limit: 2000}
)

// reuseCall is one engine call of a reuse sequence: a bundled spec
// through Synthesize, or the 104-core sweep prefix (spec nil).
type reuseCall struct {
	name string
	spec *soc.Spec
}

// reuseSequence returns the 8 bundled specs in registry order, or in
// reverse, with the sweep prefix of specgen.Large(7, 104, 10) between
// the fourth and the fifth.
func reuseSequence(t *testing.T, reverse bool) []reuseCall {
	t.Helper()
	var calls []reuseCall
	for _, name := range bench.Names() {
		spec, err := bench.Islanded(name)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, reuseCall{name, spec})
	}
	if reverse {
		slices.Reverse(calls)
	}
	return slices.Insert(calls, len(calls)/2, reuseCall{name: "sweep-d104"})
}

// runSequence makes every call of seq at the given worker count and
// returns each call's ResultDigest or SweepResultDigest by name.
func runSequence(seq []reuseCall, workers int) (map[string]specio.Digest, error) {
	lib := model.Default65nm()
	sweepSpec := specgen.Large(7, 104, 10)
	out := make(map[string]specio.Digest, len(seq))
	for _, c := range seq {
		if c.spec == nil {
			opt := reuseSweepOpt
			opt.Workers = workers
			res, err := core.SynthesizeSweep(context.Background(), sweepSpec, lib, opt, reuseSweep)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			out[c.name] = cache.SweepResultDigest(res)
			continue
		}
		opt := reuseSuiteOpt
		opt.Workers = workers
		res, err := core.Synthesize(c.spec, lib, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		out[c.name] = cache.ResultDigest(res)
	}
	return out, nil
}

// benchmarkGolden reads the digest the repository's benchmark records
// at seed 0 (benchmark/testdata/golden.json) for one workload entry.
func benchmarkGolden(t *testing.T, workload, entry string) string {
	t.Helper()
	data, err := os.ReadFile("../../benchmark/testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var g map[string]map[string]struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	d := g[workload][entry].Digest
	if d == "" {
		t.Fatalf("golden.json has no digest for %s/%s", workload, entry)
	}
	return d
}

// sameDigests asserts got holds want's digests, and that D26 and the
// sweep prefix match the benchmark's goldens.
func sameDigests(t *testing.T, label string, want, got map[string]specio.Digest) {
	t.Helper()
	for name, d := range want {
		if got[name] != d {
			t.Errorf("%s: %s digest %s, want %s", label, name, got[name], d)
		}
	}
	for name, g := range map[string]string{
		"d26_media":  benchmarkGolden(t, "synth-suite", "d26_media"),
		"sweep-d104": benchmarkGolden(t, "sweep-d104", "sweep"),
	} {
		if got[name].String() != g {
			t.Errorf("%s: %s digest %s, want the benchmark's golden %s", label, name, got[name], g)
		}
	}
}

// TestArenaReuseInvisibleInResults: worker arenas outlive an engine
// call, so each call below builds in arenas the previous calls grew
// for other specs, other spaces and other worker counts. Running the
// bundled specs forward and then in reverse, with the 104-core sweep
// prefix between them, at one worker and at two, must give every spec
// the same ResultDigest and the sweep the same SweepResultDigest in
// every pass, and D26 and the sweep the benchmark's goldens.
func TestArenaReuseInvisibleInResults(t *testing.T) {
	var want map[string]specio.Digest
	for _, workers := range []int{1, 2} {
		for _, reverse := range []bool{false, true} {
			label := fmt.Sprintf("workers=%d reverse=%v", workers, reverse)
			got, err := runSequence(reuseSequence(t, reverse), workers)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if want == nil {
				want = got
			}
			sameDigests(t, label, want, got)
		}
	}
}

// TestArenaReuseInvisibleConcurrent runs the forward and the reverse
// sequence at the same time, two workers each, so concurrent calls draw
// on and hand back to the arena pool while the other builds. Under
// -race this also proves the pool hands an arena from one call to the
// next without a data race.
func TestArenaReuseInvisibleConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	results := make([]map[string]specio.Digest, 2)
	errs := make([]error, 2)
	for i, reverse := range []bool{false, true} {
		seq := reuseSequence(t, reverse)
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = runSequence(seq, 2)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sequence %d: %v", i, err)
		}
	}
	sameDigests(t, "forward", results[1], results[0])
	sameDigests(t, "reverse", results[0], results[1])
}
