package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: nocvi
BenchmarkRouteAll/d16_industrial-64         	   38005	     31643 ns/op	   19720 B/op	     343 allocs/op
BenchmarkRouteAll/d26_media-64              	    7382	    158233 ns/op	   58360 B/op	     934 allocs/op
BenchmarkSynthesizeParallel/d26_media/workers=4-64 	       2	  11848052 ns/op	 2860608 B/op	   38790 allocs/op
PASS
ok  	nocvi	12.345s
`

func TestParseBench(t *testing.T) {
	got, lanes, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d results, want 3: %v", len(got), got)
	}
	if !reflect.DeepEqual(lanes, []int{64}) {
		t.Fatalf("lanes = %v, want [64] (from the -64 name suffix)", lanes)
	}
	r, ok := got["RouteAll/d16_industrial@p64"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not folded into the key: %v", got)
	}
	if r.Iterations != 38005 || r.NsPerOp != 31643 || r.BytesPerOp != 19720 || r.AllocsPerOp != 343 {
		t.Fatalf("wrong numbers: %+v", r)
	}
	if _, ok := got["SynthesizeParallel/d26_media/workers=4@p64"]; !ok {
		t.Fatalf("nested sub-benchmark name mangled: %v", got)
	}
}

// TestParseBenchMultiLane is the measurement-bug regression test: a
// `-cpu=1,2,4` run must keep every lane as its own record instead of
// the last lane overwriting the others under one key.
func TestParseBenchMultiLane(t *testing.T) {
	multi := `BenchmarkS/x/workers=1         	 100	 1000 ns/op
BenchmarkS/x/workers=1-2       	 100	 1005 ns/op
BenchmarkS/x/workers=1-4       	 100	 1010 ns/op
BenchmarkS/x/workers=4-4       	 100	  300 ns/op
PASS
`
	got, lanes, err := parseBench(strings.NewReader(multi))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("lanes collided: %d records, want 4: %v", len(got), got)
	}
	if !reflect.DeepEqual(lanes, []int{1, 2, 4}) {
		t.Fatalf("lanes = %v, want [1 2 4]", lanes)
	}
	if got["S/x/workers=1@p1"].NsPerOp != 1000 || got["S/x/workers=1@p4"].NsPerOp != 1010 {
		t.Fatalf("per-lane records wrong: %v", got)
	}
}

// TestParseBenchMedianOfRepeats: a `-count 3` run prints each lane
// three times, and the record must hold each field's median over the
// repeats, not the last line's numbers.
func TestParseBenchMedianOfRepeats(t *testing.T) {
	repeated := `BenchmarkC/cold-2   100   9000 ns/op   500 B/op   7 allocs/op
BenchmarkC/warm-2   100   1000 ns/op   100 B/op   3 allocs/op
BenchmarkC/cold-2   100   7000 ns/op   300 B/op   5 allocs/op
BenchmarkC/warm-2   100   4000 ns/op   120 B/op   3 allocs/op
BenchmarkC/cold-2    90   8000 ns/op   400 B/op   6 allocs/op
BenchmarkC/warm-2   100   1200 ns/op   110 B/op   4 allocs/op
BenchmarkD/even     100    100 ns/op
BenchmarkD/even     100    300 ns/op
PASS
`
	got, _, err := parseBench(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]result{
		"C/cold@p2": {Iterations: 100, NsPerOp: 8000, BytesPerOp: 400, AllocsPerOp: 6},
		"C/warm@p2": {Iterations: 100, NsPerOp: 1200, BytesPerOp: 110, AllocsPerOp: 3},
		"D/even@p1": {Iterations: 100, NsPerOp: 200},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("medians = %+v, want %+v", got, want)
	}
}

func TestSplitKey(t *testing.T) {
	suite, w, procs, ok := splitKey("SynthesizeParallel/d48_network/workers=8@p4")
	if !ok || suite != "SynthesizeParallel/d48_network" || w != 8 || procs != 4 {
		t.Fatalf("splitKey = %q %d %d %v", suite, w, procs, ok)
	}
	// Legacy keys without a lane parse as procs=1.
	_, _, procs, ok = splitKey("S/x/workers=2")
	if !ok || procs != 1 {
		t.Fatalf("legacy key: procs=%d ok=%v, want 1 true", procs, ok)
	}
	if _, _, _, ok := splitKey("RouteAll/d26@p4"); ok {
		t.Fatal("key without workers= must not parse")
	}
}

func TestDeltas(t *testing.T) {
	base := map[string]result{"a": {NsPerOp: 200, AllocsPerOp: 100}, "only_base": {NsPerOp: 1}}
	cur := map[string]result{"a": {NsPerOp: 100, AllocsPerOp: 25}}
	d := deltas(base, cur)
	if len(d) != 1 {
		t.Fatalf("want 1 delta, got %v", d)
	}
	if d["a"].NsSpeedup != 2 || d["a"].AllocsRatio != 4 {
		t.Fatalf("wrong ratios: %+v", d["a"])
	}
	if deltas(nil, cur) != nil {
		t.Fatal("deltas without a baseline should be nil")
	}
}

func TestEfficiencies(t *testing.T) {
	results := map[string]result{
		"Synth/a/workers=1@p8":    {NsPerOp: 1000},
		"Synth/a/workers=2@p8":    {NsPerOp: 600},
		"Synth/a/workers=8@p8":    {NsPerOp: 250},
		"Synth/b/workers=1@p8":    {NsPerOp: 500},
		"Synth/b/workers=4@p8":    {NsPerOp: 550}, // slower in parallel
		"RouteAll/d26@p8":         {NsPerOp: 100}, // no workers= leg: ignored
		"Synth/lone/workers=4@p8": {NsPerOp: 5},   // no workers=1 leg: skipped
	}
	effs := efficiencies(results)
	if len(effs) != 2 {
		t.Fatalf("want 2 suites, got %v", effs)
	}
	if e := effs["Synth/a"]; e.Workers != 8 || e.Procs != 8 || e.Speedup != 4 {
		t.Fatalf("Synth/a = %+v, want workers=8 procs=8 speedup=4", e)
	}
	if e := effs["Synth/b"]; e.Workers != 4 || e.Speedup >= 1 {
		t.Fatalf("Synth/b = %+v, want workers=4 speedup<1", e)
	}
	if effs := efficiencies(map[string]result{"x@p8": {NsPerOp: 1}}); effs != nil {
		t.Fatalf("no workers= suites should yield nil, got %v", effs)
	}
}

// TestPairedEfficiency: a suite's pair lane, which reports the median
// w1/wN ratio over back-to-back pairs, replaces the suite's workers=
// entry at its widest lane above one CPU; a pair lane at one CPU, or
// one without the metric (the cache's miss/hit pair), is no entry.
func TestPairedEfficiency(t *testing.T) {
	lines := `BenchmarkS/d48/workers=1-2   3   1600 ns/op
BenchmarkS/d48/workers=8-2   3    800 ns/op
BenchmarkS/d48/pair          20  2000 ns/op   1.01 w1/wN
BenchmarkS/d48/pair-2        20  2400 ns/op   1.70 w1/wN
BenchmarkS/d48/pair-2        20  2400 ns/op   1.50 w1/wN
BenchmarkS/d48/pair-2        20  2400 ns/op   1.60 w1/wN
BenchmarkSynthesizeCached/pair-2   100   9 ns/op   6.1 miss/hit
`
	results, _, err := parseBench(strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	if got := results["S/d48/pair@p2"].W1WN; got != 1.6 {
		t.Fatalf("pair lane w1/wN = %v, want the median 1.6", got)
	}
	effs := efficiencies(results)
	want := map[string]efficiency{"S/d48": {Workers: 2, Procs: 2, Speedup: 1.6, Paired: true}}
	if !reflect.DeepEqual(effs, want) {
		t.Fatalf("efficiencies = %+v, want %+v", effs, want)
	}
	if _, err := assertFloor(results, 1.7); err == nil || !strings.Contains(err.Error(), "median over pairs") {
		t.Fatalf("floor 1.7 over a paired 1.6: got %v, want a failure naming the pairs", err)
	}
	single := map[string]result{"S/d48/pair@p1": {NsPerOp: 1, W1WN: 3}}
	if effs := efficiencies(single); effs != nil || !hasWorkerSuites(single) {
		t.Fatalf("a one-CPU pair lane gave %v (hasWorkerSuites %v), want no entry but a note", effs, hasWorkerSuites(single))
	}
}

// TestEfficienciesRefuseSingleProcs pins the honesty rule: lanes
// measured at GOMAXPROCS=1 never produce an efficiency entry, and the
// widest multi-proc lane wins when several exist.
func TestEfficienciesRefuseSingleProcs(t *testing.T) {
	only1 := map[string]result{
		"S/x/workers=1@p1": {NsPerOp: 1000},
		"S/x/workers=8@p1": {NsPerOp: 990},
	}
	if effs := efficiencies(only1); effs != nil {
		t.Fatalf("gomaxprocs=1 lanes must not yield efficiency numbers, got %v", effs)
	}
	if !hasWorkerSuites(only1) {
		t.Fatal("hasWorkerSuites must still see the workers= convention")
	}
	mixed := map[string]result{
		"S/x/workers=1@p1": {NsPerOp: 1000},
		"S/x/workers=8@p1": {NsPerOp: 990},
		"S/x/workers=1@p2": {NsPerOp: 1000},
		"S/x/workers=8@p2": {NsPerOp: 550},
		"S/x/workers=1@p4": {NsPerOp: 1000},
		"S/x/workers=8@p4": {NsPerOp: 300},
	}
	effs := efficiencies(mixed)
	if e := effs["S/x"]; e.Procs != 4 || e.Workers != 8 || e.Speedup != 3.33 {
		t.Fatalf("widest lane must win: %+v", e)
	}
}

func writeCampaign(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "camp.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCacheSummaryFrom(t *testing.T) {
	results := map[string]result{
		"SynthesizeCached/cold@p1": {NsPerOp: 9000},
		"SynthesizeCached/warm@p1": {NsPerOp: 1000},
		"SynthesizeCached/cold@p8": {NsPerOp: 10000},
		"SynthesizeCached/warm@p8": {NsPerOp: 1000},
		"RouteAll/d26@p8":          {NsPerOp: 100}, // unrelated: ignored
	}
	cs := cacheSummaryFrom(results)
	if cs == nil {
		t.Fatal("expected a cache summary")
	}
	if cs.Procs != 8 {
		t.Fatalf("widest lane should win, got procs=%d", cs.Procs)
	}
	if cs.FullHitSpeedup != 10 {
		t.Fatalf("full-hit speedup = %.2f, want 10", cs.FullHitSpeedup)
	}
	if cacheSummaryFrom(map[string]result{"SynthesizeCached/cold@p4": {NsPerOp: 1}}) != nil {
		t.Fatal("cold without warm must yield nil")
	}
	if cacheSummaryFrom(map[string]result{"RouteAll/d26@p8": {NsPerOp: 1}}) != nil {
		t.Fatal("no cache lanes must yield nil")
	}
}

// TestCachePairedSpeedup: the SynthesizeCached/pair lane's miss/hit
// metric is parsed, folded to its median over -count repeats, and
// reported as the paired speedup, with or without the cold and warm
// lanes beside it; a pair lane alone still yields a summary.
func TestCachePairedSpeedup(t *testing.T) {
	const out = `BenchmarkSynthesizeCached/cold-2   100   3000000 ns/op
BenchmarkSynthesizeCached/warm-2   100    500000 ns/op
BenchmarkSynthesizeCached/pair-2   100   3600000 ns/op   5.40 miss/hit
BenchmarkSynthesizeCached/pair-2   100   3700000 ns/op   4.10 miss/hit
BenchmarkSynthesizeCached/pair-2   100   3500000 ns/op   5.70 miss/hit
`
	results, _, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	cs := cacheSummaryFrom(results)
	if cs == nil {
		t.Fatal("expected a cache summary")
	}
	if cs.PairedSpeedup != 5.4 || cs.FullHitSpeedup != 6 || cs.Procs != 2 {
		t.Fatalf("summary = %+v, want paired 5.4 (the median pair), cold/warm 6 at procs 2", *cs)
	}
	alone := cacheSummaryFrom(map[string]result{"SynthesizeCached/pair@p1": {NsPerOp: 1, MissHit: 7.123}})
	if alone == nil || alone.PairedSpeedup != 7.12 || alone.FullHitSpeedup != 0 {
		t.Fatalf("pair lane alone: %+v", alone)
	}
}

func TestPruneSummaryFrom(t *testing.T) {
	results := map[string]result{
		"SynthesizePrune/d48_sweep/prune@p1":   {NsPerOp: 5000, PrunedFrac: 0.98},
		"SynthesizePrune/d48_sweep/noprune@p1": {NsPerOp: 13000},
		"SynthesizePrune/d48_sweep/prune@p4":   {NsPerOp: 2000, PrunedFrac: 0.97},
		"SynthesizePrune/d48_sweep/noprune@p4": {NsPerOp: 5000},
		"RouteAll/d26@p4":                      {NsPerOp: 100}, // unrelated: ignored
	}
	ps := pruneSummaryFrom(results)
	if ps == nil {
		t.Fatal("expected a prune summary")
	}
	if ps.Procs != 4 {
		t.Fatalf("widest lane should win, got procs=%d", ps.Procs)
	}
	if ps.Speedup != 2.5 || ps.PrunedFrac != 0.97 {
		t.Fatalf("speedup=%.2f frac=%.2f, want 2.5 / 0.97", ps.Speedup, ps.PrunedFrac)
	}
	if pruneSummaryFrom(map[string]result{"SynthesizePrune/d48_sweep/prune@p1": {NsPerOp: 1}}) != nil {
		t.Fatal("prune without noprune must yield nil")
	}
	if pruneSummaryFrom(map[string]result{"RouteAll/d26@p8": {NsPerOp: 1}}) != nil {
		t.Fatal("no prune lanes must yield nil")
	}
}

func TestLoadCampaign(t *testing.T) {
	path := writeCampaign(t, `{
		"design": "d26_media", "islands": 6, "shutdownable": 4,
		"state_space": 16, "states": [{"mask":0},{"mask":1}],
		"invariant_violations": 0, "link_faults": 40, "recovered": 30
	}`)
	if err := loadCampaign(path, 0); err != nil {
		t.Fatalf("a clean k=0 report with unrecovered faults must pass: %v", err)
	}
}

func TestLoadCampaignRejectsViolations(t *testing.T) {
	path := writeCampaign(t, `{
		"design": "bad", "states": [{"mask":0}],
		"invariant_violations": 1, "link_faults": 1, "recovered": 1
	}`)
	if err := loadCampaign(path, 0); err == nil {
		t.Fatal("a report with invariant violations must be rejected even without a floor")
	}
}

func TestLoadCampaignRejectsGarbage(t *testing.T) {
	if err := loadCampaign(writeCampaign(t, `{"current": {}}`), 0); err == nil {
		t.Fatal("a non-campaign JSON must be rejected")
	}
	if err := loadCampaign(filepath.Join(t.TempDir(), "missing.json"), 0); err == nil {
		t.Fatal("a missing file must be rejected")
	}
}

func TestAssertFloor(t *testing.T) {
	results := map[string]result{
		"S/x/workers=1@p8": {NsPerOp: 1000},
		"S/x/workers=8@p8": {NsPerOp: 1100},
	}
	if _, err := assertFloor(results, 0.6); err != nil {
		t.Fatalf("speedup 0.91 should pass floor 0.6: %v", err)
	}
	if _, err := assertFloor(results, 0.95); err == nil {
		t.Fatal("speedup 0.91 must fail floor 0.95")
	}
	if _, err := assertFloor(map[string]result{"plain@p8": {NsPerOp: 1}}, 0.5); err == nil {
		t.Fatal("a floor with no workers= suites must fail loudly")
	}
	single := map[string]result{
		"S/x/workers=1@p1": {NsPerOp: 1000},
		"S/x/workers=8@p1": {NsPerOp: 990},
	}
	if _, err := assertFloor(single, 0.5); err == nil {
		t.Fatal("gomaxprocs=1 data must not satisfy a floor by accident")
	}
}

// TestFloorsReportWhatPassed: each passed floor returns the line that
// says by how much: the measured value next to the floor. The parallel
// floor reports its slowest suite.
func TestFloorsReportWhatPassed(t *testing.T) {
	for _, c := range []struct {
		name  string
		check func(map[string]result, float64) (string, error)
		in    map[string]result
		floor float64
		want  string
	}{
		{"floor", assertFloor, map[string]result{
			"A/d48/workers=1@p2": {NsPerOp: 1500},
			"A/d48/workers=2@p2": {NsPerOp: 1000},
			"B/d26/workers=1@p2": {NsPerOp: 1400},
			"B/d26/workers=2@p2": {NsPerOp: 1000},
		}, 1.2, "[parallel speedup 1.40 (B/d26 workers=2@p2 over workers=1, slowest of 2 suites), floor 1.20]"},
		{"floor over pairs", assertFloor, map[string]result{
			"SynthesizeParallel/d48_network/pair@p2": {NsPerOp: 1, W1WN: 1.62},
		}, 1.2, "[parallel speedup 1.62 (SynthesizeParallel/d48_network workers=2@p2 over workers=1, median over pairs, slowest of 1 suites), floor 1.20]"},
		{"prune-floor", assertPruneFloor, map[string]result{
			"SynthesizePrune/d48_sweep/prune@p1":   {NsPerOp: 2000, PrunedFrac: 0.97},
			"SynthesizePrune/d48_sweep/noprune@p1": {NsPerOp: 5000},
		}, 1.3, "[prune speedup 2.50 (noprune 5000 ns / prune 2000 ns, pruned fraction 0.97), floor 1.30]"},
		{"cache-floor", assertCacheFloor, map[string]result{
			"SynthesizeCached/pair@p1": {NsPerOp: 1, MissHit: 6.28},
		}, 5, "[cache full-hit speedup 6.28 (median miss/hit over pairs), floor 5.00]"},
	} {
		got, err := c.check(c.in, c.floor)
		if err != nil || got != c.want {
			t.Errorf("-%s: got %q, %v\nwant %q", c.name, got, err, c.want)
		}
	}
}

func TestLoadCampaignSurviveFloor(t *testing.T) {
	// A k=1 report with full zero-reroute coverage passes the floor.
	good := writeCampaign(t, `{
		"design": "d26_media", "islands": 6, "shutdownable": 4,
		"state_space": 16, "states": [{"mask":0}],
		"invariant_violations": 0, "link_faults": 40, "recovered": 40,
		"zero_reroute": 40, "survivability": 1
	}`)
	if err := loadCampaign(good, 1); err != nil {
		t.Fatal(err)
	}

	// A k=0 report must be rejected outright by any survive floor: it
	// asserts nothing about backups.
	plain := writeCampaign(t, `{
		"design": "d26_media", "states": [{"mask":0}],
		"invariant_violations": 0, "link_faults": 40, "recovered": 40
	}`)
	if err := loadCampaign(plain, 0.1); err == nil {
		t.Fatal("survive floor accepted a report without a survivability run")
	}

	// A single non-recoverable fault on a k=1 run is a hard failure,
	// whatever the floor.
	broken := writeCampaign(t, `{
		"design": "d26_media", "states": [{"mask":0}],
		"invariant_violations": 0, "link_faults": 40, "recovered": 39,
		"zero_reroute": 39, "survivability": 1
	}`)
	if err := loadCampaign(broken, 0.1); err == nil {
		t.Fatal("survive floor accepted a k=1 run with a non-recoverable link fault")
	}

	// Zero-reroute coverage below the floor fails even when every fault
	// was recovered somehow (re-routing is not the contract).
	rerouted := writeCampaign(t, `{
		"design": "d26_media", "states": [{"mask":0}],
		"invariant_violations": 0, "link_faults": 40, "recovered": 40,
		"zero_reroute": 20, "survivability": 1
	}`)
	if err := loadCampaign(rerouted, 0.9); err == nil {
		t.Fatal("survive floor 0.9 accepted 50% zero-reroute coverage")
	}
}
