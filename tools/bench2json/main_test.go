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

func TestMigrate(t *testing.T) {
	rec := record{
		GoMaxProcs: 1,
		Baseline:   map[string]result{"RouteAll/d26": {NsPerOp: 5}},
		Current:    map[string]result{"RouteAll/d26@p4": {NsPerOp: 4}},
	}
	migrate(&rec)
	if _, ok := rec.Baseline["RouteAll/d26@p1"]; !ok {
		t.Fatalf("legacy baseline key not migrated: %v", rec.Baseline)
	}
	if _, ok := rec.Current["RouteAll/d26@p4"]; !ok {
		t.Fatalf("already-keyed record must pass through: %v", rec.Current)
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
	design, sum, surv, err := loadCampaign(path, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if design != "d26_media" {
		t.Fatalf("design = %q", design)
	}
	if sum.States != 2 || sum.LinkFaults != 40 || sum.RecoverableFrac != 0.75 {
		t.Fatalf("wrong summary: %+v", sum)
	}
	if surv != nil {
		t.Fatalf("k=0 report grew a survive summary: %+v", surv)
	}
	if _, _, _, err := loadCampaign(path, 0.9, 0); err == nil {
		t.Fatal("recoverability 0.75 must fail floor 0.9")
	}
}

func TestLoadCampaignRejectsViolations(t *testing.T) {
	path := writeCampaign(t, `{
		"design": "bad", "states": [{"mask":0}],
		"invariant_violations": 1, "link_faults": 1, "recovered": 1
	}`)
	if _, _, _, err := loadCampaign(path, 0, 0); err == nil {
		t.Fatal("a report with invariant violations must be rejected even without a floor")
	}
}

func TestLoadCampaignRejectsGarbage(t *testing.T) {
	if _, _, _, err := loadCampaign(writeCampaign(t, `{"current": {}}`), 0, 0); err == nil {
		t.Fatal("a non-campaign JSON must be rejected")
	}
	if _, _, _, err := loadCampaign(filepath.Join(t.TempDir(), "missing.json"), 0, 0); err == nil {
		t.Fatal("a missing file must be rejected")
	}
}

func TestAssertFloor(t *testing.T) {
	results := map[string]result{
		"S/x/workers=1@p8": {NsPerOp: 1000},
		"S/x/workers=8@p8": {NsPerOp: 1100},
	}
	if err := assertFloor(results, 0.6); err != nil {
		t.Fatalf("speedup 0.91 should pass floor 0.6: %v", err)
	}
	if err := assertFloor(results, 0.95); err == nil {
		t.Fatal("speedup 0.91 must fail floor 0.95")
	}
	if err := assertFloor(map[string]result{"plain@p8": {NsPerOp: 1}}, 0.5); err == nil {
		t.Fatal("a floor with no workers= suites must fail loudly")
	}
	single := map[string]result{
		"S/x/workers=1@p1": {NsPerOp: 1000},
		"S/x/workers=8@p1": {NsPerOp: 990},
	}
	if err := assertFloor(single, 0.5); err == nil {
		t.Fatal("gomaxprocs=1 data must not satisfy a floor by accident")
	}
}

func TestLoadCampaignSurviveFloor(t *testing.T) {
	// A k=1 report with full zero-reroute coverage passes the floor and
	// yields a survive summary.
	good := writeCampaign(t, `{
		"design": "d26_media", "islands": 6, "shutdownable": 4,
		"state_space": 16, "states": [{"mask":0}],
		"invariant_violations": 0, "link_faults": 40, "recovered": 40,
		"zero_reroute": 40, "survivability": 1
	}`)
	_, _, surv, err := loadCampaign(good, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if surv == nil || surv.Survivability != 1 || surv.ZeroRerouteFrac != 1 {
		t.Fatalf("wrong survive summary: %+v", surv)
	}

	// A k=0 report must be rejected outright by any survive floor: it
	// asserts nothing about backups.
	plain := writeCampaign(t, `{
		"design": "d26_media", "states": [{"mask":0}],
		"invariant_violations": 0, "link_faults": 40, "recovered": 40
	}`)
	if _, _, _, err := loadCampaign(plain, 0, 0.1); err == nil {
		t.Fatal("survive floor accepted a report without a survivability run")
	}

	// A single non-recoverable fault on a k=1 run is a hard failure,
	// whatever the floor.
	broken := writeCampaign(t, `{
		"design": "d26_media", "states": [{"mask":0}],
		"invariant_violations": 0, "link_faults": 40, "recovered": 39,
		"zero_reroute": 39, "survivability": 1
	}`)
	if _, _, _, err := loadCampaign(broken, 0, 0.1); err == nil {
		t.Fatal("survive floor accepted a k=1 run with a non-recoverable link fault")
	}

	// Zero-reroute coverage below the floor fails even when every fault
	// was recovered somehow (re-routing is not the contract).
	rerouted := writeCampaign(t, `{
		"design": "d26_media", "states": [{"mask":0}],
		"invariant_violations": 0, "link_faults": 40, "recovered": 40,
		"zero_reroute": 20, "survivability": 1
	}`)
	if _, _, _, err := loadCampaign(rerouted, 0, 0.9); err == nil {
		t.Fatal("survive floor 0.9 accepted 50% zero-reroute coverage")
	}
}
