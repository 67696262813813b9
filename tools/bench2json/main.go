// Command bench2json converts `go test -bench` text output (on stdin)
// into a checked-in JSON record of benchmark performance, preserving
// the pre-optimization baseline so the file always carries before/after
// numbers side by side:
//
//	go test -bench=RouteAll -cpu=1,2,4 -benchmem -run='^$' . | go run ./tools/bench2json -o BENCH_routing.json
//
// The first write seeds the "baseline" section; subsequent writes
// refresh "current" and recompute the per-benchmark deltas, leaving
// the baseline untouched. Use -set baseline to re-seed deliberately
// (e.g. after re-measuring on new hardware).
//
// Results are keyed by benchmark name AND the GOMAXPROCS the lane ran
// under (the `-N` suffix go test appends), as `name@pN`. A multi-lane
// run (`go test -cpu=1,2,4`) therefore records every lane instead of
// the last one silently overwriting the rest — the measurement bug that
// once made a single-core sweep look like a healthy parallel one. The
// record carries the machine's num_cpu and the measured lanes so a
// reader can tell real parallelism from a one-lane run at a glance.
//
// Benchmarks following the `Suite/workers=K` sub-benchmark convention
// additionally get a "parallel_efficiency" section: per suite, the
// speedup of the widest workers variant over workers=1, taken from the
// widest GOMAXPROCS lane that measured both. Lanes measured at
// GOMAXPROCS=1 are never used — a "speedup" with one schedulable CPU
// is timing noise, not efficiency — so a record produced entirely on a
// single-core machine carries an efficiency_note instead of numbers.
//
// With -floor F the tool additionally asserts that every suite's
// speedup is at least F and exits nonzero otherwise, which is how the
// CI smoke run pins "parallelism actually pays". On data measured only
// at GOMAXPROCS=1 the floor is skipped with a stderr note (exit 0) —
// unless -require-procs N is also given, in which case input lacking a
// lane of at least N schedulable CPUs is a hard failure. CI on
// multi-core runners sets -require-procs so a mis-pinned runner cannot
// silently regress into the single-core skip path. Every floor that
// passes (-floor, -cache-floor, -prune-floor) prints one line giving
// its measured value next to the floor.
// Passing an empty -o checks without touching any file.
//
// With -campaign FILE a power-state fault-campaign report (written by
// `nocsynth -campaign-json`) is checked: a report with invariant
// violations always fails — a design that breaks the shutdown guarantee
// must not pass silently — and -survive-floor F additionally asserts
// the survivability contract of a k>=1 run. A campaign-only invocation
// (no benchmark lines on stdin) is valid:
//
//	nocsynth -bench d26_media -campaign -campaign-json camp.json
//	go run ./tools/bench2json -campaign camp.json -o '' </dev/null
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// result is one benchmark line: iterations plus the -benchmem triple,
// the custom pruned_frac metric the SynthesizePrune lanes report, and
// the median miss/hit ratio the SynthesizeCached/pair lane reports.
type result struct {
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	PrunedFrac  float64 `json:"pruned_frac,omitempty"`
	MissHit     float64 `json:"miss_hit,omitempty"`
}

// delta compares current against baseline for one benchmark. Ratios
// are baseline/current, so >1 means the current code is better.
type delta struct {
	NsSpeedup   float64 `json:"ns_speedup"`
	AllocsRatio float64 `json:"allocs_ratio,omitempty"`
}

// efficiency summarizes one Suite/workers=K family: the speedup of the
// widest measured worker count over workers=1 (ns(w=1)/ns(w=max)),
// within the widest GOMAXPROCS lane that measured both legs.
type efficiency struct {
	Workers int     `json:"workers"`
	Procs   int     `json:"gomaxprocs"`
	Speedup float64 `json:"speedup_vs_workers1"`
}

// cacheSummary condenses the BenchmarkSynthesizeCached lanes: the
// cold / warm timings and their ratio, and the paired ratio that
// matters — how much a full hit saves, as the median over pairs of a
// miss and a hit of the same entry timed back to back. The cold / warm
// ratio divides two lanes timed seconds apart, so contention that hits
// one lane moves it; only the paired ratio is gated (-cache-floor).
type cacheSummary struct {
	Procs          int     `json:"gomaxprocs"`
	ColdNs         float64 `json:"cold_ns_per_op,omitempty"`
	WarmNs         float64 `json:"warm_ns_per_op,omitempty"`
	FullHitSpeedup float64 `json:"full_hit_speedup,omitempty"`
	PairedSpeedup  float64 `json:"paired_full_hit_speedup,omitempty"`
}

// pruneSummary condenses the SynthesizePrune lanes: the branch-and-
// bound sweep against the exhaustive one on the same candidate space,
// at matching GOMAXPROCS. Unlike the workers= efficiency numbers this
// speedup is algorithmic, not parallel, so a GOMAXPROCS=1 lane is a
// perfectly valid measurement.
type pruneSummary struct {
	Procs      int     `json:"gomaxprocs"`
	PruneNs    float64 `json:"prune_ns_per_op"`
	NoPruneNs  float64 `json:"noprune_ns_per_op"`
	PrunedFrac float64 `json:"pruned_frac"`
	Speedup    float64 `json:"speedup_vs_noprune"`
}

type record struct {
	// GoMaxProcs is the widest GOMAXPROCS lane of the most recent write;
	// NumCPU the runtime.NumCPU of the measuring machine; Lanes every
	// lane measured. Together they tell a reader whether the efficiency
	// numbers could possibly mean anything: gomaxprocs=1 on num_cpu=1 is
	// a machine that cannot measure parallelism, not a regression.
	GoMaxProcs int               `json:"gomaxprocs,omitempty"`
	NumCPU     int               `json:"num_cpu,omitempty"`
	Lanes      []int             `json:"gomaxprocs_lanes,omitempty"`
	Baseline   map[string]result `json:"baseline,omitempty"`
	Current    map[string]result `json:"current,omitempty"`
	Delta      map[string]delta  `json:"delta,omitempty"`
	// Efficiency is computed from Current when present, else Baseline.
	// It is never computed from GOMAXPROCS=1 lanes; EfficiencyNote says
	// so when that leaves nothing to report.
	Efficiency     map[string]efficiency `json:"parallel_efficiency,omitempty"`
	EfficiencyNote string                `json:"efficiency_note,omitempty"`
	// Cache holds the SynthesizeCached cold/warm and paired ratios,
	// computed from Current when present, else Baseline.
	Cache *cacheSummary `json:"cache,omitempty"`
	// Prune holds the SynthesizePrune branch-and-bound ratios, computed
	// from Current when present, else Baseline.
	Prune *pruneSummary `json:"prune,omitempty"`
}

func main() {
	out := flag.String("o", "BENCH_routing.json", "output JSON file (merged in place); empty checks without writing")
	section := flag.String("set", "auto", "section to write: baseline|current|auto (auto seeds the baseline on first run)")
	floor := flag.Float64("floor", 0, "fail unless every workers= suite on stdin reaches this speedup over workers=1 (skipped with a note on GOMAXPROCS=1 data)")
	requireProcs := flag.Int("require-procs", 0, "with -floor: fail unless the input has a GOMAXPROCS lane of at least this width")
	campaignPath := flag.String("campaign", "", "check a fault-campaign JSON report (nocsynth -campaign-json): fail on any shutdown-invariant violation")
	surviveFloor := flag.Float64("survive-floor", 0, "fail unless the -campaign report came from a survivability>=1 run with no non-recoverable link fault and a zero-re-route fraction of at least this value")
	cacheFloor := flag.Float64("cache-floor", 0, "fail unless the SynthesizeCached/pair lane on stdin shows at least this median miss/hit full-hit speedup")
	pruneFloor := flag.Float64("prune-floor", 0, "fail unless the SynthesizePrune lanes on stdin show at least this speedup over the exhaustive sweep, with a nonzero pruned fraction")
	flag.Parse()

	results, lanes, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	if len(results) == 0 && *campaignPath == "" {
		fmt.Fprintln(os.Stderr, "bench2json: no benchmark lines on stdin")
		os.Exit(1)
	}
	maxProcs := 0
	if len(lanes) > 0 {
		maxProcs = lanes[len(lanes)-1]
	}
	if *floor > 0 {
		switch {
		case *requireProcs > 1 && maxProcs < *requireProcs:
			fmt.Fprintf(os.Stderr, "bench2json: -require-procs %d: widest measured lane is gomaxprocs=%d — run with -cpu including a lane of at least %d\n",
				*requireProcs, maxProcs, *requireProcs)
			os.Exit(1)
		case maxProcs <= 1:
			fmt.Fprintf(os.Stderr, "bench2json: note: -floor %.2f skipped — benchmarks measured at gomaxprocs=1, where a parallel speedup cannot exist; set -require-procs on multi-core runners to make this a failure\n", *floor)
		default:
			mustPass(assertFloor(results, *floor))
		}
	}
	if *cacheFloor > 0 {
		mustPass(assertCacheFloor(results, *cacheFloor))
	}
	if *pruneFloor > 0 {
		mustPass(assertPruneFloor(results, *pruneFloor))
	}
	if *campaignPath != "" {
		if err := loadCampaign(*campaignPath, *surviveFloor); err != nil {
			fmt.Fprintln(os.Stderr, "bench2json:", err)
			os.Exit(1)
		}
	} else if *surviveFloor > 0 {
		fmt.Fprintln(os.Stderr, "bench2json: -survive-floor requires -campaign FILE")
		os.Exit(1)
	}
	if *out == "" {
		fmt.Printf("[checked %d benchmarks, no output file]\n", len(results))
		return
	}

	var rec record
	if data, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(data, &rec); err != nil {
			fmt.Fprintf(os.Stderr, "bench2json: %s: %v\n", *out, err)
			os.Exit(1)
		}
	}

	dst := *section
	if dst == "auto" {
		if len(rec.Baseline) == 0 {
			dst = "baseline"
		} else {
			dst = "current"
		}
	}
	if len(results) > 0 {
		switch dst {
		case "baseline":
			rec.Baseline = results
		case "current":
			rec.Current = results
		default:
			fmt.Fprintf(os.Stderr, "bench2json: unknown -set %q\n", dst)
			os.Exit(1)
		}
		rec.Delta = deltas(rec.Baseline, rec.Current)
		rec.GoMaxProcs = maxProcs
		rec.NumCPU = runtime.NumCPU()
		rec.Lanes = lanes
		src := rec.Current
		if len(src) == 0 {
			src = rec.Baseline
		}
		rec.Efficiency = efficiencies(src)
		rec.EfficiencyNote = ""
		if len(rec.Efficiency) == 0 && hasWorkerSuites(src) {
			rec.EfficiencyNote = "not computed: every workers= lane was measured at gomaxprocs=1, which cannot exhibit parallel speedup"
		}
		if cs := cacheSummaryFrom(src); cs != nil {
			rec.Cache = cs
		}
		if ps := pruneSummaryFrom(src); ps != nil {
			rec.Prune = ps
		}
	}

	data, err := json.MarshalIndent(&rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	fmt.Printf("[wrote %s: %d benchmarks into %q]\n", *out, len(results), dst)
}

// loadCampaign reads a campaign report written by `nocsynth
// -campaign-json` and verifies it: zero invariant violations always,
// and the survivability contract when surviveFloor > 0.
//
// surviveFloor asserts the zero-re-route guarantee the -survive k
// synthesis promises: the report must come from a k>=1 run, every
// composed link fault must be recoverable (one non-recoverable fault is
// a hard failure regardless of the fraction), and the fraction absorbed
// with zero re-routing must reach the floor.
func loadCampaign(path string, surviveFloor float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// The shape mirrors fault.Campaign's JSON; only the aggregate fields
	// are read, so the per-state detail can evolve independently.
	var rep struct {
		Design              string            `json:"design"`
		States              []json.RawMessage `json:"states"`
		InvariantViolations int               `json:"invariant_violations"`
		LinkFaults          int               `json:"link_faults"`
		Recovered           int               `json:"recovered"`
		ZeroReroute         int               `json:"zero_reroute"`
		Survivability       int               `json:"survivability"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rep.Design == "" || len(rep.States) == 0 {
		return fmt.Errorf("%s: not a campaign report (no design or states)", path)
	}
	if rep.InvariantViolations != 0 {
		return fmt.Errorf("%s: %s violates the shutdown invariant in %d power state(s)",
			path, rep.Design, rep.InvariantViolations)
	}
	if surviveFloor <= 0 {
		return nil
	}
	zeroFrac := 1.0
	if rep.LinkFaults > 0 {
		zeroFrac = round2(float64(rep.ZeroReroute) / float64(rep.LinkFaults))
	}
	switch {
	case rep.Survivability < 1:
		return fmt.Errorf("%s: -survive-floor %.2f: report was not produced by a survivability>=1 run",
			path, surviveFloor)
	case rep.Recovered < rep.LinkFaults:
		return fmt.Errorf("%s: %s has %d non-recoverable link fault(s) — a survivability>=1 design must absorb every single-link fault",
			path, rep.Design, rep.LinkFaults-rep.Recovered)
	case zeroFrac < surviveFloor:
		return fmt.Errorf("%s: %s zero-re-route fraction %.2f below the %.2f floor (%d/%d faults needed re-routing)",
			path, rep.Design, zeroFrac, surviveFloor, rep.LinkFaults-rep.ZeroReroute, rep.LinkFaults)
	}
	return nil
}

// parseBench extracts benchmark result lines from `go test -bench`
// output. Lines look like
//
//	BenchmarkRouteAll/d26_media-4   8527   118499 ns/op   56082 B/op   770 allocs/op
//
// where the -4 suffix is the GOMAXPROCS the lane ran under (omitted by
// go test when it is 1). The suffix becomes part of the key — the
// record key is `RouteAll/d26_media@p4` — so a `-cpu=1,2,4` run yields
// one record per lane instead of the lanes overwriting each other.
// Repeated lines for one key (a `-count N` run) fold into one record
// holding the median of each field, so a single slow repeat cannot
// decide a floor. The sorted set of distinct lanes is returned
// alongside.
func parseBench(r io.Reader) (map[string]result, []int, error) {
	reps := make(map[string][]result)
	laneSet := make(map[int]bool)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		procs := 1
		if i := strings.LastIndex(name, "-"); i > 0 {
			if p, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
				procs = p
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // header or summary line, not a result
		}
		res := result{Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				res.NsPerOp, err = strconv.ParseFloat(val, 64)
			case "B/op":
				res.BytesPerOp, err = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				res.AllocsPerOp, err = strconv.ParseInt(val, 10, 64)
			case "pruned_frac":
				res.PrunedFrac, err = strconv.ParseFloat(val, 64)
			case "miss/hit":
				res.MissHit, err = strconv.ParseFloat(val, 64)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("parsing %q: %w", sc.Text(), err)
			}
		}
		key := fmt.Sprintf("%s@p%d", name, procs)
		reps[key] = append(reps[key], res)
		laneSet[procs] = true
	}
	out := make(map[string]result, len(reps))
	for key, rs := range reps {
		out[key] = medianResult(rs)
	}
	var lanes []int
	for p := range laneSet {
		lanes = append(lanes, p)
	}
	sort.Ints(lanes)
	return out, lanes, sc.Err()
}

// medianResult folds the repeats of one benchmark into a record whose
// every field is the median of that field over the repeats (the mean
// of the middle two for an even count).
func medianResult(rs []result) result {
	median := func(field func(result) float64) float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = field(r)
		}
		sort.Float64s(v)
		n := len(v)
		return (v[(n-1)/2] + v[n/2]) / 2
	}
	return result{
		Iterations:  int64(median(func(r result) float64 { return float64(r.Iterations) })),
		NsPerOp:     median(func(r result) float64 { return r.NsPerOp }),
		BytesPerOp:  int64(median(func(r result) float64 { return float64(r.BytesPerOp) })),
		AllocsPerOp: int64(median(func(r result) float64 { return float64(r.AllocsPerOp) })),
		PrunedFrac:  median(func(r result) float64 { return r.PrunedFrac }),
		MissHit:     median(func(r result) float64 { return r.MissHit }),
	}
}

// splitKey parses a `suite/workers=K@pN` record key. ok is false for
// keys without a workers= leg.
func splitKey(key string) (suite string, workers, procs int, ok bool) {
	procs = 1
	if i := strings.LastIndex(key, "@p"); i >= 0 {
		p, err := strconv.Atoi(key[i+2:])
		if err != nil {
			return "", 0, 0, false
		}
		procs = p
		key = key[:i]
	}
	i := strings.LastIndex(key, "/workers=")
	if i < 0 {
		return "", 0, 0, false
	}
	w, err := strconv.Atoi(key[i+len("/workers="):])
	if err != nil {
		return "", 0, 0, false
	}
	return key[:i], w, procs, true
}

// hasWorkerSuites reports whether any record key follows the
// Suite/workers=K convention, at any lane.
func hasWorkerSuites(results map[string]result) bool {
	for key := range results {
		if _, _, _, ok := splitKey(key); ok {
			return true
		}
	}
	return false
}

// efficiencies pairs every `Suite/workers=K` family's workers=1 timing
// with its widest workers variant, within the widest GOMAXPROCS lane
// (>1) that measured both legs. Lanes at gomaxprocs=1 are ignored
// entirely: one schedulable CPU cannot exhibit parallel speedup, and a
// record pretending otherwise is how a scaling regression hides.
func efficiencies(results map[string]result) map[string]efficiency {
	type legs struct {
		w1     float64
		maxW   int
		maxWNs float64
	}
	// lane key: suite + procs
	type laneKey struct {
		suite string
		procs int
	}
	suiteLanes := make(map[laneKey]*legs)
	for key, r := range results {
		suite, w, procs, ok := splitKey(key)
		if !ok || procs <= 1 || r.NsPerOp <= 0 {
			continue
		}
		lk := laneKey{suite, procs}
		l := suiteLanes[lk]
		if l == nil {
			l = &legs{}
			suiteLanes[lk] = l
		}
		if w == 1 {
			l.w1 = r.NsPerOp
		}
		if w > l.maxW {
			l.maxW = w
			l.maxWNs = r.NsPerOp
		}
	}
	out := make(map[string]efficiency)
	for lk, l := range suiteLanes {
		if l.w1 <= 0 || l.maxW <= 1 {
			continue
		}
		if prev, ok := out[lk.suite]; ok && prev.Procs >= lk.procs {
			continue // keep the widest lane per suite
		}
		out[lk.suite] = efficiency{Workers: l.maxW, Procs: lk.procs, Speedup: round2(l.w1 / l.maxWNs)}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// cacheSummaryFrom extracts the SynthesizeCached/{cold,warm,pair} lanes
// from a result set and condenses them into the cold/warm and paired
// full-hit speedups, using the widest GOMAXPROCS lane that measured
// cold and warm or the pair. nil when no such lane is present.
func cacheSummaryFrom(results map[string]result) *cacheSummary {
	perLane := make(map[int]*cacheSummary)
	for key, r := range results {
		procs := 1
		if i := strings.LastIndex(key, "@p"); i >= 0 {
			p, err := strconv.Atoi(key[i+2:])
			if err != nil {
				continue
			}
			procs = p
			key = key[:i]
		}
		lane, ok := strings.CutPrefix(key, "SynthesizeCached/")
		if !ok || r.NsPerOp <= 0 {
			continue
		}
		cs := perLane[procs]
		if cs == nil {
			cs = &cacheSummary{Procs: procs}
			perLane[procs] = cs
		}
		switch lane {
		case "cold":
			cs.ColdNs = r.NsPerOp
		case "warm":
			cs.WarmNs = r.NsPerOp
		case "pair":
			cs.PairedSpeedup = round2(r.MissHit)
		}
	}
	var best *cacheSummary
	for _, cs := range perLane {
		if cs.ColdNs > 0 && cs.WarmNs > 0 {
			cs.FullHitSpeedup = round2(cs.ColdNs / cs.WarmNs)
		}
		if cs.FullHitSpeedup <= 0 && cs.PairedSpeedup <= 0 {
			continue
		}
		if best == nil || cs.Procs > best.Procs {
			best = cs
		}
	}
	return best
}

// pruneSummaryFrom extracts the SynthesizePrune/<space>/{prune,noprune}
// lanes from a result set and condenses them into the branch-and-bound
// speedup, using the widest GOMAXPROCS lane that measured both legs.
// nil when either leg is absent.
func pruneSummaryFrom(results map[string]result) *pruneSummary {
	perLane := make(map[int]*pruneSummary)
	for key, r := range results {
		procs := 1
		if i := strings.LastIndex(key, "@p"); i >= 0 {
			p, err := strconv.Atoi(key[i+2:])
			if err != nil {
				continue
			}
			procs = p
			key = key[:i]
		}
		rest, ok := strings.CutPrefix(key, "SynthesizePrune/")
		if !ok || r.NsPerOp <= 0 {
			continue
		}
		ps := perLane[procs]
		if ps == nil {
			ps = &pruneSummary{Procs: procs}
			perLane[procs] = ps
		}
		switch {
		case strings.HasSuffix(rest, "/prune"):
			ps.PruneNs = r.NsPerOp
			ps.PrunedFrac = r.PrunedFrac
		case strings.HasSuffix(rest, "/noprune"):
			ps.NoPruneNs = r.NsPerOp
		}
	}
	var best *pruneSummary
	for _, ps := range perLane {
		if ps.PruneNs <= 0 || ps.NoPruneNs <= 0 {
			continue
		}
		if best == nil || ps.Procs > best.Procs {
			best = ps
		}
	}
	if best == nil {
		return nil
	}
	best.Speedup = round2(best.NoPruneNs / best.PruneNs)
	return best
}

// mustPass prints the line a passed floor check reports, or exits
// nonzero with its error.
func mustPass(line string, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench2json:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

// assertFloor enforces the parallel-efficiency floor over the parsed
// input: every workers= suite must reach the given speedup, measured
// on a lane with more than one schedulable CPU. It judges the slowest
// suite (the first by name among equals) and, when it passes, returns
// the line that reports its speedup and the floor. Callers guard the
// gomaxprocs=1 case before calling.
func assertFloor(results map[string]result, floor float64) (string, error) {
	effs := efficiencies(results)
	if len(effs) == 0 {
		return "", fmt.Errorf("-floor %.2f: no Suite/workers=K benchmarks measured at gomaxprocs>1 on stdin", floor)
	}
	suites := make([]string, 0, len(effs))
	for suite := range effs {
		suites = append(suites, suite)
	}
	sort.Strings(suites)
	slowest := slices.MinFunc(suites, func(a, b string) int { return cmp.Compare(effs[a].Speedup, effs[b].Speedup) })
	e := effs[slowest]
	if e.Speedup < floor {
		return "", fmt.Errorf("parallel efficiency floor violated: %s workers=%d@p%d speedup %.2f < %.2f",
			slowest, e.Workers, e.Procs, e.Speedup, floor)
	}
	return fmt.Sprintf("[parallel speedup %.2f (%s workers=%d@p%d over workers=1, slowest of %d suites), floor %.2f]",
		e.Speedup, slowest, e.Workers, e.Procs, len(suites), floor), nil
}

// assertCacheFloor enforces the full-hit floor on the paired
// SynthesizeCached/pair lane and, when it passes, returns the line that
// reports the speedup and the floor.
func assertCacheFloor(results map[string]result, floor float64) (string, error) {
	cs := cacheSummaryFrom(results)
	switch {
	case cs == nil || cs.PairedSpeedup <= 0:
		return "", fmt.Errorf("-cache-floor %.2f: no SynthesizeCached/pair lane with a miss/hit metric on stdin", floor)
	case cs.PairedSpeedup < floor:
		return "", fmt.Errorf("cache full-hit speedup %.2f (median miss/hit over pairs) below the %.2f floor",
			cs.PairedSpeedup, floor)
	}
	return fmt.Sprintf("[cache full-hit speedup %.2f (median miss/hit over pairs), floor %.2f]", cs.PairedSpeedup, floor), nil
}

// assertPruneFloor enforces the branch-and-bound floor on the
// SynthesizePrune lanes, which must also show a nonzero pruned
// fraction, and when it passes returns the line that reports the
// speedup and the floor.
func assertPruneFloor(results map[string]result, floor float64) (string, error) {
	ps := pruneSummaryFrom(results)
	switch {
	case ps == nil:
		return "", fmt.Errorf("-prune-floor %.2f: no SynthesizePrune prune+noprune lanes on stdin", floor)
	case ps.PrunedFrac <= 0:
		return "", fmt.Errorf("prune lane reported a zero pruned fraction — the branch-and-bound layer never fired")
	case ps.Speedup < floor:
		return "", fmt.Errorf("prune speedup %.2f below the %.2f floor (prune %.0f ns, noprune %.0f ns)",
			ps.Speedup, floor, ps.PruneNs, ps.NoPruneNs)
	}
	return fmt.Sprintf("[prune speedup %.2f (noprune %.0f ns / prune %.0f ns, pruned fraction %.2f), floor %.2f]",
		ps.Speedup, ps.NoPruneNs, ps.PruneNs, ps.PrunedFrac, floor), nil
}

// deltas pairs up benchmarks present in both sections.
func deltas(base, cur map[string]result) map[string]delta {
	if len(base) == 0 || len(cur) == 0 {
		return nil
	}
	out := make(map[string]delta)
	for name, b := range base {
		c, ok := cur[name]
		if !ok || c.NsPerOp == 0 { //noclint:ignore floateq exact zero ns/op guards the speedup division
			continue
		}
		d := delta{NsSpeedup: round2(b.NsPerOp / c.NsPerOp)}
		if c.AllocsPerOp > 0 {
			d.AllocsRatio = round2(float64(b.AllocsPerOp) / float64(c.AllocsPerOp))
		}
		out[name] = d
	}
	return out
}

func round2(x float64) float64 {
	return float64(int64(x*100+0.5)) / 100
}
