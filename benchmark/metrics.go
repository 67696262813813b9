package main

// metric declares one reported number. The end-to-end and per-layer
// tables below are the benchmark's contract: BENCHMARK.json at the
// repository root repeats them, and TestDeclaredNamesMatch keeps the two
// equal.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the synthesis engine sees, reported
// by the untraced run. Bound is the share of the baseline median by
// which a metric may worsen before a change counts as a regression.
//
// The quality metrics are exact for a given seed: the seed-0 goldens and
// the NoPrune/Workers=1 oracle check them bit for bit, and -compare
// requires runs of the same seed to agree exactly (exactPerSeed). Their
// bound only absorbs the shift between the seeds of two sets of runs.
//
// Op times are not here: on the shared 2-vCPU guest the benchmark was
// built on, their median moved up to 35% between two sets of ten runs of
// the same code, more than any bound up to 0.25 holds. They are
// per-layer metrics, and -compare judges op_p50_ms by paired runs
// instead (pairedVerdict). The peak resident set, which depends on when
// the collector runs, is per-layer too.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.05},
	{"noc_power_mw", "mW", "lower", 0.025},
	{"mean_latency_cyc", "cycles", "lower", 0.01},
}

// exactPerSeed are the end-to-end metrics that are a pure function of
// the code and the seed.
var exactPerSeed = map[string]bool{"noc_power_mw": true, "mean_latency_cyc": true}

// perLayer are the traced run's numbers: first the whole-op numbers and
// the process's peak resident set, the timings taken over the run's
// untraced ops, then the layers, grouped by the module whose public
// calls they time or count. None has a bound. README.md maps each to the
// workload and whole-op number it should move.
var perLayer = []metric{
	{Name: "op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "candidates_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "core.engine_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "core.explored_per_op", Unit: "count", Better: "higher"},
	{Name: "core.evaluated_per_op", Unit: "count", Better: "lower"},
	{Name: "core.bound_pruned_per_op", Unit: "count", Better: "higher"},
	{Name: "core.stage_pruned_per_op", Unit: "count", Better: "higher"},
	{Name: "core.pruned_frac", Unit: "fraction", Better: "higher"},
	{Name: "core.feasible_frac", Unit: "fraction", Better: "higher"},
	{Name: "core.unexplained_frac", Unit: "fraction", Better: "lower"},
	{Name: "partition.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "partition.us_per_call", Unit: "us", Better: "lower"},
	{Name: "partition.ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "route.us_per_cand", Unit: "us", Better: "lower"},
	{Name: "route.flows_per_cand", Unit: "count", Better: "lower"},
	{Name: "route.backups_per_cand", Unit: "count", Better: "lower"},
	{Name: "deadlock.us_per_cand", Unit: "us", Better: "lower"},
	{Name: "power.us_per_cand", Unit: "us", Better: "lower"},
	{Name: "floorplan.us_per_cand", Unit: "us", Better: "lower"},
	{Name: "topology.build_us_per_cand", Unit: "us", Better: "lower"},
	{Name: "topology.validate_us_per_cand", Unit: "us", Better: "lower"},
	{Name: "cache.key_us", Unit: "us", Better: "lower"},
	{Name: "cache.get_us", Unit: "us", Better: "lower"},
	{Name: "cache.decode_us", Unit: "us", Better: "lower"},
	{Name: "cache.encode_us", Unit: "us", Better: "lower"},
	{Name: "cache.put_us", Unit: "us", Better: "lower"},
	{Name: "cache.warm_starts_per_miss", Unit: "count", Better: "higher"},
	{Name: "cache.blob_kb", Unit: "KB", Better: "lower"},
	{Name: "cache.evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "cache.store_mb", Unit: "MB", Better: "lower"},
	{Name: "fault.ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "fault.states_per_op", Unit: "count", Better: "lower"},
	{Name: "fault.link_faults_per_op", Unit: "count", Better: "lower"},
	{Name: "fault.recovered_frac", Unit: "fraction", Better: "higher"},
	{Name: "fault.zero_reroute_frac", Unit: "fraction", Better: "higher"},
	{Name: "runtime.gc_per_op", Unit: "count", Better: "lower"},
	{Name: "replay.cands_per_op", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower"},
}

// worseBy returns how much worse head is than base, as a share of base:
// positive means a regression in the metric's direction.
func (m metric) worseBy(base, head float64) float64 {
	if base == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (base - head) / base
	}
	return (head - base) / base
}
