package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"nocvi/internal/model"
)

// The quality metrics average the results of the first qualityOps timed
// ops. Those ops' inputs are fixed by the seed, so the averages are a
// pure function of the code and the seed, bit for bit; a mean over all
// ops would depend, in its last bits, on how many ops the run had time
// for.
const qualityOps = 16

// config is one benchmark run.
type config struct {
	workload     string
	seed         uint64
	seconds      float64 // busy time to measure; ignored when ops > 0
	ops          int     // stop after this many timed ops
	setupSeconds float64 // time spent in timed set-ups, at least one
	trace        bool
	workers      int
	tmp          string // parent of the run's private directory
	spans        string // traced runs: write spans here as JSON lines
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// opP50Ms is the untraced ops' median time, which -o records for
	// -compare beside the end-to-end metrics.
	opP50Ms float64
}

// counters are the process-wide totals sampled around each op.
type counters struct {
	cpuNs, allocBytes, gcCycles uint64
}

var counterSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}

// cpuNs is the user plus system time the process has used.
func cpuNs() uint64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //noclint:ignore errdrop besteffort: RUSAGE_SELF cannot fail
	return uint64(ru.Utime.Nano() + ru.Stime.Nano())
}

func readCounters() counters {
	metrics.Read(counterSamples)
	return counters{
		cpuNs:      cpuNs(),
		allocBytes: counterSamples[0].Value.Uint64(),
		gcCycles:   counterSamples[1].Value.Uint64(),
	}
}

func (c counters) sub(o counters) counters {
	return counters{c.cpuNs - o.cpuNs, c.allocBytes - o.allocBytes, c.gcCycles - o.gcCycles}
}

func (c *counters) addTo(d counters) {
	c.cpuNs += d.cpuNs
	c.allocBytes += d.allocBytes
	c.gcCycles += d.gcCycles
}

// run sets the workload up, measures it and returns its result. Progress
// and failures are logged to log. An error means the workload could not
// be set up at all.
func run(cfg config, log io.Writer) (*result, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.tmp, 0o777); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.tmp, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp) //noclint:ignore errdrop besteffort: leftover scratch stores only cost disk space
	e := &env{ctx: context.Background(), lib: model.Default65nm(), seed: cfg.seed, workers: cfg.workers, tmp: tmp}
	inst, err := wl.new(e)
	if err != nil {
		return nil, fmt.Errorf("%s fixture: %w", wl.name, err)
	}
	// setup_s is the fastest of many set-ups. Their times are bimodal,
	// slow in stretches of many set-ups in a row, so a run's median lands
	// in either mode (synth-suite's moved 40% between two sets of ten
	// runs), while the fastest is the set-up's own cost (its median over
	// ten runs moved at most 5.3% between two sets). The warm-up op below
	// is not part of a set-up: its time is an op's time.
	setupS := math.Inf(1)
	for start := time.Now(); math.IsInf(setupS, 1) || time.Since(start).Seconds() < cfg.setupSeconds; {
		t0 := time.Now()
		if err := inst.setup(); err != nil {
			return nil, fmt.Errorf("%s setup: %w", wl.name, err)
		}
		setupS = min(setupS, time.Since(t0).Seconds())
	}

	correct := true
	got, err := inst.reference()
	if err != nil {
		fmt.Fprintf(log, "reference: %v\n", err)
		correct = false
	} else if cfg.seed == 0 {
		if err := checkGoldens(wl.name, got); err != nil {
			fmt.Fprintf(log, "golden: %v\n", err)
			correct = false
		}
	}
	// One untimed op lets pools fill and lazy set-up finish.
	o, err := inst.op(nil)
	if err == nil {
		err = inst.check(o)
	}
	if err != nil {
		return nil, fmt.Errorf("%s warm-up op: %w", wl.name, err)
	}

	var rec *tracer
	if cfg.trace {
		rec = newTracer(cfg.spans != "")
	}
	var (
		plainLat, tracedLat []float64 // ms
		busy                time.Duration
		tot                 counters
		failed              int
		powerW, latCyc      []float64
		last                *outcome
		firstEvictions      int64
		// Over the untraced ops only.
		plainBusy     time.Duration
		plainCPUNs    uint64
		plainExplored int
	)
	for n := 0; cfg.ops > 0 && n < cfg.ops || cfg.ops == 0 && busy.Seconds() < cfg.seconds; n++ {
		// A traced run traces every other op. The untraced ones in
		// between give its timing metrics and trace.overhead_frac.
		var tr *tracer
		if rec != nil && n%2 == 0 {
			tr, rec.op = rec, n+1
		}
		c0 := readCounters()
		t0 := time.Now()
		tr.start()
		o, err := inst.op(tr)
		tr.stop("op")
		d := time.Since(t0)
		used := readCounters().sub(c0)
		tot.addTo(used)
		busy += d
		ms := float64(d) / 1e6
		if tr != nil {
			tracedLat = append(tracedLat, ms)
		} else {
			plainLat = append(plainLat, ms)
			plainBusy += d
			plainCPUNs += used.cpuNs
		}

		if err == nil {
			err = inst.check(o)
		}
		if err != nil {
			failed++
			fmt.Fprintf(log, "op %d failed: %v\n", n, err)
			continue
		}
		if last == nil {
			firstEvictions = o.evictions
		}
		last = o
		if n < qualityOps {
			powerW = append(powerW, o.bestPowerW...)
			latCyc = append(latCyc, o.bestLatCyc...)
		}
		if tr == nil {
			plainExplored += o.explored
			continue
		}
		tr.countOutcome(o)
		if err := tr.timed("replay", func() error { return inst.replay(o, tr) }); err != nil {
			fmt.Fprintf(log, "op %d replay: %v\n", n, err)
			correct = false
		}
	}

	ops := len(plainLat) + len(tracedLat)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //noclint:ignore errdrop besteffort: RUSAGE_SELF cannot fail
	vals := map[string]float64{
		"setup_s":          setupS,
		"alloc_mb_per_op":  div(float64(tot.allocBytes)/1e6, float64(ops)),
		"noc_power_mw":     mean(powerW) * 1e3,
		"mean_latency_cyc": mean(latCyc),
		"op_p50_ms":        median(plainLat),
		"op_p90_ms":        quantile(plainLat, 0.9),
		"ops_per_s":        div(float64(len(plainLat)), plainBusy.Seconds()),
		"candidates_per_s": div(float64(plainExplored), plainBusy.Seconds()),
		"cpu_ms_per_op":    div(float64(plainCPUNs)/1e6, float64(len(plainLat))),
		"peak_rss_mb":      float64(ru.Maxrss) * 1024 / 1e6,
	}

	declared := endToEnd
	if rec != nil {
		declared = perLayer
		for name, v := range rec.layerMetrics() {
			vals[name] = v
		}
		vals["runtime.gc_per_op"] = div(float64(tot.gcCycles), float64(ops))
		vals["trace.overhead_frac"] = div(median(tracedLat), vals["op_p50_ms"]) - 1
		var evictions, storeBytes int64
		if last != nil {
			evictions, storeBytes = last.evictions-firstEvictions, last.storeBytes
		}
		vals["cache.evictions_per_op"] = div(float64(evictions), float64(ops))
		vals["cache.store_mb"] = float64(storeBytes) / 1e6
		if cfg.spans != "" {
			if err := rec.writeSpans(cfg.spans); err != nil {
				return nil, err
			}
		}
	}
	res := &result{Correct: correct && failed == 0, Attempted: ops, Failed: failed, Metrics: map[string]value{}, opP50Ms: vals["op_p50_ms"]}
	for _, m := range declared {
		v, ok := vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = value{v, m.Unit}
	}
	return res, nil
}

// countOutcome records an op's engine, cache and fault counts at the op
// boundary.
func (t *tracer) countOutcome(o *outcome) {
	t.add("ops", 1)
	t.add("core.explored", float64(o.explored))
	t.add("core.evaluated", float64(o.prune.Evaluated))
	t.add("core.bound_pruned", float64(o.prune.BoundPruned))
	t.add("core.stage_pruned", float64(o.prune.StagePruned))
	t.add("core.feasible", float64(o.prune.Feasible))
	if o.variant != nil {
		t.add("cache.ops", 1)
		if o.hit {
			t.add("cache.hits", 1)
		} else {
			t.add("cache.warm_starts", float64(o.warmStarts))
		}
	}
	for _, c := range o.camps {
		t.add("fault.states", float64(len(c.States)))
		t.add("fault.link_faults", float64(c.LinkFaults))
		t.add("fault.recovered", float64(c.Recovered))
		t.add("fault.zero_reroute", float64(c.ZeroReroute))
	}
}

// stageSpans are the replayed stages of the engine's per-candidate
// pipeline, plus the per-result preparation the engine also does once.
var stageSpans = []string{"replay.prep", "partition", "topology.build", "route", "deadlock", "topology.validate", "floorplan", "power"}

// layerMetrics derives the per-layer numbers from the traced ops' spans
// and counts. Per-op numbers divide by traced ops, per-candidate numbers
// by replayed design points, and a layer a workload never calls reads 0.
func (t *tracer) layerMetrics() map[string]float64 {
	c := t.counts
	self := t.self
	ops, cands := c["ops"], c["replay.cands"]
	engineNs := float64(t.total["core.synthesize"] + t.total["core.sweep"] + t.total["cache.miss"])
	var stageNs float64
	for _, s := range stageSpans {
		stageNs += float64(self[s])
	}
	// The replay is serial and the engine's workers are not, so the
	// stage sum is set against the engine's CPU time.
	unexplained := 0.0
	if cpu := c["core.engine_cpu_ns"]; cpu > 0 {
		unexplained = 1 - stageNs/cpu
	}
	usPer := func(span string, n float64) float64 { return div(float64(self[span])/1e3, n) }
	misses := c["cache.ops"] - c["cache.hits"]
	return map[string]float64{
		"core.engine_ms_per_op":         div(engineNs/1e6, ops),
		"core.explored_per_op":          div(c["core.explored"], ops),
		"core.evaluated_per_op":         div(c["core.evaluated"], ops),
		"core.bound_pruned_per_op":      div(c["core.bound_pruned"], ops),
		"core.stage_pruned_per_op":      div(c["core.stage_pruned"], ops),
		"core.pruned_frac":              div(c["core.bound_pruned"]+c["core.stage_pruned"], c["core.explored"]),
		"core.feasible_frac":            div(c["core.feasible"], c["core.explored"]),
		"core.unexplained_frac":         unexplained,
		"partition.calls_per_op":        div(c["partition.calls"], ops),
		"partition.us_per_call":         usPer("partition", c["partition.calls"]),
		"partition.ms_per_op":           usPer("partition", ops) / 1e3,
		"route.us_per_cand":             usPer("route", cands),
		"route.flows_per_cand":          div(c["route.flows"], cands),
		"route.backups_per_cand":        div(c["route.backups"], cands),
		"deadlock.us_per_cand":          usPer("deadlock", cands),
		"power.us_per_cand":             usPer("power", cands),
		"floorplan.us_per_cand":         usPer("floorplan", cands),
		"topology.build_us_per_cand":    usPer("topology.build", cands),
		"topology.validate_us_per_cand": usPer("topology.validate", cands),
		"cache.key_us":                  usPer("cache.key", c["cache.replays"]),
		"cache.get_us":                  usPer("cache.get", c["cache.replays"]),
		"cache.decode_us":               usPer("cache.decode", c["cache.replays"]),
		"cache.encode_us":               usPer("cache.encode", c["cache.replays"]),
		"cache.put_us":                  usPer("cache.put", c["cache.replays"]),
		"cache.warm_starts_per_miss":    div(c["cache.warm_starts"], misses),
		"cache.blob_kb":                 div(c["cache.blob_bytes"]/1e3, c["cache.replays"]),
		"fault.ms_per_op":               usPer("fault.campaign", ops) / 1e3,
		"fault.states_per_op":           div(c["fault.states"], ops),
		"fault.link_faults_per_op":      div(c["fault.link_faults"], ops),
		"fault.recovered_frac":          div(c["fault.recovered"], c["fault.link_faults"]),
		"fault.zero_reroute_frac":       div(c["fault.zero_reroute"], c["fault.link_faults"]),
		"replay.cands_per_op":           div(cands, ops),
	}
}

// --- statistics ---

func div(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return div(s, float64(len(xs)))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// quartiles are Python's statistics.quantiles(xs, n=4): the exclusive
// method, the one the run-to-run spreads are judged with.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var q [3]float64
	switch n {
	case 0:
		return q
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
