package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"nocvi/internal/model"
)

var update = flag.Bool("update", false, "regenerate testdata/golden.json from seed-0 references")

// declared is the part of BENCHMARK.json the binary must agree with.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

var (
	nameGrammar = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitGrammar = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestDeclaredNamesMatch(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range d.Workloads {
		wls = append(wls, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if strings.Join(wls, " ") != strings.Join(code, " ") {
		t.Errorf("BENCHMARK.json workloads %v, binary runs %v", wls, code)
	}
	if !equalMetrics(d.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v, binary emits %+v", d.EndToEnd, endToEnd)
	}
	if !equalMetrics(d.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %+v, binary emits %+v", d.PerLayer, perLayer)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, name := range append(append(wls, names(endToEnd)...), names(perLayer)...) {
		if !nameGrammar.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !unitGrammar.MatchString(m.Unit) || m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: unit %q or direction %q is malformed", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > endToEnd[0].Bound {
			t.Errorf("%s: bound %v must lie in (0, setup_s's %v]", m.Name, m.Bound, endToEnd[0].Bound)
		}
	}
}

func names(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

func equalMetrics(a, b []metric) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmoke runs every workload for two ops untraced at seed 0, where
// the goldens apply, and traced at a held-out seed, where every replayed
// design point must reproduce the engine's numbers bit for bit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				cfg := config{workload: w.name, ops: 2, trace: trace, workers: runtime.NumCPU(), tmp: t.TempDir()}
				if trace {
					cfg.seed = 1
					cfg.spans = filepath.Join(cfg.tmp, "spans.jsonl")
				}
				res, err := run(cfg, testLog{t})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted != 2 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := names(endToEnd)
				if trace {
					want = names(perLayer)
				}
				var got []string
				for name := range res.Metrics {
					got = append(got, name)
				}
				sort.Strings(got)
				sort.Strings(want)
				if strings.Join(got, " ") != strings.Join(want, " ") {
					t.Errorf("emits %v, want %v", got, want)
				}
				if trace && res.Metrics["replay.cands_per_op"].Value == 0 && w.name != "cache-hit-d26" {
					t.Error("the traced run replayed no design point")
				}
			})
		}
	}
}

// TestQualityExactPerSeed checks that the quality metrics of two runs of
// one seed are bit-equal however many ops each run had time for, which
// -compare's per-seed rule relies on.
func TestQualityExactPerSeed(t *testing.T) {
	var got []*result
	for _, ops := range []int{qualityOps + 1, qualityOps + 9} {
		cfg := config{workload: "cache-hit-d26", seed: 3, ops: ops, workers: runtime.NumCPU(), tmp: t.TempDir()}
		res, err := run(cfg, testLog{t})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res)
	}
	for name := range exactPerSeed {
		if a, b := got[0].Metrics[name].Value, got[1].Metrics[name].Value; a != b {
			t.Errorf("%s: %v after %d ops, %v after %d", name, a, got[0].Attempted, b, got[1].Attempted)
		}
	}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimSpace(string(p)))
	return len(p), nil
}

// TestGoldens regenerates testdata/golden.json with -update; the smoke
// test checks the goldens on every run.
func TestGoldens(t *testing.T) {
	if !*update {
		t.Skip("run with -update to regenerate testdata/golden.json")
	}
	all := map[string]map[string]golden{}
	for _, w := range workloads {
		e := &env{ctx: context.Background(), lib: model.Default65nm(), workers: runtime.NumCPU(), tmp: t.TempDir()}
		inst, err := w.new(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.setup(); err != nil {
			t.Fatal(err)
		}
		if all[w.name], err = inst.reference(); err != nil {
			t.Fatal(err)
		}
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", "golden.json"), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got := quartiles([]float64{1, 2}); got != [3]float64{0.75, 1.5, 2.25} {
		t.Errorf("quartiles of two = %v", got)
	}
}

func TestVerdict(t *testing.T) {
	p50 := metric{"op_p50_ms", "ms", "lower", 0.10}
	steady := []float64{100, 100, 101, 99, 100, 100, 102, 98, 100, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		head []float64
		want string
	}{
		{steady, "same"},
		{scale(steady, 1.2), "worse"},
		{scale(steady, 0.8), "better"},
		{[]float64{50, 150, 100, 60, 140, 100, 100, 70, 130, 100}, "unresolved"},
	} {
		if got := verdict(p50, steady, c.head); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.head, got, c.want)
		}
	}
}

// TestJudgeExactPerSeed checks that a quality metric is compared run by
// run at shared seeds, so a shift far inside its bound still counts, and
// pooled when the two sets share no seed.
func TestJudgeExactPerSeed(t *testing.T) {
	var power metric
	for _, m := range endToEnd {
		if m.Name == "noc_power_mw" {
			power = m
		}
	}
	if !exactPerSeed[power.Name] {
		t.Fatal("noc_power_mw is not an exact end-to-end metric")
	}
	runs := func(seed0 uint64, vals ...float64) []record {
		var rs []record
		for i, v := range vals {
			rs = append(rs, record{Seed: seed0 + uint64(i), Result: result{Metrics: map[string]value{power.Name: {v, power.Unit}}}})
		}
		return rs
	}
	base := runs(1, 66.0, 66.1, 66.2)
	pooled := func(seed0 uint64, first float64) []record {
		var vals []float64
		for i := range minRuns {
			vals = append(vals, first+0.1*float64(i))
		}
		return runs(seed0, vals...)
	}
	for _, c := range []struct {
		base, head []record
		want       string
	}{
		{base, runs(1, 66.0, 66.1, 66.2), "same"},
		{base, runs(1, 66.0, 66.101, 66.2), "worse"},
		{base, runs(1, 65.999, 66.1, 66.2), "better"},
		{base, runs(1, 65.999, 66.101, 66.2), "worse"},
		{base, runs(11, 66.0, 66.1, 66.2), "unresolved"},
		{pooled(1, 66.0), pooled(11, 66.001), "same"},
		{pooled(1, 66.0), pooled(11, 68.0), "worse"},
	} {
		if got := judge(power, c.base, c.head); got != c.want {
			t.Errorf("judge(%+v, %+v) = %s, want %s", c.base, c.head, got, c.want)
		}
	}
}

func TestPairedVerdict(t *testing.T) {
	runs := func(ms ...float64) []record {
		rs := make([]record, len(ms))
		for i, v := range ms {
			rs[i] = record{Seed: uint64(i + 1), OpP50Ms: v}
		}
		return rs
	}
	// Run-to-run drift larger than any change below, as in the baseline.
	base := runs(40, 44, 38, 42, 36, 41, 43, 39, 45, 37)
	shift := func(d float64) []record {
		out := runs()
		for _, r := range base {
			r.OpP50Ms += d
			out = append(out, r)
		}
		return out
	}
	for _, c := range []struct {
		head []record
		want string
	}{
		{base, "same"},
		{shift(6), "worse"},
		{shift(-6), "better"},
		{shift(2), "same"},
		{append(shift(6)[:9], record{Seed: 10, OpP50Ms: 30}), "worse"},
		{append(shift(8)[:8], record{Seed: 9, OpP50Ms: 30}, record{Seed: 10, OpP50Ms: 30}), "unresolved"},
		{shift(6)[:minRuns-1], "unresolved"},
		{[]record{{Seed: 99, OpP50Ms: 80}}, "unresolved"},
	} {
		if got := pairedVerdict(base, c.head); got != c.want {
			t.Errorf("pairedVerdict(%v) = %s, want %s", c.head, got, c.want)
		}
	}
}
