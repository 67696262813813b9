package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/model"
	"nocvi/internal/partition"
	"nocvi/internal/route"
	"nocvi/internal/soc"
	"nocvi/internal/specgen"
)

// oracleSweep enumerates the streaming sweep's space with plain nested
// loops — island 0 slowest, mid fastest, an incrementing counter as the
// index — and evaluates every candidate through fresh build contexts.
// It shares no code with factorialSpace.Decode or the collectors, so it is
// an independent check of the enumeration geometry and the reductions.
func oracleSweep(t *testing.T, spec *soc.Spec, lib *model.Library, opt Options, width int) (feasible []SweepPoint, evaluated uint64) {
	t.Helper()
	env := mustEnv(t, spec, lib, opt)
	freqs, maxSizes, err := IslandClocks(spec, lib)
	_ = freqs
	if err != nil {
		t.Fatal(err)
	}
	nIsl := len(spec.Islands)
	lo := make([]int, nIsl)
	hi := make([]int, nIsl)
	maxCores := 0
	for j := 0; j < nIsl; j++ {
		n := len(spec.CoresIn(soc.IslandID(j)))
		usable := maxSizes[j] - 1
		lo[j] = (n + usable - 1) / usable
		if lo[j] < 1 {
			lo[j] = 1
		}
		hi[j] = n
		if hi[j] < lo[j] {
			hi[j] = lo[j]
		}
		if width > 0 && lo[j]+width-1 < hi[j] {
			hi[j] = lo[j] + width - 1
		}
		if n > maxCores {
			maxCores = n
		}
	}
	maxMid := opt.MaxIntermediateSwitches
	if maxMid <= 0 {
		maxMid = maxCores
	}
	if !opt.AllowIntermediate {
		maxMid = 0
	}

	idx := uint64(0)
	counts := make([]int, nIsl)
	parts := make([][]int, nIsl)
	var sc partition.Scratch
	var walk func(j int)
	walk = func(j int) {
		if j == nIsl {
			for mid := 0; mid <= maxMid; mid++ {
				ok := true
				for i := 0; i < nIsl; i++ {
					p, err := sc.KWay(env.table.graphs[i], counts[i], env.table.opts[i])
					if err != nil {
						ok = false
						break
					}
					parts[i] = p
				}
				if ok {
					dp, err := buildPoint(&buildContext{env: env}, counts, parts, mid)
					if err == nil {
						feasible = append(feasible, SweepPoint{
							Index:          idx,
							SwitchCounts:   append([]int(nil), counts...),
							MidSwitches:    mid,
							PowerW:         dp.NoCPower.DynW(),
							LatencyCycles:  dp.MeanLatencyCycles,
							AreaMM2:        dp.NoCAreaMM2,
							WireViolations: dp.WireViolations,
						})
					}
				}
				idx++
			}
			return
		}
		for k := lo[j]; k <= hi[j]; k++ {
			counts[j] = k
			walk(j + 1)
		}
	}
	walk(0)
	return feasible, idx
}

// oracleFront is the quadratic-time Pareto front of (power, latency)
// minimization with equal pairs collapsed to the lowest index, sorted
// the way SweepResult.Front is.
func oracleFront(pts []SweepPoint) []SweepPoint {
	var out []SweepPoint
	for i := range pts {
		p := &pts[i]
		keep := true
		for k := range pts {
			if k == i {
				continue
			}
			q := &pts[k]
			if q.PowerW <= p.PowerW && q.LatencyCycles <= p.LatencyCycles &&
				(q.PowerW < p.PowerW || q.LatencyCycles < p.LatencyCycles) {
				keep = false
				break
			}
			if q.PowerW == p.PowerW && q.LatencyCycles == p.LatencyCycles && q.Index < p.Index {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PowerW != out[j].PowerW {
			return out[i].PowerW < out[j].PowerW
		}
		return out[i].LatencyCycles < out[j].LatencyCycles
	})
	return out
}

// TestSweepMatchesBruteForce checks the streaming sweep — index decode,
// sharded claiming, per-worker collectors, the merge — against a plain
// nested-loop enumeration that shares none of that machinery.
func TestSweepMatchesBruteForce(t *testing.T) {
	spec := miniSoC()
	lib := model.Default65nm()
	// NoPrune: the oracle enumerates and evaluates everything, so the
	// counter and Feasible comparisons are only meaningful unpruned. The
	// pruned sweep is checked against the same oracle winners below.
	opt := Options{AllowIntermediate: true, MaxIntermediateSwitches: 2, Workers: 4, NoPrune: true}

	feasible, evaluated := oracleSweep(t, spec, lib, opt, 0)
	if len(feasible) == 0 {
		t.Fatal("oracle found nothing feasible; the test spec is broken")
	}

	res, err := SynthesizeSweep(context.Background(), spec, lib, opt, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size != evaluated || res.Explored != evaluated {
		t.Fatalf("size/explored = %d/%d, oracle evaluated %d", res.Size, res.Explored, evaluated)
	}
	if res.Feasible != uint64(len(feasible)) {
		t.Fatalf("feasible = %d, oracle found %d", res.Feasible, len(feasible))
	}
	if res.PruneStats != (PruneStats{Evaluated: int(evaluated), Feasible: len(feasible)}) {
		t.Fatalf("NoPrune sweep reported pruning: %+v", res.PruneStats)
	}
	if res.StopReason != StopComplete || res.Truncated || res.Partial {
		t.Fatalf("stop metadata wrong: %q truncated=%v partial=%v", res.StopReason, res.Truncated, res.Partial)
	}

	wantBestP := &feasible[0]
	wantBestL := &feasible[0]
	for i := range feasible {
		if sweepBetter(&feasible[i], wantBestP, byPower) {
			wantBestP = &feasible[i]
		}
		if sweepBetter(&feasible[i], wantBestL, byLatency) {
			wantBestL = &feasible[i]
		}
	}
	if !reflect.DeepEqual(res.BestPowerPoint, wantBestP) {
		t.Fatalf("best power point:\n got %+v\nwant %+v", res.BestPowerPoint, wantBestP)
	}
	if !reflect.DeepEqual(res.BestLatencyPoint, wantBestL) {
		t.Fatalf("best latency point:\n got %+v\nwant %+v", res.BestLatencyPoint, wantBestL)
	}
	if !reflect.DeepEqual(res.Front, oracleFront(feasible)) {
		t.Fatalf("front:\n got %+v\nwant %+v", res.Front, oracleFront(feasible))
	}
	// The rebuilt design points must match their summaries.
	if res.BestPower == nil ||
		!reflect.DeepEqual(res.BestPower.SwitchCounts, wantBestP.SwitchCounts) ||
		res.BestPower.MidSwitches != wantBestP.MidSwitches ||
		res.BestPower.NoCPower.DynW() != wantBestP.PowerW {
		t.Fatalf("rebuilt BestPower does not match its summary: %+v vs %+v", res.BestPower, wantBestP)
	}
	if res.BestLatency == nil || res.BestLatency.MeanLatencyCycles != wantBestL.LatencyCycles {
		t.Fatalf("rebuilt BestLatency does not match its summary")
	}

	// The branch-and-bound sweep must reproduce the oracle's winners and
	// front byte-for-byte while still accounting for every index.
	opt.NoPrune = false
	pruned, err := SynthesizeSweep(context.Background(), spec, lib, opt, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Explored != evaluated {
		t.Fatalf("pruned sweep explored %d of %d", pruned.Explored, evaluated)
	}
	if !reflect.DeepEqual(pruned.BestPowerPoint, wantBestP) || !reflect.DeepEqual(pruned.BestLatencyPoint, wantBestL) {
		t.Fatalf("pruned argmins differ from oracle:\n power %+v vs %+v\n latency %+v vs %+v",
			pruned.BestPowerPoint, wantBestP, pruned.BestLatencyPoint, wantBestL)
	}
	if !reflect.DeepEqual(pruned.Front, oracleFront(feasible)) {
		t.Fatalf("pruned front differs from oracle:\n got %+v\nwant %+v", pruned.Front, oracleFront(feasible))
	}
	if !reflect.DeepEqual(pruned.BestPower, res.BestPower) || !reflect.DeepEqual(pruned.BestLatency, res.BestLatency) {
		t.Fatal("pruned rebuilt winners differ from the unpruned sweep's")
	}
	s := pruned.PruneStats
	if s.Evaluated+s.BoundPruned+s.StagePruned != int(evaluated) {
		t.Fatalf("three-way split does not cover the space: %+v over %d", s, evaluated)
	}
	if pruned.Feasible != 0 || s.Feasible == 0 {
		t.Fatalf("pruned feasibility accounting wrong: Feasible=%d PruneStats=%+v", pruned.Feasible, s)
	}
}

// sweepOnce runs SynthesizeSweep and fails the test on error.
func sweepOnce(t *testing.T, spec *soc.Spec, lib *model.Library, opt Options, sw SweepOptions) *SweepResult {
	t.Helper()
	res, err := SynthesizeSweep(context.Background(), spec, lib, opt, sw)
	if err != nil {
		t.Fatalf("workers=%d: %v", opt.Workers, err)
	}
	return res
}

// sameSweep asserts two sweep results are deeply identical apart from
// pointer identity and PruneStats, which (like CacheStats) is run
// bookkeeping: the counter split depends on incumbent timing and is
// explicitly outside the cross-worker identity contract.
func sameSweep(t *testing.T, label string, a, b *SweepResult) {
	t.Helper()
	ca, cb := *a, *b
	ca.PruneStats, cb.PruneStats = PruneStats{}, PruneStats{}
	if !reflect.DeepEqual(&ca, &cb) {
		t.Fatalf("%s: sweep results differ:\n%+v\nvs\n%+v", label, a, b)
	}
}

// TestSweepIdenticalAcrossWorkers is the streaming sweep's determinism
// contract: every worker count — including workers far in excess of the
// candidate count — produces a byte-identical SweepResult, with and
// without a Limit.
func TestSweepIdenticalAcrossWorkers(t *testing.T) {
	lib := model.Default65nm()
	cases := []struct {
		spec *soc.Spec
		sws  []SweepOptions
	}{
		{miniSoC(), []SweepOptions{{}, {Limit: 17}, {WidthPerIsland: 2}}},
		// The 40-core space is width-capped: full-width would be minutes
		// of sweep per worker count, which belongs to the env-gated scale
		// proof, not tier-1.
		{specgen.Large(3, 40, 6), []SweepOptions{{WidthPerIsland: 2}, {WidthPerIsland: 3, Limit: 100}}},
	}
	for _, tc := range cases {
		spec := tc.spec
		for _, sw := range tc.sws {
			// Both modes carry the contract: NoPrune is the seed path, the
			// default is the branch-and-bound path whose worker-side prune
			// decisions race against incumbent publication and must still
			// converge on one result.
			for _, noPrune := range []bool{false, true} {
				opt := Options{AllowIntermediate: spec.Name == "mini8", MaxIntermediateSwitches: 2,
					Workers: 1, NoPrune: noPrune}
				base := sweepOnce(t, spec, lib, opt, sw)
				for _, workers := range []int{2, 3, 4, 8, 64} {
					opt.Workers = workers
					got := sweepOnce(t, spec, lib, opt, sw)
					sameSweep(t, fmt.Sprintf("%s limit=%d width=%d noprune=%v workers=%d",
						spec.Name, sw.Limit, sw.WidthPerIsland, noPrune, workers), base, got)
				}
				if sw.Limit > 0 {
					if !base.Truncated || base.Explored != sw.Limit || base.StopReason != StopTruncated {
						t.Fatalf("%s: limited sweep metadata wrong: %+v", spec.Name, base)
					}
				}
			}
		}
	}
}

// TestSweepSinglePointSpace pins the degenerate shape: a space with
// exactly one candidate (every island pinned at width 1, no mid sweep)
// still completes, finds it, and is identical at any worker count.
func TestSweepSinglePointSpace(t *testing.T) {
	spec := miniSoC()
	lib := model.Default65nm()
	opt := Options{Workers: 1}
	sw := SweepOptions{WidthPerIsland: 1}
	base := sweepOnce(t, spec, lib, opt, sw)
	if base.Size != 1 || base.Explored != 1 {
		t.Fatalf("want a one-point space, got size=%d explored=%d", base.Size, base.Explored)
	}
	if base.PruneStats.Feasible == 1 && len(base.Front) != 1 {
		t.Fatalf("one feasible point must be the whole front, got %d", len(base.Front))
	}
	opt.Workers = 32
	sameSweep(t, "single-point workers=32", base, sweepOnce(t, spec, lib, opt, sw))
}

// TestSweepCancellation stops a sweep mid-flight and checks it degrades
// to an honestly-labeled partial result instead of failing — one that
// covers exactly the index prefix [0, Explored): under NoPrune it equals
// a sweep limited to Explored candidates once the stop fields agree.
func TestSweepCancellation(t *testing.T) {
	spec := specgen.Large(3, 40, 6)
	lib := model.Default65nm()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var evals atomic.Int64
	withEvalHook(t, func(counts []int, mid int) {
		if evals.Add(1) == 40 {
			cancel()
		}
	})
	opt := Options{Workers: 4, NoPrune: true}
	res, err := SynthesizeSweep(ctx, spec, lib, opt, SweepOptions{})
	if err != nil {
		t.Fatalf("canceled sweep must return a partial result, got %v", err)
	}
	if res.Explored == 0 || res.Explored >= res.Size {
		t.Fatalf("explored %d of %d: not a strict non-empty prefix", res.Explored, res.Size)
	}
	if !res.Partial || res.StopReason != StopCanceled || res.Truncated {
		t.Fatalf("partial metadata wrong: partial=%v reason=%q truncated=%v", res.Partial, res.StopReason, res.Truncated)
	}
	testHookEvalStart = nil
	limited := sweepOnce(t, spec, lib, opt, SweepOptions{Limit: res.Explored})
	limited.Truncated, limited.Partial, limited.StopReason = res.Truncated, res.Partial, res.StopReason
	sameSweep(t, "canceled vs limited", res, limited)
}

// TestSweepPanicsIdenticalAcrossWorkers injects panics into more than
// maxSweepErrors candidates and checks the error channel of the
// streaming sweep: the true total count, exactly the maxSweepErrors
// smallest panicking indices kept in index order, all byte-identical
// across worker counts.
func TestSweepPanicsIdenticalAcrossWorkers(t *testing.T) {
	spec := miniSoC()
	lib := model.Default65nm()
	withEvalHook(t, func(counts []int, mid int) {
		if mid >= 1 {
			panic("injected: sweep candidate blew up")
		}
	})
	// NoPrune: whether a panicking candidate gets pruned before it can
	// panic depends on incumbent timing, so the error channel is only
	// schedule-independent on the unpruned path (see SweepResult.Errors).
	opt := Options{AllowIntermediate: true, MaxIntermediateSwitches: 3, Workers: 1, NoPrune: true}

	// The panicking indices in enumeration order, decoded independently
	// of the sweep's collectors.
	space := mustEnv(t, spec, lib, opt).factorial(0)
	type cand struct {
		counts []int
		mid    int
	}
	var panicking []cand
	for idx := uint64(0); idx < space.Size(); idx++ {
		counts := make([]int, len(spec.Islands))
		if mid := space.Decode(idx, counts); mid >= 1 {
			panicking = append(panicking, cand{counts, mid})
		}
	}
	if len(panicking) <= maxSweepErrors {
		t.Fatalf("fixture panics on %d candidates, want more than %d", len(panicking), maxSweepErrors)
	}

	base := sweepOnce(t, spec, lib, opt, SweepOptions{})
	if base.ErrorCount != uint64(len(panicking)) {
		t.Fatalf("ErrorCount %d, want %d", base.ErrorCount, len(panicking))
	}
	if len(base.Errors) != maxSweepErrors {
		t.Fatalf("want the %d smallest-index errors kept, got %d", maxSweepErrors, len(base.Errors))
	}
	for i, e := range base.Errors {
		if want := panicking[i]; !equalInts(e.SwitchCounts, want.counts) || e.MidSwitches != want.mid {
			t.Fatalf("error %d is %v/mid=%d, want %v/mid=%d", i, e.SwitchCounts, e.MidSwitches, want.counts, want.mid)
		}
		if e.Stack == "" || e.Panic == "" {
			t.Fatalf("error not normalized: %+v", e)
		}
	}
	opt.Workers = 4
	sameSweep(t, "panics workers=4", base, sweepOnce(t, spec, lib, opt, SweepOptions{}))
}

// TestSweepMillionPoints is the scale proof: a 100+-core, 10+-island
// SoC whose enumerated cross product exceeds 2^20 design points, swept
// to completion under bounded memory at two worker counts with
// byte-identical results. It runs only when NOCVI_BIGSWEEP=1 — the full
// double sweep is minutes of CPU — but the space geometry (size,
// island/core floors) is asserted unconditionally below in
// TestSweepMillionPointGeometry.
func TestSweepMillionPoints(t *testing.T) {
	if os.Getenv("NOCVI_BIGSWEEP") == "" {
		t.Skip("set NOCVI_BIGSWEEP=1 to run the million-point sweep proof")
	}
	spec, sw := millionPointSpace()
	lib := model.Default65nm()
	opt := Options{Workers: 1}
	base := sweepOnce(t, spec, lib, opt, sw)
	if base.Size < 1<<20 {
		t.Fatalf("space has %d points, want >= 2^20", base.Size)
	}
	if base.Explored != base.Size || base.StopReason != StopComplete {
		t.Fatalf("sweep did not complete: %+v", base)
	}
	if base.BestPowerPoint == nil {
		t.Fatal("million-point space found nothing feasible")
	}
	opt.Workers = 4
	sameSweep(t, "million-point workers=4", base, sweepOnce(t, spec, lib, opt, sw))

	// The scale leg of the pruning oracle: an unpruned sweep of the same
	// 2^20-point space must land on exactly the winners the pruned runs
	// reported.
	opt.NoPrune = true
	plain := sweepOnce(t, spec, lib, opt, sw)
	if !reflect.DeepEqual(plain.BestPowerPoint, base.BestPowerPoint) ||
		!reflect.DeepEqual(plain.BestLatencyPoint, base.BestLatencyPoint) ||
		!reflect.DeepEqual(plain.Front, base.Front) ||
		!reflect.DeepEqual(plain.BestPower, base.BestPower) ||
		!reflect.DeepEqual(plain.BestLatency, base.BestLatency) {
		t.Fatal("million-point winners differ between pruned and unpruned sweeps")
	}
}

// millionPointSpace is the shared geometry of the scale proof and its
// always-run sanity check: a 104-core, 10-island SoC swept at width 4
// (no intermediate island). Every island contributes the full width,
// so the cross product is exactly 4^10 = 2^20 design points; seed 7
// yields a space where both feasible builds and routing-infeasible
// candidates occur, covering both per-point paths at scale.
func millionPointSpace() (*soc.Spec, SweepOptions) {
	return specgen.Large(7, 104, 10), SweepOptions{WidthPerIsland: 4}
}

// TestSweepMillionPointGeometry asserts — on every test run, not just
// under NOCVI_BIGSWEEP — that the scale proof's space really is what
// the name claims: 100+ cores, 10+ islands, >= 2^20 enumerable points,
// and a feasible evaluated prefix.
func TestSweepMillionPointGeometry(t *testing.T) {
	spec, sw := millionPointSpace()
	if len(spec.Cores) < 100 || len(spec.Islands) < 10 {
		t.Fatalf("proof SoC too small: %d cores, %d islands", len(spec.Cores), len(spec.Islands))
	}
	lib := model.Default65nm()
	// The low-index corner of the space (few switches everywhere) is
	// routing-infeasible for this seed; feasibility starts within the
	// first couple thousand candidates.
	sw.Limit = 2000
	res, err := SynthesizeSweep(context.Background(), spec, lib, Options{Workers: 4}, sw)
	if err != nil {
		t.Fatal(err)
	}
	if res.Size < 1<<20 {
		t.Fatalf("space has %d points, want >= 2^20", res.Size)
	}
	if res.Explored != 2000 || !res.Truncated {
		t.Fatalf("limited probe wrong: explored=%d truncated=%v", res.Explored, res.Truncated)
	}
	if res.BestPowerPoint == nil {
		t.Fatal("no feasible point in the first 2000 candidates; proof space is degenerate")
	}
}

// TestStreamCollectorAddAllocatesNothing: on a warm worker, the outcomes
// most sweep candidates end in cost the streaming collector nothing.
// Evaluating and collecting a routing reject (the router's own
// *route.NoPathError), a feasible point the front and both argmins
// reject, a bound-pruned and a stage-pruned candidate allocates nothing
// at all.
func TestStreamCollectorAddAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	spec, err := bench.Islanded("d26_media")
	if err != nil {
		t.Fatal(err)
	}
	env := mustEnv(t, spec, model.Default65nm(), Options{AllowIntermediate: true})
	space := env.diagonal()
	bc := &buildContext{env: env}
	counts := make([]int, len(spec.Islands))
	parts := make([][]int, len(counts))
	eval := func(idx uint64) evalOutcome {
		return env.evaluate(bc, idx, counts, parts, space.Decode(idx, counts))
	}
	cols := streamCollectors{&sweepCollector{errCap: 1}}
	// A violation-free point at zero power and latency beats every real
	// one, in the front and in both argmins.
	cols[0].addFeasible(SweepPoint{SwitchCounts: make([]int, len(counts))})
	addAllocs := func(idx uint64, out evalOutcome) float64 {
		return testing.AllocsPerRun(20, func() { cols.add(0, idx, out) })
	}
	evalAddAllocs := func(idx uint64) float64 {
		return testing.AllocsPerRun(20, func() { cols.add(0, idx, eval(idx)) })
	}

	// Candidate 0 of d26's diagonal walk cannot route a flow.
	const reject = 0
	mid := space.Decode(reject, counts)
	for j, k := range counts {
		parts[j] = env.table.entry(j, k, &bc.part).part
	}
	_, err = buildPoint(bc, counts, parts, mid)
	var npe *route.NoPathError
	if !errors.As(err, &npe) {
		t.Fatalf("candidate %d: want a *route.NoPathError, got %v", reject, err)
	}
	out := eval(reject)
	if out.dp != nil || out.err != nil || out.pruned != pruneNone {
		t.Fatalf("candidate %d: routing reject evaluated to %+v", reject, out)
	}
	if n := addAllocs(reject, out); n != 0 {
		t.Errorf("routing reject: add allocates %v times, want 0", n)
	}
	if n := evalAddAllocs(reject); n != 0 {
		t.Errorf("routing reject: evaluate and add allocate %v times, want 0", n)
	}

	feasible := uint64(reject + 1)
	for ; eval(feasible).dp == nil; feasible++ {
	}
	built := eval(feasible)
	if n := evalAddAllocs(feasible); n != 0 {
		t.Errorf("dominated feasible point: evaluate and add allocate %v times, want 0", n)
	}

	// An incumbent strictly below both lower bounds prunes before the
	// build; one at the power bound itself survives that test and prunes
	// after routing, where the staged power is above the bound.
	for _, c := range []struct {
		name   string
		powerW float64
		want   uint8
	}{
		{"bound-pruned", 0, pruneBound},
		{"stage-pruned", built.powerLB, pruneStage},
	} {
		env.pruner = &incumbentPruner{}
		env.pruner.publish(0, c.powerW, 0)
		if out := eval(feasible); out.pruned != c.want {
			t.Fatalf("%s: candidate %d evaluated to prune verdict %d", c.name, feasible, out.pruned)
		}
		if n := evalAddAllocs(feasible); n != 0 {
			t.Errorf("%s: evaluate and add allocate %v times, want 0", c.name, n)
		}
	}
}
