package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/model"
	"nocvi/internal/power"
	"nocvi/internal/soc"
	"nocvi/internal/specgen"
)

// samePoints asserts two synthesis results are bit-identical in every
// observable metric: counts, Points order, and per-point numbers.
func samePoints(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Explored != b.Explored || a.Feasible != b.Feasible {
		t.Fatalf("%s: accounting differs: explored %d/%d feasible %d/%d",
			label, a.Explored, b.Explored, a.Feasible, b.Feasible)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatalf("%s: %d vs %d points", label, len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		p, q := &a.Points[i], &b.Points[i]
		if fmt.Sprint(p.SwitchCounts) != fmt.Sprint(q.SwitchCounts) || p.MidSwitches != q.MidSwitches {
			t.Fatalf("%s: point %d config differs: %v/%d vs %v/%d",
				label, i, p.SwitchCounts, p.MidSwitches, q.SwitchCounts, q.MidSwitches)
		}
		if p.NoCPower != q.NoCPower || p.MeanLatencyCycles != q.MeanLatencyCycles ||
			p.NoCAreaMM2 != q.NoCAreaMM2 || p.WireViolations != q.WireViolations {
			t.Fatalf("%s: point %d metrics differ: %+v vs %+v", label, i, *p, *q)
		}
	}
}

// sameSelection asserts Best and BestLatency pick the same design in
// both results.
func sameSelection(t *testing.T, label string, a, b *Result) {
	t.Helper()
	ab, bb := a.Best(), b.Best()
	if fmt.Sprint(ab.SwitchCounts) != fmt.Sprint(bb.SwitchCounts) || ab.MidSwitches != bb.MidSwitches {
		t.Fatalf("%s: Best differs: %v/%d vs %v/%d",
			label, ab.SwitchCounts, ab.MidSwitches, bb.SwitchCounts, bb.MidSwitches)
	}
	al, bl := a.BestLatency(), b.BestLatency()
	if fmt.Sprint(al.SwitchCounts) != fmt.Sprint(bl.SwitchCounts) || al.MidSwitches != bl.MidSwitches {
		t.Fatalf("%s: BestLatency differs: %v/%d vs %v/%d",
			label, al.SwitchCounts, al.MidSwitches, bl.SwitchCounts, bl.MidSwitches)
	}
}

// TestSerialParallelIdenticalOnSuite verifies the acceptance criterion
// that Workers=1 and Workers=N produce identical Result.Points (same
// order, same metrics) and the same Best selections on every bundled
// benchmark SoC.
func TestSerialParallelIdenticalOnSuite(t *testing.T) {
	lib := model.Default65nm()
	for _, name := range bench.Names() {
		spec, err := bench.Islanded(name)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{AllowIntermediate: true, MaxIntermediateSwitches: 2}
		opt.Workers = 1
		serial, err := Synthesize(spec, lib, opt)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		opt.Workers = 8
		parallel, err := Synthesize(spec, lib, opt)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		samePoints(t, name, serial, parallel)
		sameSelection(t, name, serial, parallel)
	}
}

// TestPropertySerialParallelIdentical is the specgen property test: on
// 20 random well-formed SoCs, serial and parallel sweeps must produce
// identical point sets (or fail identically).
func TestPropertySerialParallelIdentical(t *testing.T) {
	lib := model.Default65nm()
	gen := specgen.Options{MaxCores: 12, MaxIslands: 4}
	for seed := int64(1); seed <= 20; seed++ {
		spec := specgen.Random(seed, gen)
		opt := Options{AllowIntermediate: true, MaxIntermediateSwitches: 2}
		opt.Workers = 1
		serial, serr := Synthesize(spec, lib, opt)
		opt.Workers = 6
		parallel, perr := Synthesize(spec, lib, opt)
		if (serr == nil) != (perr == nil) {
			t.Fatalf("seed %d: serial err=%v, parallel err=%v", seed, serr, perr)
		}
		if serr != nil {
			if serr.Error() != perr.Error() {
				t.Fatalf("seed %d: errors differ: %v vs %v", seed, serr, perr)
			}
			continue
		}
		samePoints(t, spec.Name, serial, parallel)
		sameSelection(t, spec.Name, serial, parallel)
	}
}

// TestExploredCountsFailedPartitions is the regression test for the
// undercounting bug: a counts-vector whose min-cut partitioning fails
// must still contribute its whole mid-sweep to Explored. The candidate
// space does not depend on partition feasibility, so a run with a
// partition-hostile MaxPartSize must report the same Explored as an
// unconstrained run.
func TestExploredCountsFailedPartitions(t *testing.T) {
	spec := miniSoC()
	lib := model.Default65nm()
	base := Options{AllowIntermediate: true, MaxIntermediateSwitches: 2}
	free, err := Synthesize(spec, lib, base)
	if err != nil {
		t.Fatal(err)
	}
	constrained := base
	// Max 2 cores per switch: the minimal counts vector gives the
	// 4-core sys island one switch, which cannot hold it -> that
	// vector's partitioning fails for every mid value.
	constrained.Partition.MaxPartSize = 2
	tight, err := Synthesize(spec, lib, constrained)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Explored != free.Explored {
		t.Fatalf("failed partitions dropped from Explored: %d vs %d", tight.Explored, free.Explored)
	}
	if tight.Feasible >= free.Feasible {
		t.Fatalf("MaxPartSize=2 should kill some candidates: feasible %d vs %d", tight.Feasible, free.Feasible)
	}
	if free.Explored < free.Feasible || tight.Explored < tight.Feasible {
		t.Fatal("explored < feasible")
	}
}

// TestArgminTieBreak pins the explicit deterministic tie-break: on an
// exact metric tie, the lowest total switch count wins, then the lowest
// intermediate switch count — regardless of Points order.
func TestArgminTieBreak(t *testing.T) {
	pw := power.Breakdown{SwitchDynW: 0.5}
	mk := func(counts []int, mid int) DesignPoint {
		return DesignPoint{SwitchCounts: counts, MidSwitches: mid, NoCPower: pw, MeanLatencyCycles: 7}
	}
	r := &Result{Points: []DesignPoint{
		mk([]int{3, 1}, 2), // most switches, listed first
		mk([]int{2, 2}, 1), // same total as below, more mid switches
		mk([]int{2, 2}, 0), // the canonical winner
		mk([]int{2, 3}, 0),
	}}
	if best := r.Best(); best.MidSwitches != 0 || sumCounts(best.SwitchCounts) != 4 {
		t.Fatalf("power tie broke to %v/%d", best.SwitchCounts, best.MidSwitches)
	}
	if best := r.BestLatency(); best.MidSwitches != 0 || sumCounts(best.SwitchCounts) != 4 {
		t.Fatalf("latency tie broke to %v/%d", best.SwitchCounts, best.MidSwitches)
	}
	// A genuinely better metric still dominates the tie-break.
	cheap := mk([]int{9, 9}, 3)
	cheap.NoCPower = power.Breakdown{SwitchDynW: 0.1}
	r.Points = append(r.Points, cheap)
	if best := r.Best(); sumCounts(best.SwitchCounts) != 18 {
		t.Fatalf("lower power lost to tie-break: %v", best.SwitchCounts)
	}
}

// refArgmin is Result.argmin as it stood before it shared sweepBetter
// with the streaming sweep, frozen as the oracle the shared order must
// match. Do not "improve" it: its value is that it picks winners the way
// the deleted code did.
func refArgmin(r *Result, metric func(*DesignPoint) float64) *DesignPoint {
	total := func(d *DesignPoint) int {
		n := 0
		for _, k := range d.SwitchCounts {
			n += k
		}
		return n
	}
	var best *DesignPoint
	bestViol := math.MaxInt32
	bestVal := math.Inf(1)
	for i := range r.Points {
		d := &r.Points[i]
		v := metric(d)
		better := false
		switch {
		case d.WireViolations != bestViol:
			better = d.WireViolations < bestViol
		case v != bestVal:
			better = v < bestVal
		case best != nil && total(d) != total(best):
			better = total(d) < total(best)
		case best != nil:
			better = d.MidSwitches < best.MidSwitches
		}
		if better {
			best, bestViol, bestVal = d, d.WireViolations, v
		}
	}
	return best
}

// TestArgminMatchesFrozenReference pins Best and BestLatency to the
// frozen refArgmin on the bundled suite and 12 random specs, pruned and
// under NoPrune. Each result is also checked reversed and doubled (every
// point followed later by an exact twin), which drives the switch-count,
// mid-count and first-wins tie-breaks.
func TestArgminMatchesFrozenReference(t *testing.T) {
	lib := model.Default65nm()
	var specs []*soc.Spec
	for _, name := range bench.Names() {
		spec, err := bench.Islanded(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	for seed := int64(1); seed <= 12; seed++ {
		specs = append(specs, specgen.Random(seed, specgen.Options{MaxCores: 16, MaxIslands: 4}))
	}
	power := func(d *DesignPoint) float64 { return d.NoCPower.DynW() }
	latency := func(d *DesignPoint) float64 { return d.MeanLatencyCycles }
	checked := 0
	for _, spec := range specs {
		for _, noPrune := range []bool{false, true} {
			res, err := Synthesize(spec, lib, Options{AllowIntermediate: true, MaxIntermediateSwitches: 2, NoPrune: noPrune})
			if err != nil {
				continue // no feasible design: nothing to select
			}
			n := len(res.Points)
			reversed := &Result{Points: make([]DesignPoint, n)}
			for i := range res.Points {
				reversed.Points[n-1-i] = res.Points[i]
			}
			doubled := &Result{Points: append(append([]DesignPoint(nil), res.Points...), res.Points...)}
			for _, r := range []*Result{res, reversed, doubled} {
				if got, want := r.Best(), refArgmin(r, power); got != want {
					t.Fatalf("%s noPrune=%v: Best = %p, frozen argmin = %p", spec.Name, noPrune, got, want)
				}
				if got, want := r.BestLatency(), refArgmin(r, latency); got != want {
					t.Fatalf("%s noPrune=%v: BestLatency = %p, frozen argmin = %p", spec.Name, noPrune, got, want)
				}
			}
			checked++
		}
	}
	if checked != 2*len(specs) {
		t.Fatalf("only %d of %d spec/mode pairs synthesized", checked, 2*len(specs))
	}
}

// TestSynthesizeContextCancellation covers the context plumbing for
// both sweep paths: a dead context yields a Partial result — possibly
// empty, never an error — and a live one a complete sweep stamped
// StopComplete.
func TestSynthesizeContextCancellation(t *testing.T) {
	spec := miniSoC()
	lib := model.Default65nm()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		res, err := SynthesizeContext(ctx, spec, lib, Options{AllowIntermediate: true, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: canceled sweep errored: %v", workers, err)
		}
		if !res.Partial || res.StopReason != StopCanceled {
			t.Fatalf("workers=%d: want Partial/%s, got Partial=%v StopReason=%q",
				workers, StopCanceled, res.Partial, res.StopReason)
		}
		if res.Explored != 0 {
			t.Fatalf("workers=%d: pre-canceled context still explored %d candidates", workers, res.Explored)
		}
	}
	res, err := SynthesizeContext(context.Background(), spec, lib, Options{Workers: 4})
	if err != nil || len(res.Points) == 0 {
		t.Fatalf("live context failed: %v", err)
	}
	if res.Partial || res.StopReason != StopComplete {
		t.Fatalf("complete sweep stamped Partial=%v StopReason=%q", res.Partial, res.StopReason)
	}
}

// TestWorkersExceedCandidates floods a sweep with far more workers
// than candidates: most goroutines find the cursor already exhausted
// and must exit without claiming anything, and the result must still
// be bit-identical to the serial sweep. This is the degenerate end of
// the block-claiming dispatch, where every block is smaller than the
// worker pool.
func TestWorkersExceedCandidates(t *testing.T) {
	spec := miniSoC()
	lib := model.Default65nm()
	opt := Options{AllowIntermediate: true, MaxIntermediateSwitches: 2}
	opt.Workers = 1
	serial, err := Synthesize(spec, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Explored >= 512 {
		t.Fatalf("fixture grew: %d candidates no longer ≪ 512 workers", serial.Explored)
	}
	opt.Workers = 512
	flooded, err := Synthesize(spec, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, "flooded", serial, flooded)
	sameSelection(t, "flooded", serial, flooded)
}

// soloSoC is the smallest well-formed spec: one core, one island, no
// flows. Its candidate space is exactly one (counts=[1], mid=0)
// point.
func soloSoC() *soc.Spec {
	return &soc.Spec{
		Name: "solo1",
		Cores: []soc.Core{{ID: 0, Name: "cpu", Class: soc.ClassCPU,
			AreaMM2: 2, DynPowerW: 0.1, LeakPowerW: 0.02}},
		Islands:  []soc.Island{{ID: 0, Name: "sys", VoltageV: 1.0}},
		IslandOf: []soc.IslandID{0},
	}
}

// TestSingleCandidateSweep pins the other boundary: a one-candidate
// space must evaluate exactly once and produce the same single point
// for any worker count.
func TestSingleCandidateSweep(t *testing.T) {
	spec := soloSoC()
	lib := model.Default65nm()
	var ref *Result
	for _, w := range []int{1, 2, 64} {
		res, err := Synthesize(spec, lib, Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if res.Explored != 1 || res.Feasible != 1 || len(res.Points) != 1 {
			t.Fatalf("workers=%d: explored=%d feasible=%d points=%d, want 1/1/1",
				w, res.Explored, res.Feasible, len(res.Points))
		}
		if res.StopReason != StopComplete {
			t.Fatalf("workers=%d: stop reason %q", w, res.StopReason)
		}
		if ref == nil {
			ref = res
			continue
		}
		samePoints(t, spec.Name, ref, res)
		sameSelection(t, spec.Name, ref, res)
	}
}
