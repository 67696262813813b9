package core

import (
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/floorplan"
	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/specgen"
)

// boundsOpt is the option shape the bounds tests sweep: intermediate
// switches on, with and without SkipAnnotate (the mode that activates
// the exact link pricing and the link-term bounds).
func boundsOpt(skipAnnotate bool) Options {
	return Options{
		AllowIntermediate:       true,
		MaxIntermediateSwitches: 2,
		Floorplan:               floorplan.Options{SkipAnnotate: skipAnnotate},
	}
}

// TestBoundsAdmissibility is the property test behind the whole layer:
// for every candidate of a sweep, the pre-evaluation lower bounds never
// exceed the exact metrics of the design point the candidate builds,
// and a candidate the infeasibility proofs skip never builds at all.
// Fuzzed over specgen specs in both link-pricing modes.
func TestBoundsAdmissibility(t *testing.T) {
	lib := model.Default65nm()
	for seed := int64(1); seed <= 6; seed++ {
		spec := specgen.Random(seed, specgen.Options{MaxCores: 18, MaxIslands: 4})
		for _, sk := range []bool{false, true} {
			opt := boundsOpt(sk)
			env := mustEnv(t, spec, lib, opt)
			space := env.diagonal()
			bc := &buildContext{env: env}
			counts := make([]int, len(spec.Islands))
			parts := make([][]int, len(counts))
			built := 0
			for idx := uint64(0); idx < space.Size(); idx++ {
				// No incumbent: evaluate prunes only on the infeasibility
				// proofs, and prices and builds every other candidate.
				mid := space.Decode(idx, counts)
				out := env.evaluate(bc, idx, counts, parts, mid)
				if out.pruned == pruneBound {
					if buildAnyway(env, bc, counts, mid) != nil {
						t.Fatalf("seed %d sk=%v: candidate %v/%d proved infeasible but built a valid point",
							seed, sk, counts, mid)
					}
					continue
				}
				dp := out.dp
				if dp == nil {
					continue
				}
				built++
				if p := dp.NoCPower.DynW(); out.powerLB > p {
					t.Errorf("seed %d sk=%v %v mid=%d: powerLB %.9g > exact %.9g",
						seed, sk, counts, mid, out.powerLB, p)
				}
				if l := dp.MeanLatencyCycles; out.latLB > l {
					t.Errorf("seed %d sk=%v %v mid=%d: latencyLB %.9g > exact %.9g",
						seed, sk, counts, mid, out.latLB, l)
				}
			}
			if built == 0 {
				t.Fatalf("seed %d sk=%v: no candidate built — admissibility not exercised", seed, sk)
			}
		}
	}
}

// buildAnyway builds a candidate the infeasibility proofs skipped,
// cutting its partitions on demand; nil when it cannot be built.
func buildAnyway(env *sweepEnv, bc *buildContext, counts []int, mid int) *DesignPoint {
	parts := make([][]int, len(counts))
	for j, k := range counts {
		e := env.table.entry(j, k, &bc.part)
		if e.err != nil {
			return nil
		}
		parts[j] = e.part
	}
	dp, err := buildPoint(bc, counts, parts, mid)
	if err != nil {
		return nil
	}
	return dp
}

// frontValues projects a result's Pareto-optimal (power, latency) pairs.
// Indices are dropped deliberately: pruning removes dominated interior
// points, so positions shift while the front's values must not.
func frontValues(res *Result) []SweepPoint {
	pts := make([]SweepPoint, len(res.Points))
	for i := range res.Points {
		pts[i] = SweepPoint{Index: uint64(i), PowerW: res.Points[i].NoCPower.DynW(), LatencyCycles: res.Points[i].MeanLatencyCycles}
	}
	front := ParetoFront(pts)
	for i := range front {
		front[i].Index = 0
	}
	return front
}

// TestSynthesizeOracleIdentity: the branch-and-bound sweep returns the
// same winners as the exhaustive one — argmin-power and argmin-latency
// points bit-identical, Pareto-front values bit-identical — on the
// bench suite and specgen specs, in both link-pricing modes, at every
// worker count; and the pruned result itself is identical across
// worker counts with the (schedule-dependent) PruneStats summing to
// the three-way Explored split.
func TestSynthesizeOracleIdentity(t *testing.T) {
	lib := model.Default65nm()
	specs := []*soc.Spec{
		mustIslanded(t, "d16_industrial"),
		mustIslanded(t, "d26_media"),
		mustIslanded(t, "d48_network"),
		specgen.Random(5, specgen.Options{MaxCores: 24, MaxIslands: 5}),
		specgen.Random(9, specgen.Options{MaxCores: 16, MaxIslands: 3}),
	}
	for _, spec := range specs {
		for _, sk := range []bool{false, true} {
			optNP := boundsOpt(sk)
			optNP.NoPrune = true
			ref, err := Synthesize(spec, lib, optNP)
			if err != nil {
				t.Fatalf("%s sk=%v: oracle: %v", spec.Name, sk, err)
			}
			refFront := frontValues(ref)
			var first *Result
			for _, workers := range []int{1, 4, 13} {
				opt := boundsOpt(sk)
				opt.Workers = workers
				res, err := Synthesize(spec, lib, opt)
				if err != nil {
					t.Fatalf("%s sk=%v w=%d: %v", spec.Name, sk, workers, err)
				}
				label := spec.Name + func() string {
					if sk {
						return " skipannotate"
					}
					return ""
				}()
				assertSameWinners(t, label, workers, ref, refFront, res)
				st := res.PruneStats
				if got := st.BoundPruned + st.StagePruned + st.Evaluated; got != int(res.Explored) {
					t.Errorf("%s w=%d: split %d+%d+%d != explored %d",
						label, workers, st.BoundPruned, st.StagePruned, st.Evaluated, res.Explored)
				}
				if first == nil {
					first = res
					continue
				}
				assertSamePoints(t, label, workers, first, res)
			}
		}
	}
}

func mustIslanded(t *testing.T, name string) *soc.Spec {
	t.Helper()
	spec, err := bench.Islanded(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// assertSameWinners checks the pruned result agrees with the oracle on
// everything pruning promises to preserve: the argmin selections (full
// power breakdown, latency, configuration) and the Pareto-front values.
func assertSameWinners(t *testing.T, label string, workers int, ref *Result, refFront []SweepPoint, res *Result) {
	t.Helper()
	if res.Explored != ref.Explored {
		t.Errorf("%s w=%d: explored %d vs oracle %d", label, workers, res.Explored, ref.Explored)
	}
	for _, sel := range []struct {
		name string
		pick func(*Result) *DesignPoint
	}{
		{"best-power", (*Result).Best},
		{"best-latency", (*Result).BestLatency},
	} {
		a, b := sel.pick(res), sel.pick(ref)
		if (a == nil) != (b == nil) {
			t.Fatalf("%s w=%d %s: nil mismatch", label, workers, sel.name)
		}
		if a == nil {
			continue
		}
		if a.NoCPower != b.NoCPower || a.MeanLatencyCycles != b.MeanLatencyCycles ||
			a.MidSwitches != b.MidSwitches || !equalInts(a.SwitchCounts, b.SwitchCounts) {
			t.Errorf("%s w=%d %s: pruned winner differs from oracle", label, workers, sel.name)
		}
	}
	front := frontValues(res)
	if len(front) != len(refFront) {
		t.Fatalf("%s w=%d: front size %d vs oracle %d", label, workers, len(front), len(refFront))
	}
	for i := range front {
		if front[i].PowerW != refFront[i].PowerW || front[i].LatencyCycles != refFront[i].LatencyCycles {
			t.Errorf("%s w=%d: front[%d] (%.9g,%.9g) vs oracle (%.9g,%.9g)",
				label, workers, i, front[i].PowerW, front[i].LatencyCycles, refFront[i].PowerW, refFront[i].LatencyCycles)
		}
	}
}

// assertSamePoints checks two pruned runs at different worker counts
// produced the identical canonical result — same kept points in the
// same order with the same metrics. PruneStats is exempt by contract
// (which worker pruned a candidate cheaply is schedule-dependent).
func assertSamePoints(t *testing.T, label string, workers int, a, b *Result) {
	t.Helper()
	if a.Explored != b.Explored || a.Feasible != b.Feasible {
		t.Fatalf("%s w=%d: accounting differs across workers", label, workers)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatalf("%s w=%d: %d vs %d kept points", label, workers, len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		p, q := &a.Points[i], &b.Points[i]
		if p.NoCPower != q.NoCPower || p.MeanLatencyCycles != q.MeanLatencyCycles ||
			p.NoCAreaMM2 != q.NoCAreaMM2 || p.WireViolations != q.WireViolations ||
			p.MidSwitches != q.MidSwitches || !equalInts(p.SwitchCounts, q.SwitchCounts) {
			t.Fatalf("%s w=%d: point %d differs across workers", label, workers, i)
		}
	}
}

func equalInts(a, b []int) bool {
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
