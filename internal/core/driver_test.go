package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/specgen"
)

// walkDiagonal is the diagonal walk written the long way: raise every
// island's count in lockstep from its minimum, clamp at one switch per
// core, drop repeated vectors, stop once every island is clamped, and
// sweep mid fastest within each vector.
func walkDiagonal(minSw, n []int, maxMid int) (counts [][]int, mids []int) {
	seen := map[string]bool{}
	for i := 0; ; i++ {
		vec := make([]int, len(minSw))
		saturated := true
		for j := range minSw {
			vec[j] = minSw[j] + i
			if vec[j] >= n[j] {
				vec[j] = n[j]
			} else {
				saturated = false
			}
		}
		if key := fmt.Sprint(vec); !seen[key] {
			seen[key] = true
			for m := 0; m <= maxMid; m++ {
				counts = append(counts, vec)
				mids = append(mids, m)
			}
		}
		if saturated {
			return counts, mids
		}
	}
}

// TestDiagonalSpaceMatchesWalk pins the diagonal space's closed form
// against the explicit walk, candidate by candidate and in order, on the
// bundled suite and random specs, with and without an intermediate
// island.
func TestDiagonalSpaceMatchesWalk(t *testing.T) {
	lib := model.Default65nm()
	var specs []*soc.Spec
	for _, name := range bench.Names() {
		specs = append(specs, mustIslanded(t, name))
	}
	for seed := int64(1); seed <= 40; seed++ {
		specs = append(specs, specgen.Random(seed, specgen.Options{MaxCores: 24, MaxIslands: 6}))
	}
	for _, spec := range specs {
		for _, maxMid := range []int{0, 3} {
			env, err := newSweepEnv(spec, lib, Options{AllowIntermediate: maxMid > 0, MaxIntermediateSwitches: maxMid})
			if err != nil {
				continue // infeasible clocks: no space to compare
			}
			n := make([]int, len(env.islandCores))
			for j, cores := range env.islandCores {
				n[j] = len(cores)
			}
			wantCounts, wantMids := walkDiagonal(env.minSwitches, n, env.maxMid)
			space := env.diagonal()
			if space.Size() != uint64(len(wantMids)) {
				t.Fatalf("%s maxMid=%d: size %d, walk has %d candidates", spec.Name, maxMid, space.Size(), len(wantMids))
			}
			counts := make([]int, len(n))
			for i := range wantMids {
				mid := space.Decode(uint64(i), counts)
				if mid != wantMids[i] || !reflect.DeepEqual(counts, wantCounts[i]) {
					t.Fatalf("%s maxMid=%d: candidate %d decodes to %v/%d, walk has %v/%d",
						spec.Name, maxMid, i, counts, mid, wantCounts[i], wantMids[i])
				}
			}
		}
	}
}

// TestDiagonalAndFactorialAgree runs the two spaces through the one
// driver. On a single island the diagonal walk and the full-factorial
// space at WidthPerIsland 0 are the same space, so Synthesize's winners
// and Pareto values must equal SynthesizeSweep's bit for bit, at every
// worker count, pruned or not. On several islands the diagonal is a
// subset of the factorial space, whose winners can then only be better
// under the shared argmin order (wire violations, then metric).
func TestDiagonalAndFactorialAgree(t *testing.T) {
	lib := model.Default65nm()
	flat, err := bench.Flat("d16_industrial")
	if err != nil {
		t.Fatal(err)
	}
	single := []*soc.Spec{flat, specgen.Random(3, specgen.Options{MaxCores: 14, MaxIslands: 1})}
	multi := []*soc.Spec{miniSoC(), specgen.Random(9, specgen.Options{MaxCores: 12, MaxIslands: 3})}
	for _, spec := range single {
		if len(spec.Islands) != 1 {
			t.Fatalf("%s: single-island fixture has %d islands", spec.Name, len(spec.Islands))
		}
	}
	for _, spec := range append(single, multi...) {
		one := len(spec.Islands) == 1
		for _, workers := range []int{1, 4} {
			for _, noPrune := range []bool{false, true} {
				label := fmt.Sprintf("%s workers=%d noprune=%v", spec.Name, workers, noPrune)
				opt := Options{AllowIntermediate: true, MaxIntermediateSwitches: 2, Workers: workers, NoPrune: noPrune}
				diag, err := Synthesize(spec, lib, opt)
				if err != nil {
					t.Fatalf("%s: Synthesize: %v", label, err)
				}
				full := sweepOnce(t, spec, lib, opt, SweepOptions{})
				for _, sel := range []struct {
					name string
					d, f *DesignPoint
				}{
					{"best-power", diag.Best(), full.BestPower},
					{"best-latency", diag.BestLatency(), full.BestLatency},
				} {
					if one {
						if sel.d.NoCPower != sel.f.NoCPower || sel.d.MeanLatencyCycles != sel.f.MeanLatencyCycles ||
							sel.d.MidSwitches != sel.f.MidSwitches || !equalInts(sel.d.SwitchCounts, sel.f.SwitchCounts) {
							t.Fatalf("%s %s: diagonal %v/%d differs from factorial %v/%d",
								label, sel.name, sel.d.SwitchCounts, sel.d.MidSwitches, sel.f.SwitchCounts, sel.f.MidSwitches)
						}
						continue
					}
					dv, fv := sel.d.NoCPower.DynW(), sel.f.NoCPower.DynW()
					if sel.name == "best-latency" {
						dv, fv = sel.d.MeanLatencyCycles, sel.f.MeanLatencyCycles
					}
					if sel.f.WireViolations > sel.d.WireViolations ||
						(sel.f.WireViolations == sel.d.WireViolations && fv > dv) {
						t.Fatalf("%s %s: factorial winner (%d violations, %g) worse than diagonal (%d, %g)",
							label, sel.name, sel.f.WireViolations, fv, sel.d.WireViolations, dv)
					}
				}
				if !one {
					continue
				}
				front := frontValues(diag)
				if len(front) != len(full.Front) {
					t.Fatalf("%s: diagonal front has %d points, factorial %d", label, len(front), len(full.Front))
				}
				for i := range front {
					if front[i].PowerW != full.Front[i].PowerW || front[i].LatencyCycles != full.Front[i].LatencyCycles {
						t.Fatalf("%s: front[%d] (%g, %g) vs factorial (%g, %g)", label, i,
							front[i].PowerW, front[i].LatencyCycles, full.Front[i].PowerW, full.Front[i].LatencyCycles)
					}
				}
			}
		}
	}
}

// TestSweepSpecInfeasibleCutsNothing: when the bounds layer proves the
// whole spec infeasible (a latency constraint below the routing
// minimum), the sweep must bound-prune every candidate without
// min-cutting a single island — the lazy partition table is only
// touched by candidates that survive the infeasibility proofs.
func TestSweepSpecInfeasibleCutsNothing(t *testing.T) {
	spec := miniSoC()
	spec.Flows[0].MaxLatencyCycles = 0.001
	env := mustEnv(t, spec, model.Default65nm(), Options{AllowIntermediate: true, MaxIntermediateSwitches: 2, Workers: 4})
	if env.bounds == nil || !env.bounds.specInfeasible {
		t.Fatal("fixture is not provably infeasible")
	}
	res, err := env.sweep(context.Background(), SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Explored != res.Size || res.PruneStats.BoundPruned != int(res.Explored) {
		t.Fatalf("want all %d candidates bound-pruned, got explored=%d %+v", res.Size, res.Explored, res.PruneStats)
	}
	for j, row := range env.table.entries {
		for k := range row {
			if e := &row[k]; e.part != nil || e.err != nil {
				t.Fatalf("island %d k=%d: partition resolved for a provably infeasible spec", j, k)
			}
		}
	}
}
