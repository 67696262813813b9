package core

import (
	"fmt"
	"reflect"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/floorplan"
	"nocvi/internal/model"
	"nocvi/internal/power"
	"nocvi/internal/route"
	"nocvi/internal/soc"
	"nocvi/internal/specgen"
)

// identitySpecs is the population of the construction and front
// identity tests: every bundled benchmark plus twelve specgen specs.
func identitySpecs(t *testing.T) []*soc.Spec {
	t.Helper()
	var specs []*soc.Spec
	for _, name := range bench.Names() {
		specs = append(specs, mustIslanded(t, name))
	}
	for seed := int64(1); seed <= 12; seed++ {
		specs = append(specs, specgen.Random(seed, specgen.Options{MaxCores: 12 + int(seed%3)*6, MaxIslands: 2 + int(seed%4)}))
	}
	return specs
}

// identityOpt is the sweep the identity tests compare against: every
// feasible candidate kept, intermediate island allowed.
var identityOpt = Options{NoPrune: true, AllowIntermediate: true}

// walkStep recovers the diagonal step of a point: the island with the
// widest range is never clamped before the walk ends, so the largest
// rise above the minimum is the step.
func walkStep(res *Result, dp *DesignPoint) int {
	step := 0
	for j, k := range dp.SwitchCounts {
		step = max(step, k-res.MinSwitches[j])
	}
	return step
}

// TestUnroutedMatchesSynthesize pins that Unrouted builds the engine's
// own candidates: its topology, routed with the spec's bandwidth-sorted
// flows and floorplanned under the same options, is every Synthesize
// design point's topology — same switches, attachments, links and
// routes, bit-equal power and latency. Route tests and BenchmarkRouteAll
// route what Unrouted builds, so this is what ties them to the sweep.
func TestUnroutedMatchesSynthesize(t *testing.T) {
	lib := model.Default65nm()
	checked := 0
	for _, spec := range identitySpecs(t) {
		res, err := Synthesize(spec, lib, identityOpt)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		flows := spec.SortFlowsByBandwidth()
		for i := range res.Points {
			dp := &res.Points[i]
			step := walkStep(res, dp)
			label := fmt.Sprintf("%s/step=%d/mid=%d", spec.Name, step, dp.MidSwitches)
			top, err := Unrouted(spec, lib, identityOpt, step, dp.MidSwitches)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := route.New(top, identityOpt.Router).RouteFlows(flows); err != nil {
				t.Fatalf("%s: routing the engine's feasible candidate failed: %v", label, err)
			}
			if _, err := floorplan.Place(top, identityOpt.Floorplan); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(top.SwitchOf, dp.Top.SwitchOf) || !reflect.DeepEqual(top.Switches, dp.Top.Switches) {
				t.Fatalf("%s: switches or core attachment differ from the engine's", label)
			}
			if !reflect.DeepEqual(top.Links, dp.Top.Links) {
				t.Fatalf("%s: links differ:\n%v\nvs engine\n%v", label, top.Links, dp.Top.Links)
			}
			if !reflect.DeepEqual(top.Routes, dp.Top.Routes) {
				t.Fatalf("%s: routes differ from the engine's", label)
			}
			if p := power.NoC(top); p != dp.NoCPower {
				t.Fatalf("%s: power %+v vs engine %+v", label, p, dp.NoCPower)
			}
			if l := top.MeanZeroLoadLatency(); l != dp.MeanLatencyCycles {
				t.Fatalf("%s: latency %v vs engine %v", label, l, dp.MeanLatencyCycles)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no design point checked")
	}
	t.Logf("%d design points rebuilt identically", checked)
}

// TestUnroutedSuiteRoutable checks every bundled benchmark yields a
// well-formed candidate at step 1, with and without intermediate
// switches, and that it routes once intermediate switches exist.
func TestUnroutedSuiteRoutable(t *testing.T) {
	lib := model.Default65nm()
	opt := Options{AllowIntermediate: true}
	for _, name := range bench.Names() {
		spec := mustIslanded(t, name)
		for _, mid := range []int{0, 2} {
			top, err := Unrouted(spec, lib, opt, 1, mid)
			if err != nil {
				t.Fatalf("%s mid=%d: %v", name, mid, err)
			}
			if got := top.IndirectSwitchCount(); got != mid {
				t.Fatalf("%s: %d indirect switches, want %d", name, got, mid)
			}
			for c := range spec.Cores {
				if top.SwitchOf[c] < 0 {
					t.Fatalf("%s: core %d unattached", name, c)
				}
			}
			if len(top.Links) != 0 || len(top.Routes) != 0 {
				t.Fatalf("%s mid=%d: unrouted topology carries links or routes", name, mid)
			}
			// The minimal design point need not be routable (that is
			// what the sweep explores), but with intermediate switches
			// available every bundled benchmark should route.
			if err := route.New(top, route.Options{}).RouteAll(); err != nil && mid > 0 {
				t.Fatalf("%s mid=%d: unroutable: %v", name, mid, err)
			}
		}
	}
}

// TestUnroutedDeterministic pins that two builds of the same candidate
// are identical (the property the routing-equivalence tests rely on).
func TestUnroutedDeterministic(t *testing.T) {
	lib := model.Default65nm()
	spec := specgen.Random(7, specgen.Options{MaxCores: 14, MaxIslands: 4})
	opt := Options{AllowIntermediate: true}
	a, err := Unrouted(spec, lib, opt, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Unrouted(spec, lib, opt, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two builds differ:\n%+v\nvs\n%+v", a.Switches, b.Switches)
	}
}

// TestUnroutedOutsideWalk: a (step, mid) the sweep never visits is an
// error, not a clamped or extrapolated topology.
func TestUnroutedOutsideWalk(t *testing.T) {
	lib := model.Default65nm()
	spec := miniSoC()
	opt := Options{AllowIntermediate: true, MaxIntermediateSwitches: 2}
	env := mustEnv(t, spec, lib, opt)
	steps := env.diagonal().vectors
	for _, c := range []struct {
		opt       Options
		step, mid int
	}{
		{opt, -1, 0},
		{opt, steps, 0},
		{opt, 0, -1},
		{opt, 0, 3},
		{Options{}, 0, 1}, // no intermediate island allowed
	} {
		if _, err := Unrouted(spec, lib, c.opt, c.step, c.mid); err == nil {
			t.Errorf("step=%d mid=%d (intermediate %v): built a candidate outside the walk", c.step, c.mid, c.opt.AllowIntermediate)
		}
	}
	if _, err := Unrouted(spec, lib, opt, steps-1, 2); err != nil {
		t.Fatalf("last step of the walk: %v", err)
	}
}
