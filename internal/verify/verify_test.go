package verify_test

import (
	"math"
	"strings"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/model"
	"nocvi/internal/num"
	"nocvi/internal/topology"
	"nocvi/internal/verify"
	"nocvi/internal/viplace"
)

func synth(t *testing.T) *core.DesignPoint {
	t.Helper()
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Synthesize(spec, model.Default65nm(), core.Options{
		AllowIntermediate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Best()
}

func TestSignoffPasses(t *testing.T) {
	dp := synth(t)
	rep := verify.Run(dp.Top, dp.Placement)
	if !rep.OK() {
		t.Fatalf("synthesized design fails sign-off:\n%s", rep.Format())
	}
	if rep.Structural != nil {
		t.Fatal(rep.Structural)
	}
	if !rep.Deadlock.Free() {
		t.Fatal("deadlock reported")
	}
	if rep.MaxUtilization <= 0 || rep.MaxUtilization > 1 {
		t.Fatalf("utilization %g out of (0,1]", rep.MaxUtilization)
	}
	if len(rep.WireViolations) != 0 {
		t.Fatalf("wire violations: %v", rep.WireViolations)
	}
	if rep.Power.DynW() <= 0 {
		t.Fatal("power missing")
	}
	// Shutdown matrix covers all islands and flow counts add up.
	if len(rep.Islands) != len(dp.Top.Spec.Islands) {
		t.Fatal("island matrix incomplete")
	}
	for _, isl := range rep.Islands {
		if isl.SurvivingFlows+isl.LostFlows != len(dp.Top.Spec.Flows) {
			t.Fatalf("island %s: %d+%d flows != %d",
				isl.Name, isl.SurvivingFlows, isl.LostFlows, len(dp.Top.Spec.Flows))
		}
		if isl.Shutdownable && (!isl.DeliveryOK || isl.SavedFrac <= 0) {
			t.Fatalf("gateable island %s not verified: %+v", isl.Name, isl)
		}
	}
}

func TestSignoffFormat(t *testing.T) {
	dp := synth(t)
	out := verify.Run(dp.Top, dp.Placement).Format()
	for _, want := range []string{"PASS", "deadlock-free", "shutdown matrix", "gateable", "always-on"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestSignoffCatchesOverload(t *testing.T) {
	dp := synth(t)
	if len(dp.Top.Links) == 0 {
		t.Skip("no links")
	}
	l := &dp.Top.Links[0]
	l.TrafficBps = dp.Top.CapacityBps(l.From, l.To) * 3
	rep := verify.Run(dp.Top, dp.Placement)
	if rep.OK() {
		t.Fatal("overloaded design passed sign-off")
	}
	if rep.MaxUtilization < 3 {
		t.Fatalf("utilization %g should reflect the overload", rep.MaxUtilization)
	}
	if !strings.Contains(rep.Format(), "FAIL") {
		t.Fatal("report should say FAIL")
	}
	// The round-trip helper must now disagree with the books.
	if !math.IsInf(roundTripUtilization(dp.Top), 1) {
		t.Fatal("traffic bookkeeping corruption not detected")
	}
}

// roundTripUtilization recomputes the worst link utilization from the
// routes, or +Inf when a link's recorded traffic disagrees with the
// routes crossing it: a check of the topology's traffic bookkeeping.
func roundTripUtilization(top *topology.Topology) float64 {
	traffic := make([]float64, len(top.Links))
	for ri := range top.Routes {
		for _, l := range top.Routes[ri].Links {
			traffic[l] += top.Routes[ri].Flow.BandwidthBps
		}
	}
	var worst float64
	for i, l := range top.Links {
		if !num.Within(traffic[i], l.TrafficBps, 1e-6) {
			return math.Inf(1) // bookkeeping broken
		}
		if c := top.CapacityBps(l.From, l.To); c > 0 {
			worst = max(worst, traffic[i]/c)
		}
	}
	return worst
}

func TestRoundTripUtilizationAgrees(t *testing.T) {
	dp := synth(t)
	rt := roundTripUtilization(dp.Top)
	if math.IsInf(rt, 1) {
		t.Fatal("bookkeeping mismatch on a fresh design")
	}
	if math.Abs(rt-dp.Top.MaxLinkUtilization()) > 1e-9 {
		t.Fatalf("round-trip %g vs books %g", rt, dp.Top.MaxLinkUtilization())
	}
}

func TestSignoffNilPlacement(t *testing.T) {
	dp := synth(t)
	rep := verify.Run(dp.Top, nil)
	if len(rep.WireViolations) != 0 {
		t.Fatal("nil placement should skip wire checks")
	}
	if !rep.OK() {
		t.Fatal("nil-placement sign-off failed")
	}
}
