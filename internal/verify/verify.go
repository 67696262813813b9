// Package verify runs the complete design-rule suite over a synthesized
// topology and produces a structured sign-off report: structural
// validity, the shutdown-safety matrix (which islands can be gated and
// what survives), deadlock analysis, link capacity headroom, wire
// timing after floorplanning, and the power summary. The command-line
// tools print it; tests assert on it.
package verify

import (
	"fmt"
	"strings"

	"nocvi/internal/deadlock"
	"nocvi/internal/floorplan"
	"nocvi/internal/num"
	"nocvi/internal/power"
	"nocvi/internal/soc"
	"nocvi/internal/topology"
)

// IslandReport is one row of the shutdown matrix.
type IslandReport struct {
	Island       soc.IslandID
	Name         string
	Shutdownable bool
	// SurvivingFlows counts flows still routable with this island
	// gated; LostFlows those sourced/sunk in it (legitimately lost).
	SurvivingFlows int
	LostFlows      int
	// DeliveryOK reports, for a gateable island, that gating it alone
	// severs no flow between two other islands
	// (topology.ValidateShutdownSafeMask).
	DeliveryOK bool
	// SavedFrac is the system power fraction recovered by gating it.
	SavedFrac float64
}

// LinkReport flags the tightest links.
type LinkReport struct {
	Link        topology.LinkID
	Utilization float64
}

// Report is the full sign-off result.
type Report struct {
	Structural error // nil when the topology validates
	Deadlock   *deadlock.Report
	Islands    []IslandReport

	// MaxUtilization and TightLinks summarize capacity headroom
	// (links above 80% utilization are listed).
	MaxUtilization float64
	TightLinks     []LinkReport

	// WireViolations lists links exceeding the single-cycle wire budget
	// (empty when the topology has no floorplan annotations).
	WireViolations []topology.LinkID

	// Power is the all-on NoC breakdown.
	Power power.Breakdown
}

// OK reports overall sign-off: structurally valid, deadlock free, every
// gateable island verified, no capacity overruns.
func (r *Report) OK() bool {
	if r.Structural != nil || !r.Deadlock.Free() || !num.Leq(r.MaxUtilization, 1) {
		return false
	}
	for _, isl := range r.Islands {
		if isl.Shutdownable && !isl.DeliveryOK {
			return false
		}
	}
	return true
}

// Run executes the full suite. pl may be nil when the topology carries
// link-length annotations already (wire checks then use those).
func Run(top *topology.Topology, pl *floorplan.Placement) *Report {
	r := &Report{
		Structural: top.Validate(),
		Deadlock:   deadlock.Analyze(top),
		Power:      power.NoC(top),
	}
	r.MaxUtilization = top.MaxLinkUtilization()
	for i, l := range top.Links {
		if c := top.CapacityBps(l.From, l.To); c > 0 {
			if u := l.TrafficBps / c; u > 0.8 {
				r.TightLinks = append(r.TightLinks, LinkReport{Link: topology.LinkID(i), Utilization: u})
			}
		}
	}
	if pl != nil {
		r.WireViolations = floorplan.WireDelayViolations(top, pl)
	}
	for i, isl := range top.Spec.Islands {
		ir := IslandReport{Island: soc.IslandID(i), Name: isl.Name, Shutdownable: isl.Shutdownable}
		for _, f := range top.Spec.Flows {
			if top.Spec.IslandOf[f.Src] == soc.IslandID(i) || top.Spec.IslandOf[f.Dst] == soc.IslandID(i) {
				ir.LostFlows++
			} else {
				ir.SurvivingFlows++
			}
		}
		if isl.Shutdownable {
			off := make([]bool, len(top.Spec.Islands))
			off[i] = true
			ir.DeliveryOK = top.ValidateShutdownSafeMask(off) == nil
			if _, _, frac, err := power.Savings(top, power.Scenario{Name: isl.Name, Off: off}); err == nil {
				ir.SavedFrac = frac
			}
		}
		r.Islands = append(r.Islands, ir)
	}
	return r
}

// Format renders the report for humans.
func (r *Report) Format() string {
	var b strings.Builder
	status := "PASS"
	if !r.OK() {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "design sign-off: %s\n", status)
	if r.Structural != nil {
		fmt.Fprintf(&b, "  structural: %v\n", r.Structural)
	} else {
		b.WriteString("  structural: ok\n")
	}
	fmt.Fprintf(&b, "  deadlock: %s\n", r.Deadlock)
	fmt.Fprintf(&b, "  capacity: max link utilization %.0f%%", r.MaxUtilization*100)
	if len(r.TightLinks) > 0 {
		b.WriteString(" (tight:")
		for _, t := range r.TightLinks {
			fmt.Fprintf(&b, " link%d=%.0f%%", t.Link, t.Utilization*100)
		}
		b.WriteString(")")
	}
	b.WriteString("\n")
	if len(r.WireViolations) > 0 {
		fmt.Fprintf(&b, "  wire timing: %d links exceed the single-cycle budget: %v\n",
			len(r.WireViolations), r.WireViolations)
	} else {
		b.WriteString("  wire timing: ok\n")
	}
	fmt.Fprintf(&b, "  NoC power: %.2f mW dynamic, %.2f mW leakage\n",
		r.Power.DynW()*1e3, r.Power.LeakW()*1e3)
	b.WriteString("  shutdown matrix:\n")
	for _, isl := range r.Islands {
		if !isl.Shutdownable {
			fmt.Fprintf(&b, "    %-12s always-on   (%d flows touch it)\n", isl.Name, isl.LostFlows)
			continue
		}
		ok := "delivery ok"
		if !isl.DeliveryOK {
			ok = "DELIVERY FAILED"
		}
		fmt.Fprintf(&b, "    %-12s gateable    %3d flows survive, %2d lost with it, saves %4.1f%%  [%s]\n",
			isl.Name, isl.SurvivingFlows, isl.LostFlows, isl.SavedFrac*100, ok)
	}
	return b.String()
}
