// Package fault analyzes single-link-failure recoverability of a
// synthesized topology, quantifying the paper's related-work argument:
// rerouting around failed (or shut down) components "does not guarantee
// the availability of paths" [20]. For every link of the design the
// analysis removes it and attempts to re-route all affected flows over
// the *remaining* links only (silicon cannot grow wires after
// fabrication), under the same island discipline, capacity and latency
// constraints. The fraction of unrecoverable failures is the number the
// paper's design-time guarantee avoids paying at run time.
package fault

import (
	"fmt"
	"sort"
	"strings"

	"nocvi/internal/route"
	"nocvi/internal/soc"
	"nocvi/internal/topology"
)

// LinkOutcome is the recovery result for one failed link.
type LinkOutcome struct {
	Link topology.LinkID
	// AffectedFlows counts flows whose route used the link.
	AffectedFlows int
	// Recovered is true when every affected flow found a new path over
	// the surviving links within its constraints.
	Recovered bool
	// ZeroReroute marks a recovery that needed no re-routing at all:
	// every affected flow fell back to a pre-synthesized disjoint
	// backup route (topology.Route.Backups). This is the recovery mode
	// survivable designs (core.Options.Survivability >= 1) guarantee.
	// omitempty keeps k=0 campaign reports byte-identical to builds
	// that predate the field.
	ZeroReroute bool `json:",omitempty"`
	// Reason holds the first failure when not recovered.
	Reason string
}

// Report summarizes the single-link-failure sweep.
type Report struct {
	Links       int
	Recoverable int
	Outcomes    []LinkOutcome
}

// RecoverableFrac returns the fraction of link failures the routing
// could work around.
func (r *Report) RecoverableFrac() float64 {
	if r.Links == 0 {
		return 1
	}
	return float64(r.Recoverable) / float64(r.Links)
}

// Analyze sweeps every link of the topology. Outcomes are sorted by
// LinkID and Reason strings are single-line, so reports of the same
// design are byte-identical across runs. Each fault is the campaign's
// link fault in the all-on power state with no survivability contract:
// every flow is re-routed on one arena, rebuilt in place per link.
func Analyze(top *topology.Topology) (*Report, error) {
	rep := &Report{Links: len(top.Links)}
	a := arena{active: top.Spec.SortFlowsByBandwidth()}
	allOn := make([]bool, len(top.Spec.Islands))
	for i := range top.Links {
		out, err := tryWithoutUnderState(&a, top, topology.LinkID(i), allOn, 0)
		if err != nil {
			return nil, err
		}
		if out.Recovered {
			rep.Recoverable++
		}
		rep.Outcomes = append(rep.Outcomes, out)
	}
	sortOutcomes(rep.Outcomes)
	return rep, nil
}

// sortOutcomes orders a sweep's outcomes canonically by failed link.
// Sweeps emit them in link order already; sorting here pins the report
// layout as an invariant rather than a side effect of iteration order.
func sortOutcomes(outs []LinkOutcome) {
	sort.Slice(outs, func(i, j int) bool { return outs[i].Link < outs[j].Link })
}

// stableReason normalizes an error into a deterministic single-line
// Reason string.
func stableReason(err error) string {
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}

// arena is one worker's reusable fault-evaluation state. Every link
// fault rebuilds the design into top, which rebuildInto rebinds while
// keeping the switch, link, route, core-list and link-index storage of
// the previous fault, and re-routes on it with router, which Reset
// re-targets at the rebuilt topology and which keeps its own Dijkstra
// scratch. active holds the current power state's surviving flows. The
// zero value is ready: the topology and router are built on the first
// rebuild, so a survivable campaign, which never re-routes, never
// allocates them. An arena belongs to one goroutine; a campaign gives
// each worker its own.
type arena struct {
	top    *topology.Topology
	router *route.Router
	active []soc.Flow
}

// rebuild reconstructs orig without the failed link into a.top and
// re-targets a.router at it with NoNewLinks: re-routing may use the
// surviving links only.
func (a *arena) rebuild(orig *topology.Topology, failed topology.LinkID) error {
	if a.top == nil {
		a.top = topology.New(orig.Spec, orig.Lib)
	}
	if err := rebuildInto(a.top, orig, failed); err != nil {
		return err
	}
	if a.router == nil {
		a.router = route.New(a.top, route.Options{NoNewLinks: true})
	} else {
		a.router.Reset(a.top, route.Options{NoNewLinks: true})
	}
	return nil
}

// rebuildInto rebinds dst and builds in it a copy of orig's
// construction essentials — island tables, switches, core attachments —
// with every link except the failed one and no routes, so traffic
// starts at zero. Links after the failed one are renumbered down by one,
// exactly as a fresh build would number them, so routing on dst matches
// routing on a newly allocated rebuild. Both the single-link sweep and
// the power-state campaign re-route on topologies built here.
func rebuildInto(dst, orig *topology.Topology, failed topology.LinkID) error {
	dst.Rebind(orig.Spec, orig.Lib)
	dst.NoCIsland = orig.NoCIsland
	dst.IslandFreqHz = append(dst.IslandFreqHz[:0], orig.IslandFreqHz...)
	dst.IslandVoltage = append(dst.IslandVoltage[:0], orig.IslandVoltage...)
	copy(dst.SwitchOf, orig.SwitchOf)
	for _, s := range orig.Switches {
		dst.Switches = append(dst.Switches, topology.Switch{Island: s.Island, Indirect: s.Indirect})
	}
	for i, l := range orig.Links {
		if topology.LinkID(i) != failed {
			dst.Links = append(dst.Links, topology.Link{From: l.From, To: l.To})
		}
	}
	return dst.Build()
}

// Format renders the report.
func (r *Report) Format() string {
	s := fmt.Sprintf("single-link-failure sweep: %d/%d recoverable (%.0f%%)\n",
		r.Recoverable, r.Links, r.RecoverableFrac()*100)
	for _, o := range r.Outcomes {
		if !o.Recovered {
			s += fmt.Sprintf("  link %d UNRECOVERABLE (%d flows affected): %s\n",
				o.Link, o.AffectedFlows, o.Reason)
		}
	}
	return s
}
