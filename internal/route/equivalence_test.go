// Equivalence proof for the routing fast path: the optimized router
// (island-pruned implicit subgraphs, scratch Dijkstra, per-switch link
// chains) must produce *identical* topologies to the pre-optimization
// reference — same links in the same order with the same traffic and
// capacity, same routes, same power, same latency — on every bundled
// benchmark and a population of randomly generated SoCs. refRouter
// below is a faithful copy of the seed implementation: a complete n²
// candidate graph with the island discipline evaluated inside the cost
// closure, allocation-per-query container/heap Dijkstra, and linear
// FindLink/SwitchPorts scans over the exported slices so it does not
// depend on any of the machinery under test.
package route_test

import (
	"fmt"
	"math"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/graph"
	"nocvi/internal/model"
	"nocvi/internal/power"
	"nocvi/internal/route"
	"nocvi/internal/soc"
	"nocvi/internal/specgen"
	"nocvi/internal/topology"
)

// refRouter is the seed router, frozen. Do not "improve" it: its value
// is that it routes the way the original code did, scan by scan.
type refRouter struct {
	top    *topology.Topology
	opt    route.Options
	maxSz  []int
	minLat float64
	g      *graph.Directed
}

func newRefRouter(top *topology.Topology, opt route.Options) *refRouter {
	r := &refRouter{top: top, opt: opt, minLat: top.Spec.MinLatencyConstraint()}
	r.maxSz = make([]int, top.NumIslands())
	for i := range r.maxSz {
		r.maxSz[i] = top.Lib.MaxSwitchSize(top.IslandFreqHz[i])
	}
	n := len(top.Switches)
	r.g = graph.NewDirected(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				r.g.AddEdge(u, v, 1)
			}
		}
	}
	return r
}

// refFindLink and refSwitchPorts are the seed's linear scans, kept
// independent of the indexed implementations they were replaced by.
func (r *refRouter) refFindLink(from, to topology.SwitchID) (topology.LinkID, bool) {
	for i, l := range r.top.Links {
		if l.From == from && l.To == to {
			return topology.LinkID(i), true
		}
	}
	return -1, false
}

func (r *refRouter) refSwitchPorts(sw topology.SwitchID) (in, out int) {
	for _, at := range r.top.SwitchOf {
		if at == sw {
			in++
			out++
		}
	}
	for _, l := range r.top.Links {
		if l.To == sw {
			in++
		}
		if l.From == sw {
			out++
		}
	}
	return in, out
}

func (r *refRouter) refSwitchSize(sw topology.SwitchID) int {
	in, out := r.refSwitchPorts(sw)
	if in > out {
		return in
	}
	return out
}

func (r *refRouter) routeAll() error {
	for _, f := range r.top.Spec.SortFlowsByBandwidth() {
		if err := r.route(f); err != nil {
			return err
		}
	}
	return nil
}

func (r *refRouter) route(f soc.Flow) error {
	src := r.top.SwitchOf[f.Src]
	dst := r.top.SwitchOf[f.Dst]
	if src < 0 || dst < 0 {
		return fmt.Errorf("route: flow %d->%d has unattached endpoint", f.Src, f.Dst)
	}
	if src == dst {
		return r.top.AddRoute(r.refFlowID(f), nil)
	}
	path := r.shortest(f, src, dst, false)
	if path != nil && !r.latencyOK(f, path) {
		path = nil
	}
	if path == nil {
		path = r.shortest(f, src, dst, true)
		if path != nil && !r.latencyOK(f, path) {
			path = nil
		}
	}
	if path == nil {
		lat := "unconstrained"
		if f.MaxLatencyCycles > 0 {
			lat = fmt.Sprintf("lat<=%.0f", f.MaxLatencyCycles)
		}
		return fmt.Errorf("route: no feasible path for flow %d->%d (%.0f MB/s, %s)",
			f.Src, f.Dst, f.BandwidthBps/1e6, lat)
	}
	return r.commit(f, path)
}

func (r *refRouter) allowed(u, v topology.SwitchID, srcIsl, dstIsl soc.IslandID) bool {
	iu := r.top.Switches[u].Island
	iv := r.top.Switches[v].Island
	mid := r.top.NoCIsland
	in := func(i soc.IslandID) bool { return i == srcIsl || i == dstIsl || (mid != soc.NoIsland && i == mid) }
	if !in(iu) || !in(iv) {
		return false
	}
	if iu == iv {
		return true
	}
	switch {
	case iu == srcIsl && (iv == dstIsl || iv == mid):
		return true
	case iu == mid && iv == dstIsl:
		return true
	}
	return false
}

func (r *refRouter) hopLatency(u, v topology.SwitchID) float64 {
	lat := model.SwitchTraversalCycles + model.LinkTraversalCycles
	if r.top.Switches[u].Island != r.top.Switches[v].Island {
		lat += model.FIFOCrossingCycles
	}
	return lat
}

func (r *refRouter) edgeCost(u, v topology.SwitchID, f soc.Flow, latOnly bool) float64 {
	lib := r.top.Lib
	su, sv := &r.top.Switches[u], &r.top.Switches[v]
	crossing := su.Island != sv.Island
	bw := f.BandwidthBps
	fu, fv := r.top.IslandFreqHz[su.Island], r.top.IslandFreqHz[sv.Island]
	vu, vv := r.top.IslandVoltage[su.Island], r.top.IslandVoltage[sv.Island]
	capacity := lib.LinkCapacityBps(math.Min(fu, fv))

	lid, exists := r.refFindLink(u, v)
	if exists {
		l := r.top.Links[lid]
		if l.TrafficBps+bw > capacity*(1+1e-9) {
			return graph.Inf
		}
	} else if r.opt.NoNewLinks {
		return graph.Inf
	} else {
		inU, outU := r.refSwitchPorts(u)
		inV, outV := r.refSwitchPorts(v)
		if maxi(inU, outU+1) > r.maxSz[su.Island] || maxi(inV+1, outV) > r.maxSz[sv.Island] {
			return graph.Inf
		}
		if bw > capacity*(1+1e-9) {
			return graph.Inf
		}
	}

	if latOnly {
		return r.hopLatency(u, v)
	}

	vMax := math.Max(vu, vv)
	eBit := lib.SwitchEnergyBase + lib.SwitchEnergyPerPort*float64(r.refSwitchSize(v))
	pw := bw * 8 * eBit * lib.VoltageScaleDynamic(vv)
	pw += lib.LinkDynPowerW(2.0, vMax, bw)
	if crossing {
		pw += lib.FIFODynPowerW(vu, vv, bw)
	}
	if !exists {
		pw += lib.SwitchIdlePerPortHz * (fu + fv) * lib.VoltageScaleDynamic(vMax)
		pw += lib.SwitchLeakPowerW(1, vu) + lib.SwitchLeakPowerW(1, vv)
		pw += lib.LinkLeakPowerW(2.0, vMax)
		if crossing {
			pw += lib.FIFOLeakPowerW(vu, vv)
		}
	}

	tightness := 0.0
	if f.MaxLatencyCycles > 0 && r.minLat > 0 {
		tightness = r.minLat / f.MaxLatencyCycles
	}
	return pw + 1e-3*tightness*r.hopLatency(u, v)
}

func (r *refRouter) shortest(f soc.Flow, src, dst topology.SwitchID, latOnly bool) []topology.SwitchID {
	srcIsl := r.top.Spec.IslandOf[f.Src]
	dstIsl := r.top.Spec.IslandOf[f.Dst]
	cost := func(u, v int, _ float64) float64 {
		if !r.allowed(topology.SwitchID(u), topology.SwitchID(v), srcIsl, dstIsl) {
			return graph.Inf
		}
		return r.edgeCost(topology.SwitchID(u), topology.SwitchID(v), f, latOnly)
	}
	path, c := r.g.ShortestPath(int(src), int(dst), cost)
	if math.IsInf(c, 1) {
		return nil
	}
	out := make([]topology.SwitchID, len(path))
	for i, p := range path {
		out[i] = topology.SwitchID(p)
	}
	return out
}

func (r *refRouter) latencyOK(f soc.Flow, path []topology.SwitchID) bool {
	if f.MaxLatencyCycles <= 0 {
		return true
	}
	lat := 2 * model.LinkTraversalCycles
	lat += model.SwitchTraversalCycles * float64(len(path))
	for i := 1; i < len(path); i++ {
		lat += model.LinkTraversalCycles
		if r.top.Switches[path[i-1]].Island != r.top.Switches[path[i]].Island {
			lat += model.FIFOCrossingCycles
		}
	}
	return lat <= f.MaxLatencyCycles
}

func (r *refRouter) commit(f soc.Flow, path []topology.SwitchID) error {
	links := make([]topology.LinkID, 0, len(path)-1)
	for i := 1; i < len(path); i++ {
		lid, ok := r.refFindLink(path[i-1], path[i])
		if !ok {
			var err error
			lid, err = r.top.AddLink(path[i-1], path[i])
			if err != nil {
				return fmt.Errorf("route: opening link for flow %d->%d: %w", f.Src, f.Dst, err)
			}
		}
		links = append(links, lid)
	}
	return r.top.AddRoute(r.refFlowID(f), links)
}

// refFlowID is f's index in the spec, found by a linear scan; the
// seed's routes held the flow itself.
func (r *refRouter) refFlowID(f soc.Flow) soc.FlowID {
	for i, g := range r.top.Spec.Flows {
		if g.Src == f.Src && g.Dst == f.Dst {
			return soc.FlowID(i)
		}
	}
	return -1
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// unrouted builds the engine's own unrouted candidate at step extra of
// Synthesize's diagonal walk with mid indirect switches (core.Unrouted):
// the topology the sweep would route there. The intermediate sweep is
// fixed at two switches, so specs whose largest island has one core
// still offer mid = 2.
func unrouted(spec *soc.Spec, lib *model.Library, extra, mid int) (*topology.Topology, error) {
	return core.Unrouted(spec, lib, core.Options{AllowIntermediate: true, MaxIntermediateSwitches: 2}, extra, mid)
}

// compareRouting builds the same candidate twice (core.Unrouted is
// deterministic), routes one with the optimized router and one with
// the reference, and demands exact equality — including exact float
// equality on power and latency, since the optimization claims
// bit-identical arithmetic, not approximate equivalence.
func compareRouting(t *testing.T, label string, spec *soc.Spec, lib *model.Library, extra, mid int, opt route.Options) {
	t.Helper()
	optTop, err := unrouted(spec, lib, extra, mid)
	if err != nil {
		t.Fatalf("%s: unrouted: %v", label, err)
	}
	refTop, err := unrouted(spec, lib, extra, mid)
	if err != nil {
		t.Fatalf("%s: unrouted: %v", label, err)
	}

	optErr := route.New(optTop, opt).RouteAll()
	refErr := newRefRouter(refTop, opt).routeAll()

	// Infeasible candidates must fail identically: same first
	// unroutable flow, same message.
	if (optErr == nil) != (refErr == nil) {
		t.Fatalf("%s: optimized err=%v, reference err=%v", label, optErr, refErr)
	}
	if optErr != nil {
		if optErr.Error() != refErr.Error() {
			t.Fatalf("%s: error mismatch:\n  optimized: %v\n  reference: %v", label, optErr, refErr)
		}
		return
	}

	if len(optTop.Links) != len(refTop.Links) {
		t.Fatalf("%s: %d links vs reference %d", label, len(optTop.Links), len(refTop.Links))
	}
	for i := range optTop.Links {
		a, b := optTop.Links[i], refTop.Links[i]
		if a != b {
			t.Fatalf("%s: link %d differs:\n  optimized: %+v\n  reference: %+v", label, i, a, b)
		}
	}

	if len(optTop.Routes) != len(refTop.Routes) {
		t.Fatalf("%s: %d routes vs reference %d", label, len(optTop.Routes), len(refTop.Routes))
	}
	for i := range optTop.Routes {
		a, b := optTop.Routes[i], refTop.Routes[i]
		if a.Flow != b.Flow {
			t.Fatalf("%s: route %d flow differs: %+v vs %+v", label, i, a.Flow, b.Flow)
		}
		al, bl := optTop.PathLinks(a.Links), refTop.PathLinks(b.Links)
		if len(al) != len(bl) {
			t.Fatalf("%s: route %d shape differs: %v vs %v", label, i, al, bl)
		}
		for j := range al {
			if al[j] != bl[j] {
				t.Fatalf("%s: route %d links differ: %v vs %v", label, i, al, bl)
			}
		}
	}

	if ap, bp := power.NoC(optTop), power.NoC(refTop); ap != bp {
		t.Fatalf("%s: power differs:\n  optimized: %+v\n  reference: %+v", label, ap, bp)
	}
	if al, bl := optTop.MeanZeroLoadLatency(), refTop.MeanZeroLoadLatency(); al != bl {
		t.Fatalf("%s: latency differs: %v vs %v", label, al, bl)
	}
}

// TestRoutingEquivalenceSuite covers every bundled benchmark across
// candidate shapes (tight and relaxed switch counts, with and without
// intermediate switches).
func TestRoutingEquivalenceSuite(t *testing.T) {
	lib := model.Default65nm()
	for _, name := range bench.Names() {
		spec, err := bench.Islanded(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mid := range []int{0, 2} {
			for _, extra := range []int{0, 1} {
				label := fmt.Sprintf("%s/mid=%d/extra=%d", name, mid, extra)
				compareRouting(t, label, spec, lib, extra, mid, route.Options{})
			}
		}
	}
}

// TestRoutingEquivalenceRandom fans the comparison over randomly
// generated SoCs — 24 seeds across sizes and island counts, exercising
// subgraph shapes (single-island flows, no intermediate island,
// many-island specs) the curated suite does not.
func TestRoutingEquivalenceRandom(t *testing.T) {
	lib := model.Default65nm()
	for seed := int64(1); seed <= 24; seed++ {
		opt := specgen.Options{
			MaxCores:   10 + int(seed%3)*12, // 10, 22, 34
			MaxIslands: 2 + int(seed%5),     // 2..6
		}
		spec := specgen.Random(seed, opt)
		mid := int(seed % 3) // 0, 1, 2 intermediate switches
		label := fmt.Sprintf("seed=%d/cores=%d/mid=%d", seed, len(spec.Cores), mid)
		compareRouting(t, label, spec, lib, int(seed%2), mid, route.Options{})
	}
}
