// Package route implements step 15 of Algorithm 1: computing least-cost
// paths for the inter-switch traffic flows, opening links on demand.
//
// Flows are processed in decreasing bandwidth order. For each flow the
// router runs Dijkstra over the switch graph where every *allowed* switch
// pair is a candidate edge — existing links are priced at their marginal
// power, absent links additionally pay the cost of opening (idle power,
// leakage, and the port they consume). The paper's island discipline
// restricts candidates: a flow from island S to island D may only touch
// switches in S, in D, or in the never-shut-down intermediate NoC island
// M, and may only move "forward" (S→S, S→M, S→D, M→M, M→D, D→D), which
// both bounds latency and guarantees shutdown safety by construction.
//
// A candidate edge is rejected outright when the bandwidth would exceed
// the link capacity or when opening it would grow either endpoint switch
// beyond the island's max_sw_size (the frequency-feasibility bound from
// Algorithm 1 step 1).
package route

import (
	"fmt"
	"math"
	"slices"

	"nocvi/internal/graph"
	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/topology"
)

// Options tunes the router.
type Options struct {
	// NoNewLinks restricts routing to links that already exist in the
	// topology — used to re-route traffic on fabricated silicon (fault
	// recovery analysis), where wires cannot be added.
	NoNewLinks bool

	// Survivability requires k additional link-disjoint island-legal
	// routes per multi-hop flow: after every primary route is committed
	// (bit-identical to a k=0 run), the router strips each flow's
	// already-used directed links from the candidate graph and re-routes
	// it k times (iterative strip-and-reroute over the same Dijkstra
	// scratch and deterministic tie-breaks). The alternates are
	// committed as cold-standby Route.Backups — links opened, no traffic
	// accounted. A flow for which no k-th disjoint path exists fails the
	// whole routing, making the candidate design infeasible.
	Survivability int
}

// estLinkLengthMM is the pre-floorplan estimate of an inter-switch wire
// length used in the power term.
const estLinkLengthMM = 2.0

// latencyWeightW converts one cycle of path latency (scaled by the
// flow's constraint tightness) into watts for the linear cost
// combination.
const latencyWeightW = 1e-3

// Router routes flows over a topology under construction.
type Router struct {
	top    *topology.Topology
	opt    Options
	maxSz  []int   // per island, derived from its clock
	minLat float64 // tightest latency constraint of the spec

	// sub is the admissible candidate subgraph of the current shortest
	// query, refilled by subgraphFor for every query: Dijkstra only ever
	// visits switches in the source, destination and intermediate
	// islands, and the island discipline is encoded in the subgraph's
	// ranks instead of being re-checked inside the per-edge cost.
	sub subgraph

	// scratch is the Dijkstra state, reused across the Router's flows
	// and, through Reset, across the candidates a worker evaluates.
	scratch graph.Scratch

	// pathBuf holds the switch path of the current shortest query and
	// linkBuf the links openPath resolves it into. Both are overwritten
	// by every query and never escape: AddRoute and AddBackup copy the
	// links into the topology's link table.
	pathBuf []topology.SwitchID
	linkBuf []topology.LinkID

	// flows finds a flow's index in the spec, for the route that names
	// it. Reset rebuilds it only when the topology's spec changes, so a
	// sweep's candidates share one build.
	flows soc.FlowIndex

	// exclude is the per-query set of directed links the current
	// disjoint-path search must avoid (the flow's primary route plus its
	// already-committed backups). Empty for primary routing, so k=0
	// queries never pay for it. A linear scan: the set holds a few path
	// lengths at most.
	exclude []topology.LinkID

	// noPath is the one error Route and routeBackups fill and return
	// (see NoPathError).
	noPath NoPathError
}

// subgraph is the candidate graph restricted to the switches a flow
// between one island pair may touch. verts maps local vertex indices to
// switch IDs in ascending order — so local adjacency order equals the
// global ascending order the complete-graph router used, keeping
// equal-cost tie-breaks identical — and local inverts it by binary
// search.
//
// The island discipline (S→S, S→M, S→D, M→M, M→D, D→D) is a total
// preorder on the admissible islands, so the candidate arcs are never
// materialized: rank stores 0 for source-island switches, 1 for
// intermediate, 2 for destination (all 0 when source == destination,
// where every move is legal), and an arc u->v exists exactly when
// rank[u] <= rank[v]. Dijkstra runs over this implicit dense graph.
type subgraph struct {
	verts []topology.SwitchID
	rank  []int8
}

// local returns sw's local vertex index, or -1 when sw lies outside the
// subgraph's islands.
func (s *subgraph) local(sw topology.SwitchID) int {
	if i, ok := slices.BinarySearch(s.verts, sw); ok {
		return i
	}
	return -1
}

// New creates a router for the given topology. The topology must already
// contain all switches and core attachments; links and routes are added
// by the router.
func New(top *topology.Topology, opt Options) *Router {
	r := &Router{}
	r.Reset(top, opt)
	return r
}

// Reset re-targets the router at a new topology under the given
// options, recycling the subgraph, Dijkstra and path buffers and the
// per-island size bounds of the previous candidate. New is Reset on an
// empty router, so after Reset the router behaves exactly like
// New(top, opt): the synthesis arena's identity guarantee rests on that
// equivalence. A pooled router serves callers with different options,
// so none of the previous caller's options survive a Reset, and neither
// does the last *NoPathError it returned.
func (r *Router) Reset(top *topology.Topology, opt Options) {
	r.top = top
	r.opt = opt
	r.noPath = NoPathError{}
	r.minLat = top.Spec.MinLatencyConstraint()
	if r.flows.Spec() != top.Spec {
		r.flows.Reset(top.Spec)
	}
	n := top.NumIslands()
	if cap(r.maxSz) < n {
		r.maxSz = make([]int, n)
	}
	r.maxSz = r.maxSz[:n]
	for i := range r.maxSz {
		r.maxSz[i] = top.Lib.MaxSwitchSize(top.IslandFreqHz[i])
	}
}

// subgraphFor refills the router's subgraph with the admissible
// switches for flows from srcIsl to dstIsl and returns it. The scan is
// O(switches), small next to the O(|sub|²) edge pricings of the
// Dijkstra query it serves; the subgraph is valid until the next call.
func (r *Router) subgraphFor(srcIsl, dstIsl soc.IslandID) *subgraph {
	top := r.top
	mid := top.NoCIsland
	s := &r.sub
	s.verts = s.verts[:0]
	s.rank = s.rank[:0]
	for i := range top.Switches {
		isl := top.Switches[i].Island
		if isl != srcIsl && isl != dstIsl && (mid == soc.NoIsland || isl != mid) {
			continue
		}
		var rk int8
		switch {
		case srcIsl == dstIsl:
			rk = 0 // S == D: every admissible move is legal
		case isl == srcIsl:
			rk = 0
		case isl == dstIsl:
			rk = 2
		default:
			rk = 1 // intermediate island
		}
		s.verts = append(s.verts, topology.SwitchID(i))
		s.rank = append(s.rank, rk)
	}
	return s
}

// RouteAll routes every flow of the spec in decreasing bandwidth order,
// mutating the topology. On failure the topology is left partially
// routed and the error identifies the first flow that could not be
// placed; callers treat that as "design point invalid". A
// *NoPathError is the router's own (see NoPathError).
func (r *Router) RouteAll() error {
	return r.RouteFlows(r.top.Spec.SortFlowsByBandwidth())
}

// RouteFlows routes the given flows in order. The slice must hold the
// spec's flows in decreasing-bandwidth order (SortFlowsByBandwidth);
// sweeps that evaluate many candidates of one spec sort once and pass
// the shared slice, skipping the per-candidate copy and sort. A
// *NoPathError is the router's own (see NoPathError).
func (r *Router) RouteFlows(flows []soc.Flow) error {
	for _, f := range flows {
		if err := r.Route(f); err != nil {
			return err
		}
	}
	if r.opt.Survivability > 0 {
		return r.routeBackups(r.opt.Survivability)
	}
	return nil
}

// Route finds and commits a path for one flow. When none exists it
// returns the router's own *NoPathError (see NoPathError).
func (r *Router) Route(f soc.Flow) error {
	src := r.top.SwitchOf[f.Src]
	dst := r.top.SwitchOf[f.Dst]
	if src < 0 || dst < 0 {
		return fmt.Errorf("route: flow %d->%d has unattached endpoint", f.Src, f.Dst)
	}
	fi, ok := r.flows.Find(f.Src, f.Dst)
	if !ok {
		// The spec's flows may have been edited in place since Reset.
		r.flows.Reset(r.top.Spec)
		if fi, ok = r.flows.Find(f.Src, f.Dst); !ok {
			return fmt.Errorf("route: flow %d->%d is not in the spec", f.Src, f.Dst)
		}
	}
	if src == dst {
		return r.top.AddRoute(fi, nil)
	}
	// First attempt: blended power+latency cost; fall back to a pure
	// latency objective when the cheap path misses the constraint.
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
		r.noPath = NoPathError{Flow: f}
		return &r.noPath
	}
	links, err := r.openPath(f, path, "link")
	if err != nil {
		return err
	}
	return r.top.AddRoute(fi, links)
}

// NoPathError reports a flow the router could not place: no primary
// route meeting the flow's capacity and latency constraints, or, when
// Backup > 0, no Backup-th link-disjoint backup under survivability K.
// A synthesis sweep discards most of these unread, so Error formats
// the message only when called.
//
// The router returns a pointer to the one NoPathError it owns, so a
// rejected candidate allocates nothing. The error is valid until the
// router's next Route, RouteFlows, RouteAll or Reset, which overwrite
// or clear it: a caller that keeps it past that point copies the value
// (saved := *npe), or its message.
type NoPathError struct {
	Flow soc.Flow

	// Backup is the 1-based backup the survivability pass failed to
	// find, zero for a primary route; K is the survivability level.
	Backup, K int
}

func (e *NoPathError) Error() string {
	f := e.Flow
	if e.Backup > 0 {
		//noclint:ignore bannedcall error rendering, not a cache key; runs only when a caller reads the message
		return fmt.Sprintf("route: no disjoint backup %d/%d for flow %d->%d (survivability %d)",
			e.Backup, e.K, f.Src, f.Dst, e.K)
	}
	lat := "unconstrained"
	if f.MaxLatencyCycles > 0 {
		//noclint:ignore bannedcall error-path message formatting, not a cache key
		lat = fmt.Sprintf("lat<=%.0f", f.MaxLatencyCycles)
	}
	//noclint:ignore bannedcall error rendering, not a cache key; runs only when a caller reads the message
	return fmt.Sprintf("route: no feasible path for flow %d->%d (%.0f MB/s, %s)",
		f.Src, f.Dst, f.BandwidthBps/1e6, lat)
}

// routeBackups runs the survivability pass: for every committed
// multi-hop route, in commit order, find and commit k additional
// link-disjoint paths by iterative strip-and-reroute — each search
// excludes the directed links of the flow's primary route and of the
// backups committed so far, then reuses the ordinary blended-cost
// search over the same admissible island subgraph. Backups are held to
// island legality, capacity and disjointness but NOT to the flow's
// zero-load latency budget: a backup is a degraded-mode standby whose
// job is keeping the flow connected under a fault, and an
// island-crossing detour structurally pays at least one extra
// bi-synchronous FIFO crossing, which would make every tightly
// constrained crossing flow unprotectable. Single-switch routes have no
// link a fault could sever and are skipped. The pass runs strictly
// after all primaries, so primary routes — and with them every
// k=0-visible metric — are bit-identical to a run without
// survivability.
func (r *Router) routeBackups(k int) error {
	defer func() { r.exclude = r.exclude[:0] }()
	top := r.top
	for ri := 0; ri < len(top.Routes); ri++ {
		for b := 0; b < k; b++ {
			rt := &top.Routes[ri]
			if rt.Links.N == 0 {
				break // single-switch route: nothing to protect
			}
			r.exclude = append(r.exclude[:0], top.PathLinks(rt.Links)...)
			for _, bp := range rt.Backups {
				r.exclude = append(r.exclude, top.PathLinks(bp)...)
			}
			f := top.Spec.Flows[rt.Flow]
			path := r.shortest(f, top.SwitchOf[f.Src], top.SwitchOf[f.Dst], false)
			if path == nil {
				r.noPath = NoPathError{Flow: f, Backup: b + 1, K: k}
				return &r.noPath
			}
			// Backups are recorded cold: AddBackup accounts no traffic,
			// so the primary metrics are untouched.
			links, err := r.openPath(f, path, "backup link")
			if err != nil {
				return err
			}
			if err := top.AddBackup(ri, links); err != nil {
				return err
			}
		}
	}
	return nil
}

// hopLatency returns the zero-load cycles added by traversing candidate
// edge u->v (the downstream switch, the link, and the converter when the
// edge crosses islands).
func (r *Router) hopLatency(u, v topology.SwitchID) float64 {
	lat := model.SwitchTraversalCycles + model.LinkTraversalCycles
	if r.top.CrossesIslands(u, v) {
		lat += model.FIFOCrossingCycles
	}
	return lat
}

// edgeCost prices candidate edge u->v for a flow of bandwidth bw. It
// returns +Inf when the edge is unusable (capacity or switch size).
// latOnly selects the pure-latency fallback objective.
func (r *Router) edgeCost(u, v topology.SwitchID, f soc.Flow, latOnly bool) float64 {
	lib := r.top.Lib
	iu, iv := r.top.Switches[u].Island, r.top.Switches[v].Island
	crossing := r.top.CrossesIslands(u, v)
	bw := f.BandwidthBps

	traffic := 0.0 // what u->v carries already; a link not yet open carries nothing
	lid, exists := r.top.FindLink(u, v)
	if exists {
		for _, ex := range r.exclude {
			if ex == lid {
				return graph.Inf // disjoint-path search: link already used by this flow
			}
		}
		traffic = r.top.Links[lid].TrafficBps
	} else if r.opt.NoNewLinks {
		return graph.Inf
	} else {
		// Opening u->v adds an output port at u and an input port at v.
		inU, outU := r.top.SwitchPorts(u)
		inV, outV := r.top.SwitchPorts(v)
		if max(inU, outU+1) > r.maxSz[iu] || max(inV+1, outV) > r.maxSz[iv] {
			return graph.Inf
		}
	}
	if traffic+bw > r.top.CapacityBps(u, v)*(1+1e-9) {
		return graph.Inf
	}

	if latOnly {
		return r.hopLatency(u, v)
	}

	// Marginal power of carrying the flow over this hop.
	vu, vv := r.top.IslandVoltage[iu], r.top.IslandVoltage[iv]
	vMax := math.Max(vu, vv)
	eBit := lib.SwitchEnergyBase + lib.SwitchEnergyPerPort*float64(r.top.SwitchSize(v))
	power := bw * 8 * eBit * lib.VoltageScaleDynamic(vv)
	power += lib.LinkDynPowerW(estLinkLengthMM, vMax, bw)
	if crossing {
		power += lib.FIFODynPowerW(vu, vv, bw)
	}
	if !exists {
		// One-time cost of the new link: port idle power at both ends,
		// port + wire leakage, converter leakage when crossing.
		power += lib.SwitchIdlePerPortHz * (r.top.IslandFreqHz[iu] + r.top.IslandFreqHz[iv]) * lib.VoltageScaleDynamic(vMax)
		power += lib.SwitchLeakPowerW(1, vu) + lib.SwitchLeakPowerW(1, vv)
		power += lib.LinkLeakPowerW(estLinkLengthMM, vMax)
		if crossing {
			power += lib.FIFOLeakPowerW(vu, vv)
		}
	}

	// Latency pressure: tighter-constrained flows pay more per cycle,
	// steering them onto shorter paths.
	tightness := 0.0
	if f.MaxLatencyCycles > 0 && r.minLat > 0 {
		tightness = r.minLat / f.MaxLatencyCycles
	}
	return power + latencyWeightW*tightness*r.hopLatency(u, v)
}

// shortest runs Dijkstra over the flow's admissible subgraph. It
// returns the switch path or nil when disconnected.
func (r *Router) shortest(f soc.Flow, src, dst topology.SwitchID, latOnly bool) []topology.SwitchID {
	sub := r.subgraphFor(r.top.Spec.IslandOf[f.Src], r.top.Spec.IslandOf[f.Dst])
	ls, ld := sub.local(src), sub.local(dst)
	if ls < 0 || ld < 0 {
		return nil // endpoint switch outside the admissible islands
	}
	path, c := r.scratch.ShortestPathDense(len(sub.verts), sub.rank, ls, ld, func(u, v int, _ float64) float64 {
		return r.edgeCost(sub.verts[u], sub.verts[v], f, latOnly)
	})
	if math.IsInf(c, 1) {
		return nil
	}
	out := r.pathBuf[:0]
	for _, p := range path {
		out = append(out, sub.verts[p])
	}
	r.pathBuf = out
	return out
}

// MinZeroLoadLatencyCycles returns the smallest zero-load latency any
// route can achieve under the timing model: NI injection and ejection
// links plus one switch traversal, plus one hop when source and
// destination cannot share a switch (they sit on different switches or
// in different islands), plus one FIFO crossing when they sit in
// different islands (a detour through the intermediate island only adds
// hops and crossings). It is the admissible per-flow latency bound the
// branch-and-bound layer (internal/core/bounds.go) sums, and the floor
// below which a flow's MaxLatencyCycles is provably unsatisfiable.
func MinZeroLoadLatencyCycles(crossesSwitches, crossesIslands bool) float64 {
	lat := 2*model.LinkTraversalCycles + model.SwitchTraversalCycles
	if crossesSwitches || crossesIslands {
		lat += model.SwitchTraversalCycles + model.LinkTraversalCycles
	}
	if crossesIslands {
		lat += model.FIFOCrossingCycles
	}
	return lat
}

// latencyOK checks the flow's zero-load latency constraint on a path.
func (r *Router) latencyOK(f soc.Flow, path []topology.SwitchID) bool {
	return f.MaxLatencyCycles <= 0 || r.top.PathLatencyCycles(path) <= f.MaxLatencyCycles
}

// openPath opens any missing links along path and returns them in the
// router's linkBuf, valid until the next query, for AddRoute or
// AddBackup to copy. what names the link in the error: "link" for a
// primary, "backup link" for a backup.
func (r *Router) openPath(f soc.Flow, path []topology.SwitchID, what string) ([]topology.LinkID, error) {
	links := r.linkBuf[:0]
	for i := 1; i < len(path); i++ {
		lid, err := r.top.EnsureLink(path[i-1], path[i])
		if err != nil {
			return nil, fmt.Errorf("route: opening %s for flow %d->%d: %w", what, f.Src, f.Dst, err)
		}
		links = append(links, lid)
	}
	r.linkBuf = links
	return links, nil
}
