// Package topology defines the output of the synthesis flow: the set of
// NoC switches per voltage island (plus an optional intermediate NoC
// island that is never shut down), the network interfaces attaching
// cores to switches, the inter-switch links (with bi-synchronous FIFOs
// when they cross islands), and one route per traffic flow.
//
// The package also implements the structural validators that make the
// paper's guarantee checkable: ValidateShutdownSafe proves that gating
// any shut-downable island never severs a route between two other
// islands.
package topology

import (
	"fmt"
	"math"
	"slices"

	"nocvi/internal/model"
	"nocvi/internal/soc"
)

// SwitchID indexes a switch within a Topology.
type SwitchID int

// LinkID indexes a directed link within a Topology.
type LinkID int

// Switch is one NoC crossbar switch. A switch belongs to exactly one
// voltage island; direct switches host core NIs, indirect switches (in
// the intermediate NoC island) only connect other switches.
type Switch struct {
	ID     SwitchID
	Island soc.IslandID

	// Indirect marks switches placed in the intermediate NoC island
	// (Algorithm 1 step 14); they have no attached cores.
	Indirect bool

	// Cores attached through network interfaces, ascending order.
	Cores []soc.CoreID

	// FreqHz and VoltageV are inherited from the island's NoC domain.
	FreqHz   float64
	VoltageV float64
}

// Link is a directed switch-to-switch connection. Links that cross
// voltage islands carry a bi-synchronous FIFO converter at the boundary.
type Link struct {
	ID       LinkID
	From, To SwitchID

	// CrossesIslands is true when From and To sit in different islands;
	// the link then includes a voltage/frequency converter and costs
	// model.FIFOCrossingCycles extra latency.
	CrossesIslands bool

	// TrafficBps is the total bandwidth of the flows routed over the
	// link (bytes/s); CapacityBps is width × min(freq_src, freq_dst).
	TrafficBps  float64
	CapacityBps float64

	// LengthMM is filled in by the floorplanner; before placement it
	// holds a pessimistic estimate used during path cost evaluation.
	LengthMM float64
}

// Path is one switch/link walk between a flow's endpoint switches,
// used for the pre-synthesized backup routes of survivable designs.
type Path struct {
	Switches []SwitchID // in traversal order; len >= 1
	Links    []LinkID   // len == len(Switches)-1
}

// Route is the path assigned to one traffic flow.
type Route struct {
	Flow     soc.Flow
	Switches []SwitchID // in traversal order; len >= 1
	Links    []LinkID   // len == len(Switches)-1

	// Backups holds the pre-synthesized link-disjoint alternates of a
	// survivable design (core.Options.Survivability k stores k of them
	// per multi-hop route). Backups are cold standbys: their links are
	// open in the topology (and pay leakage, ports and area) but carry
	// no TrafficBps until a fault diverts the flow onto one, so primary
	// metrics — link traffic, zero-load latency — never depend on them.
	Backups []Path
}

// Topology is a complete synthesized NoC design.
type Topology struct {
	Spec *soc.Spec
	Lib  *model.Library

	Switches []Switch
	Links    []Link
	Routes   []Route

	// NoCIsland is the ID of the intermediate never-shutdown NoC island
	// when the design uses one, soc.NoIsland otherwise. When present it
	// refers to an entry appended to IslandFreqHz/IslandVoltage beyond
	// the spec's islands.
	NoCIsland soc.IslandID

	// IslandFreqHz and IslandVoltage give the NoC clock and supply per
	// island (indexed by island ID; the intermediate island, if any, is
	// the last entry).
	IslandFreqHz  []float64
	IslandVoltage []float64

	// SwitchOf maps each core to the switch hosting its NI.
	SwitchOf []SwitchID

	// linkIdx is the O(1) directed link lookup (from, to) -> LinkID, and
	// inLinks/outLinks the per-switch incident link counts, both kept in
	// sync by AddSwitch/AddLink. They turn FindLink and SwitchPorts —
	// the router's per-edge-relaxation queries — from O(links) scans
	// into constant-time lookups. reindex rebuilds them for topologies
	// whose exported slices were populated by other means.
	linkIdx  map[linkKey]LinkID
	inLinks  []int
	outLinks []int

	// coresFree recycles Switch.Cores backing arrays across Reset
	// cycles: Reset harvests the slices of the dismantled switches and
	// AttachCore pops them back, so a reused topology attaches cores
	// without growing fresh arrays. Slices live either here or in a
	// switch, never both.
	coresFree [][]soc.CoreID

	// swPathFree and lnkPathFree recycle Route.Switches and Route.Links
	// backing arrays the same way: Reset harvests the dismantled
	// routes' slices, TakeRouteSwitches/TakeRouteLinks hand them back
	// to the router. Like coresFree, a slice lives either in a free
	// list or in a route, never both. Backup paths share the same two
	// free lists; bakFree recycles the outer Route.Backups arrays.
	swPathFree  [][]SwitchID
	lnkPathFree [][]LinkID
	bakFree     [][]Path
}

// linkKey identifies a directed link by its endpoints.
type linkKey struct{ from, to SwitchID }

// reindex (re)builds the link index and port counters from the exported
// Switches/Links slices. Mutators keep the index incremental; this lazy
// path only triggers for zero-value or externally assembled topologies.
func (t *Topology) reindex() {
	t.linkIdx = make(map[linkKey]LinkID, len(t.Links))
	t.inLinks = make([]int, len(t.Switches))
	t.outLinks = make([]int, len(t.Switches))
	for _, l := range t.Links {
		t.linkIdx[linkKey{l.From, l.To}] = l.ID
		t.outLinks[l.From]++
		t.inLinks[l.To]++
	}
}

// indexStale reports whether the incremental index no longer covers the
// exported slices.
func (t *Topology) indexStale() bool {
	return t.linkIdx == nil || len(t.linkIdx) != len(t.Links) || len(t.inLinks) != len(t.Switches)
}

// New creates an empty topology over the given spec and library, with
// per-island frequency/voltage tables sized for the spec's islands (the
// intermediate island is added by AddNoCIsland).
func New(spec *soc.Spec, lib *model.Library) *Topology {
	t := &Topology{
		Spec:          spec,
		Lib:           lib,
		NoCIsland:     soc.NoIsland,
		IslandFreqHz:  make([]float64, len(spec.Islands)),
		IslandVoltage: make([]float64, len(spec.Islands)),
		SwitchOf:      make([]SwitchID, len(spec.Cores)),
	}
	for i := range t.SwitchOf {
		t.SwitchOf[i] = -1
	}
	for i, isl := range spec.Islands {
		t.IslandVoltage[i] = isl.VoltageV
	}
	t.linkIdx = make(map[linkKey]LinkID)
	return t
}

// Reset returns t to the state New(t.Spec, t.Lib) would produce while
// retaining the backing storage of the previous build: the switch, link
// and route slices keep their capacity, the link index keeps its
// buckets, and the per-switch core lists are recycled through an
// internal free list. The synthesis sweep resets one topology per
// worker across candidates instead of allocating a fresh one each time.
//
// Reset must never be called on a topology that has escaped into a
// DesignPoint: the recycled storage would alias the published result.
func (t *Topology) Reset() {
	for i := range t.Switches {
		if c := t.Switches[i].Cores; cap(c) > 0 {
			t.coresFree = append(t.coresFree, c[:0])
		}
	}
	for i := range t.Routes {
		if s := t.Routes[i].Switches; cap(s) > 0 {
			t.swPathFree = append(t.swPathFree, s[:0])
		}
		if l := t.Routes[i].Links; cap(l) > 0 {
			t.lnkPathFree = append(t.lnkPathFree, l[:0])
		}
		for _, b := range t.Routes[i].Backups {
			if cap(b.Switches) > 0 {
				t.swPathFree = append(t.swPathFree, b.Switches[:0])
			}
			if cap(b.Links) > 0 {
				t.lnkPathFree = append(t.lnkPathFree, b.Links[:0])
			}
		}
		if b := t.Routes[i].Backups; cap(b) > 0 {
			t.bakFree = append(t.bakFree, b[:0])
		}
	}
	t.Switches = t.Switches[:0]
	t.Links = t.Links[:0]
	t.Routes = t.Routes[:0]
	t.NoCIsland = soc.NoIsland
	t.IslandFreqHz = t.IslandFreqHz[:len(t.Spec.Islands)]
	t.IslandVoltage = t.IslandVoltage[:len(t.Spec.Islands)]
	for i := range t.IslandFreqHz {
		t.IslandFreqHz[i] = 0
	}
	for i, isl := range t.Spec.Islands {
		t.IslandVoltage[i] = isl.VoltageV
	}
	for i := range t.SwitchOf {
		t.SwitchOf[i] = -1
	}
	clear(t.linkIdx)
	t.inLinks = t.inLinks[:0]
	t.outLinks = t.outLinks[:0]
}

// AddNoCIsland declares the intermediate NoC island with the given clock
// and supply and returns its ID. It can be called at most once.
func (t *Topology) AddNoCIsland(freqHz, voltage float64) soc.IslandID {
	if t.NoCIsland != soc.NoIsland {
		panic("topology: intermediate NoC island already declared")
	}
	id := soc.IslandID(len(t.IslandFreqHz))
	t.NoCIsland = id
	t.IslandFreqHz = append(t.IslandFreqHz, freqHz)
	t.IslandVoltage = append(t.IslandVoltage, voltage)
	return id
}

// NumIslands returns the number of voltage islands including the
// intermediate NoC island when present.
func (t *Topology) NumIslands() int { return len(t.IslandFreqHz) }

// IslandShutdownable reports whether island id may be power gated. The
// intermediate NoC island never is.
func (t *Topology) IslandShutdownable(id soc.IslandID) bool {
	if id == t.NoCIsland {
		return false
	}
	return t.Spec.Islands[id].Shutdownable
}

// SetIslandFreq records the NoC clock of an island.
func (t *Topology) SetIslandFreq(id soc.IslandID, freqHz float64) {
	t.IslandFreqHz[id] = freqHz
}

// SetIslandVoltage overrides the supply of an island's NoC domain (DVS:
// slow islands can run below the spec's nominal voltage). Must be
// called before switches are added to the island.
func (t *Topology) SetIslandVoltage(id soc.IslandID, v float64) {
	t.IslandVoltage[id] = v
}

// AddSwitch appends a switch in the given island and returns its ID.
// Pass indirect=true only for switches in the intermediate island.
func (t *Topology) AddSwitch(island soc.IslandID, indirect bool) SwitchID {
	if int(island) >= len(t.IslandFreqHz) || island < 0 {
		panic(fmt.Sprintf("topology: switch in unknown island %d", island)) //noclint:ignore bannedcall cold-path validation panic, not a cache key
	}
	if t.indexStale() {
		t.reindex()
	}
	id := SwitchID(len(t.Switches))
	t.Switches = append(t.Switches, Switch{
		ID:       id,
		Island:   island,
		Indirect: indirect,
		FreqHz:   t.IslandFreqHz[island],
		VoltageV: t.IslandVoltage[island],
	})
	t.inLinks = append(t.inLinks, 0)
	t.outLinks = append(t.outLinks, 0)
	return id
}

// AttachCore connects a core's NI to a switch. The switch must be a
// direct switch in the core's island.
func (t *Topology) AttachCore(c soc.CoreID, sw SwitchID) error {
	s := &t.Switches[sw]
	if s.Indirect {
		return fmt.Errorf("topology: core %d attached to indirect switch %d", c, sw)
	}
	if t.Spec.IslandOf[c] != s.Island {
		return fmt.Errorf("topology: core %d (island %d) attached to switch %d in island %d",
			c, t.Spec.IslandOf[c], sw, s.Island)
	}
	if t.SwitchOf[c] != -1 {
		return fmt.Errorf("topology: core %d already attached to switch %d", c, t.SwitchOf[c])
	}
	if s.Cores == nil && len(t.coresFree) > 0 {
		s.Cores = t.coresFree[len(t.coresFree)-1]
		t.coresFree = t.coresFree[:len(t.coresFree)-1]
	}
	s.Cores = append(s.Cores, c)
	t.SwitchOf[c] = sw
	return nil
}

// TakeRouteSwitches returns a length-n switch buffer for a Route that
// will be added to this topology, recycling storage reclaimed by
// Reset when possible. The buffer belongs to the topology's route
// storage from the moment it is taken: callers must store it in an
// added Route (or discard it entirely), never retain it elsewhere.
func (t *Topology) TakeRouteSwitches(n int) []SwitchID {
	if k := len(t.swPathFree); k > 0 {
		s := t.swPathFree[k-1]
		t.swPathFree = t.swPathFree[:k-1]
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]SwitchID, n)
}

// TakeRouteLinks is TakeRouteSwitches for a Route's link list.
func (t *Topology) TakeRouteLinks(n int) []LinkID {
	if k := len(t.lnkPathFree); k > 0 {
		l := t.lnkPathFree[k-1]
		t.lnkPathFree = t.lnkPathFree[:k-1]
		if cap(l) >= n {
			return l[:n]
		}
	}
	return make([]LinkID, n)
}

// FindLink returns the directed link from->to when it exists. It is an
// O(1) index lookup.
func (t *Topology) FindLink(from, to SwitchID) (LinkID, bool) {
	if t.indexStale() {
		t.reindex()
	}
	id, ok := t.linkIdx[linkKey{from, to}]
	if !ok {
		return -1, false
	}
	return id, true
}

// AddLink opens a new directed link between two switches, computing its
// capacity from the slower endpoint clock and marking island crossings.
// Duplicate links are rejected; use EnsureLink for lookup-or-add.
func (t *Topology) AddLink(from, to SwitchID) (LinkID, error) {
	if t.indexStale() {
		t.reindex()
	}
	if _, ok := t.linkIdx[linkKey{from, to}]; ok {
		return -1, fmt.Errorf("topology: duplicate link %d->%d", from, to)
	}
	return t.addLink(from, to)
}

// EnsureLink returns the directed link from->to, opening it when absent
// — one index lookup instead of the FindLink+AddLink double probe on
// the routing commit path.
func (t *Topology) EnsureLink(from, to SwitchID) (LinkID, error) {
	if t.indexStale() {
		t.reindex()
	}
	if id, ok := t.linkIdx[linkKey{from, to}]; ok {
		return id, nil
	}
	return t.addLink(from, to)
}

// ReserveLinks makes room for n more links in Links and in the link
// index, so a caller that knows its link count up front (the result
// cache's decoder) adds them without regrowing either.
func (t *Topology) ReserveLinks(n int) {
	t.Links = slices.Grow(t.Links, n)
	idx := make(map[linkKey]LinkID, len(t.Links)+n)
	for _, l := range t.Links {
		idx[linkKey{l.From, l.To}] = l.ID
	}
	t.linkIdx = idx
}

// addLink appends a link the index has already proven absent.
func (t *Topology) addLink(from, to SwitchID) (LinkID, error) {
	if from == to {
		return -1, fmt.Errorf("topology: self link on switch %d", from)
	}
	fs, ts := t.Switches[from], t.Switches[to]
	minF := math.Min(fs.FreqHz, ts.FreqHz)
	id := LinkID(len(t.Links))
	t.Links = append(t.Links, Link{
		ID:             id,
		From:           from,
		To:             to,
		CrossesIslands: fs.Island != ts.Island,
		CapacityBps:    t.Lib.LinkCapacityBps(minF),
	})
	t.linkIdx[linkKey{from, to}] = id
	t.outLinks[from]++
	t.inLinks[to]++
	return id, nil
}

// SwitchPorts returns the input and output port counts of a switch:
// attached cores contribute one input and one output each (their NI),
// plus one port per incident link direction. The counts are maintained
// incrementally, so the query is O(1).
func (t *Topology) SwitchPorts(sw SwitchID) (in, out int) {
	if t.indexStale() {
		t.reindex()
	}
	n := len(t.Switches[sw].Cores)
	return n + t.inLinks[sw], n + t.outLinks[sw]
}

// SwitchSize returns the crossbar dimension of a switch, the larger of
// its input and output port counts; this is the quantity bounded by
// max_sw_size in Algorithm 1.
func (t *Topology) SwitchSize(sw SwitchID) int {
	in, out := t.SwitchPorts(sw)
	if in > out {
		return in
	}
	return out
}

// SwitchTrafficBps returns the aggregate traffic through a switch
// (bytes/s summed over routed flows that traverse it).
func (t *Topology) SwitchTrafficBps(sw SwitchID) float64 {
	var sum float64
	for _, r := range t.Routes {
		for _, s := range r.Switches {
			if s == sw {
				sum += r.Flow.BandwidthBps
				break
			}
		}
	}
	return sum
}

// ZeroLoadLatencyCycles returns the zero-load latency of a route in NoC
// cycles: the NI injection link, one switch traversal per hop, one cycle
// per inter-switch link, the converter penalty per island crossing, and
// the NI ejection link.
func (t *Topology) ZeroLoadLatencyCycles(r *Route) float64 {
	return t.pathZeroLoadLatency(r.Switches, r.Links)
}

// PathZeroLoadLatencyCycles is ZeroLoadLatencyCycles for a standalone
// Path — the figure a backup route would deliver if a fault activated
// it.
func (t *Topology) PathZeroLoadLatencyCycles(p *Path) float64 {
	return t.pathZeroLoadLatency(p.Switches, p.Links)
}

func (t *Topology) pathZeroLoadLatency(switches []SwitchID, links []LinkID) float64 {
	lat := model.LinkTraversalCycles // NI -> first switch
	for range switches {
		lat += model.SwitchTraversalCycles
	}
	for _, lid := range links {
		lat += model.LinkTraversalCycles
		if t.Links[lid].CrossesIslands {
			lat += model.FIFOCrossingCycles
		}
	}
	lat += model.LinkTraversalCycles // last switch -> NI
	return lat
}

// MeanZeroLoadLatency returns the average zero-load latency over all
// routes (the metric of Fig. 3), or 0 when no routes exist.
func (t *Topology) MeanZeroLoadLatency() float64 {
	if len(t.Routes) == 0 {
		return 0
	}
	var sum float64
	for i := range t.Routes {
		sum += t.ZeroLoadLatencyCycles(&t.Routes[i])
	}
	return sum / float64(len(t.Routes))
}

// AddRoute records the route for a flow, accounting its bandwidth on
// every traversed link. The route must already be structurally valid.
func (t *Topology) AddRoute(r Route) error {
	if err := t.checkRoute(&r); err != nil {
		return err
	}
	for _, lid := range r.Links {
		t.Links[lid].TrafficBps += r.Flow.BandwidthBps
	}
	t.Routes = append(t.Routes, r)
	return nil
}

// AddBackup records a pre-synthesized alternate path on the route at
// index ri. The path must be structurally valid for the route's flow;
// it is stored cold — no traffic is accounted on its links. Disjointness
// against the primary and the other backups is ValidateSurvivable's
// job, not enforced here.
func (t *Topology) AddBackup(ri int, p Path) error {
	if ri < 0 || ri >= len(t.Routes) {
		return fmt.Errorf("topology: backup for unknown route %d", ri)
	}
	r := &t.Routes[ri]
	if err := t.checkPath(r.Flow, p.Switches, p.Links); err != nil {
		return err
	}
	if r.Backups == nil && len(t.bakFree) > 0 {
		r.Backups = t.bakFree[len(t.bakFree)-1]
		t.bakFree = t.bakFree[:len(t.bakFree)-1]
	}
	r.Backups = append(r.Backups, p)
	return nil
}

// checkRoute verifies the structural validity of a route.
func (t *Topology) checkRoute(r *Route) error {
	return t.checkPath(r.Flow, r.Switches, r.Links)
}

// checkPath verifies one switch/link walk against a flow: non-empty,
// link list matching the switch list, endpoints on the flow's NI
// switches, and every link actually connecting its consecutive pair.
func (t *Topology) checkPath(f soc.Flow, switches []SwitchID, links []LinkID) error {
	if len(switches) == 0 {
		return fmt.Errorf("topology: empty route for flow %d->%d", f.Src, f.Dst)
	}
	if len(links) != len(switches)-1 {
		return fmt.Errorf("topology: route for %d->%d has %d links for %d switches",
			f.Src, f.Dst, len(links), len(switches))
	}
	if t.SwitchOf[f.Src] != switches[0] {
		return fmt.Errorf("topology: route for %d->%d starts at switch %d, core is on %d",
			f.Src, f.Dst, switches[0], t.SwitchOf[f.Src])
	}
	if t.SwitchOf[f.Dst] != switches[len(switches)-1] {
		return fmt.Errorf("topology: route for %d->%d ends at switch %d, core is on %d",
			f.Src, f.Dst, switches[len(switches)-1], t.SwitchOf[f.Dst])
	}
	for i, lid := range links {
		if int(lid) >= len(t.Links) || lid < 0 {
			return fmt.Errorf("topology: route references unknown link %d", lid)
		}
		l := t.Links[lid]
		if l.From != switches[i] || l.To != switches[i+1] {
			return fmt.Errorf("topology: route link %d does not connect switches %d->%d",
				lid, switches[i], switches[i+1])
		}
	}
	return nil
}

// Validate performs full structural validation: every core attached in
// its own island, all routes well-formed, link capacities respected,
// switch sizes feasible at their island clock, latency constraints met,
// and shutdown safety. It returns the first violation found.
func (t *Topology) Validate() error {
	for c := range t.Spec.Cores {
		sw := t.SwitchOf[c]
		if sw == -1 {
			return fmt.Errorf("topology: core %d (%s) not attached to any switch", c, t.Spec.Cores[c].Name)
		}
		if t.Switches[sw].Island != t.Spec.IslandOf[c] {
			return fmt.Errorf("topology: core %d attached across islands", c)
		}
	}
	if len(t.Routes) != len(t.Spec.Flows) {
		return fmt.Errorf("topology: %d routes for %d flows", len(t.Routes), len(t.Spec.Flows))
	}
	if err := t.ValidateRouted(); err != nil {
		return err
	}
	return t.ValidateShutdownSafe()
}

// ValidateRouted checks the routes the topology actually holds — route
// structure, latency constraints, link capacities, switch feasibility —
// without requiring a route for every spec flow. This is the check a
// power-state fault campaign needs: flows touching gated islands are
// deliberately left unrouted, and only the surviving traffic has to be
// well-formed. Validate composes it with the completeness checks.
func (t *Topology) ValidateRouted() error {
	for i := range t.Routes {
		if err := t.checkRoute(&t.Routes[i]); err != nil {
			return err
		}
		r := &t.Routes[i]
		if r.Flow.MaxLatencyCycles > 0 {
			if lat := t.ZeroLoadLatencyCycles(r); lat > r.Flow.MaxLatencyCycles {
				return fmt.Errorf("topology: flow %d->%d latency %.1f exceeds constraint %.1f",
					r.Flow.Src, r.Flow.Dst, lat, r.Flow.MaxLatencyCycles)
			}
		}
	}
	for _, l := range t.Links {
		if l.TrafficBps > l.CapacityBps*(1+1e-9) {
			return fmt.Errorf("topology: link %d->%d overloaded: %.3g > %.3g Bps",
				l.From, l.To, l.TrafficBps, l.CapacityBps)
		}
	}
	for _, s := range t.Switches {
		if s.Indirect && len(s.Cores) > 0 {
			return fmt.Errorf("topology: indirect switch %d has cores attached", s.ID)
		}
		if s.Indirect && s.Island != t.NoCIsland {
			return fmt.Errorf("topology: indirect switch %d outside the NoC island", s.ID)
		}
		size := t.SwitchSize(s.ID)
		if size > 0 && t.Lib.SwitchMaxFreqHz(size) < s.FreqHz-1 {
			return fmt.Errorf("topology: switch %d size %d cannot run at %.0f MHz",
				s.ID, size, s.FreqHz/1e6)
		}
	}
	return nil
}

// ValidateShutdownSafe proves the paper's property: for every
// shut-downable island X, no route between two endpoints that both lie
// outside X traverses a switch inside X. (Routes that start or end in X
// are legitimately lost when X is gated.)
func (t *Topology) ValidateShutdownSafe() error {
	off := make([]bool, len(t.Spec.Islands))
	for islIdx := range t.Spec.Islands {
		isl := soc.IslandID(islIdx)
		if !t.IslandShutdownable(isl) {
			continue
		}
		off[islIdx] = true
		if err := t.ValidateShutdownSafeMask(off); err != nil {
			return err
		}
		off[islIdx] = false
	}
	return nil
}

// ValidateShutdownSafeMask generalizes ValidateShutdownSafe to a whole
// power state: with every island marked in off gated simultaneously, no
// route between two powered endpoints may traverse a switch in any
// gated island. Gating a non-shutdownable island (or the intermediate
// NoC island, which sits beyond the mask) is itself a violation. This
// is the per-state invariant the power-state fault campaign sweeps.
func (t *Topology) ValidateShutdownSafeMask(off []bool) error {
	gated := func(isl soc.IslandID) bool {
		return int(isl) < len(off) && off[isl]
	}
	for islIdx := range off {
		if off[islIdx] && !t.IslandShutdownable(soc.IslandID(islIdx)) {
			return fmt.Errorf("topology: island %d (%s) is not shutdownable",
				islIdx, t.Spec.Islands[islIdx].Name)
		}
	}
	for ri := range t.Routes {
		r := &t.Routes[ri]
		srcIsl := t.Spec.IslandOf[r.Flow.Src]
		dstIsl := t.Spec.IslandOf[r.Flow.Dst]
		if gated(srcIsl) || gated(dstIsl) {
			continue // legitimately lost with its endpoint island
		}
		for _, sw := range r.Switches {
			if isl := t.Switches[sw].Island; gated(isl) {
				return fmt.Errorf(
					"topology: shutting down island %d (%s) would sever flow %d->%d (islands %d->%d) at switch %d",
					isl, t.Spec.Islands[isl].Name, r.Flow.Src, r.Flow.Dst, srcIsl, dstIsl, sw)
			}
		}
	}
	return nil
}

// ValidateSurvivable proves the survivability-k contract: every
// multi-hop route carries at least k backup paths, each structurally
// valid for the route's flow, island-legal under the same forward
// discipline the router enforces (so a backup is shutdown-safe exactly
// when its primary is), and the primary plus backups are pairwise
// link-disjoint — no directed link
// appears on two of them, which is what makes any single-link fault
// absorbable by switching the flow onto a pre-synthesized alternate
// with zero re-routing. Backups are deliberately NOT held to the
// flow's zero-load latency budget: they are degraded-mode standbys, and
// an island-crossing detour structurally pays at least one extra FIFO
// crossing. Single-switch routes have no link to sever and need no
// backups. k <= 0 always validates.
func (t *Topology) ValidateSurvivable(k int) error {
	if k <= 0 {
		return nil
	}
	for ri := range t.Routes {
		r := &t.Routes[ri]
		if len(r.Links) == 0 {
			continue // single-switch route: no link a fault could sever
		}
		if len(r.Backups) < k {
			return fmt.Errorf("topology: flow %d->%d has %d backup route(s), survivability %d requires %d",
				r.Flow.Src, r.Flow.Dst, len(r.Backups), k, k)
		}
		srcIsl := t.Spec.IslandOf[r.Flow.Src]
		dstIsl := t.Spec.IslandOf[r.Flow.Dst]
		owner := make(map[LinkID]int, len(r.Links))
		for _, lid := range r.Links {
			owner[lid] = -1
		}
		for bi := range r.Backups {
			b := &r.Backups[bi]
			if err := t.checkPath(r.Flow, b.Switches, b.Links); err != nil {
				return err
			}
			if err := t.checkIslandDiscipline(r.Flow, b.Switches, srcIsl, dstIsl); err != nil {
				return err
			}
			for _, lid := range b.Links {
				if prev, ok := owner[lid]; ok {
					with := "the primary route"
					if prev >= 0 {
						//noclint:ignore bannedcall error-path message formatting, not a cache key
						with = fmt.Sprintf("backup %d", prev)
					}
					return fmt.Errorf("topology: flow %d->%d backup %d shares link %d with %s",
						r.Flow.Src, r.Flow.Dst, bi, lid, with)
				}
				owner[lid] = bi
			}
		}
	}
	return nil
}

// checkIslandDiscipline verifies the island forward discipline (S→S,
// S→M, S→D, M→M, M→D, D→D) on a switch walk: every switch lies in the
// flow's source island, destination island or the intermediate NoC
// island, and the walk never moves backward through that order. When
// source and destination coincide every admissible move is legal,
// mirroring the router's subgraph construction.
func (t *Topology) checkIslandDiscipline(f soc.Flow, switches []SwitchID, srcIsl, dstIsl soc.IslandID) error {
	mid := t.NoCIsland
	prev := int8(0)
	for _, sw := range switches {
		isl := t.Switches[sw].Island
		var rk int8
		switch {
		case isl == srcIsl:
			rk = 0
		case mid != soc.NoIsland && isl == mid:
			rk = 1
		case isl == dstIsl:
			rk = 2
		default:
			return fmt.Errorf("topology: flow %d->%d route touches island %d outside its admissible set",
				f.Src, f.Dst, isl)
		}
		if srcIsl == dstIsl {
			rk = 0 // S == D: every admissible move is legal
		}
		if rk < prev {
			return fmt.Errorf("topology: flow %d->%d route violates the island forward discipline at switch %d",
				f.Src, f.Dst, sw)
		}
		prev = rk
	}
	return nil
}

// RoutesThroughIsland returns the indices of routes that traverse at
// least one switch in the given island.
func (t *Topology) RoutesThroughIsland(isl soc.IslandID) []int {
	var out []int
	for ri := range t.Routes {
		for _, sw := range t.Routes[ri].Switches {
			if t.Switches[sw].Island == isl {
				out = append(out, ri)
				break
			}
		}
	}
	return out
}

// SwitchesIn returns the IDs of switches in the given island.
func (t *Topology) SwitchesIn(isl soc.IslandID) []SwitchID {
	var out []SwitchID
	for _, s := range t.Switches {
		if s.Island == isl {
			out = append(out, s.ID)
		}
	}
	return out
}

// MaxLinkUtilization returns the highest traffic/capacity ratio over all
// links, or 0 when there are no links.
func (t *Topology) MaxLinkUtilization() float64 {
	var max float64
	for _, l := range t.Links {
		if l.CapacityBps > 0 {
			if u := l.TrafficBps / l.CapacityBps; u > max {
				max = u
			}
		}
	}
	return max
}

// TotalSwitchCount and IndirectSwitchCount are simple inventory helpers
// for reporting design points.
func (t *Topology) TotalSwitchCount() int { return len(t.Switches) }

// IndirectSwitchCount returns the number of switches in the intermediate
// NoC island.
func (t *Topology) IndirectSwitchCount() int {
	n := 0
	for _, s := range t.Switches {
		if s.Indirect {
			n++
		}
	}
	return n
}
