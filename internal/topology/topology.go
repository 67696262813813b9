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
	"errors"
	"fmt"
	"slices"

	"nocvi/internal/model"
	"nocvi/internal/soc"
)

// SwitchID indexes a switch within a Topology. It is 32 bits wide, like
// soc.CoreID; decoders narrow into it with soc.NarrowID.
type SwitchID int32

// LinkID indexes a directed link within a Topology (32 bits, like
// SwitchID).
type LinkID int32

// Switch is one NoC crossbar switch, identified by its index in
// Topology.Switches. A switch belongs to exactly one voltage island and
// runs at its clock and supply (Topology.IslandFreqHz and IslandVoltage
// indexed by Island); direct switches host core NIs (Topology.SwitchOf
// records which, SwitchCores lists them), indirect switches (in the
// intermediate NoC island) only connect other switches.
type Switch struct {
	Island soc.IslandID

	// Indirect marks switches placed in the intermediate NoC island
	// (Algorithm 1 step 14); they have no attached cores.
	Indirect bool
}

// Link is a directed switch-to-switch connection, identified by its
// index in Topology.Links. Its clock, capacity and island crossing
// follow from its endpoints (LinkFreqHz, CapacityBps,
// CrossesIslands); a crossing link carries a bi-synchronous FIFO
// converter at the boundary.
type Link struct {
	From, To SwitchID

	// TrafficBps is the total bandwidth of the flows routed over the
	// link (bytes/s).
	TrafficBps float64

	// LengthMM is filled in by the floorplanner; before placement it
	// holds a pessimistic estimate used during path cost evaluation.
	LengthMM float64
}

// Path is one link walk of a route, its primary or a backup: the run of
// N links from Off in the topology's link table, which PathLinks reads.
type Path struct {
	Off, N int32
}

// Route is the path assigned to one traffic flow, which Flow indexes in
// Spec.Flows: the links it traverses, in order, from the switch of the
// flow's source core to the switch of its destination core (none when
// both cores share a switch). Walk derives the switch walk.
type Route struct {
	Flow  soc.FlowID
	Links Path

	// Backups holds the pre-synthesized link-disjoint alternates of a
	// survivable design (core.Options.Survivability k stores k of them
	// per multi-hop route). Backups are cold standbys: their links are
	// open in the topology (and pay leakage, ports and area) but carry
	// no TrafficBps until a fault diverts the flow onto one, so primary
	// metrics — link traffic, zero-load latency — never depend on them.
	Backups []Path
}

// Topology is a complete synthesized NoC design. The engine grows one
// from New with the mutators (AddSwitch, AttachCore, AddLink, ...). A
// reader of a stored design instead fills the construction fields of a
// fresh or rebound Topology — NoCIsland and the island tables, each
// switch's Island and Indirect, SwitchOf, each link's From, To and
// LengthMM — and calls Build, which checks them and derives the rest,
// then adds each route with AddRoute and each backup with AddBackup. A
// reader whose format stores switch walks resolves each one into links
// with WalkLinks first.
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

	// SwitchOf maps each core to the switch hosting its NI (-1 while
	// unattached). It is the one record of attachment.
	SwitchOf []SwitchID

	// firstOut, nextOut, inPorts and outPorts index the links and
	// ports for the router's per-edge-relaxation queries, FindLink and
	// SwitchPorts. The links leaving switch s form a chain: firstOut[s]
	// is the newest (-1 when s has none) and nextOut[l] the link added
	// before l in l's chain (-1 at the end). inPorts/outPorts count each
	// switch's ports: one of each per attached core (its NI) and one per
	// incident link direction. AddSwitch, AttachCore and addLink keep
	// all four in step with Switches, SwitchOf and Links; Rebind
	// truncates them.
	firstOut []LinkID
	nextOut  []LinkID
	inPorts  []int32
	outPorts []int32

	// pathLinks is the link table every Path is a run of, and bakFree
	// recycles the Route.Backups arrays across Rebind cycles.
	pathLinks []LinkID
	bakFree   [][]Path
}

// New creates an empty topology over the given spec and library, with
// per-island frequency/voltage tables sized for the spec's islands (the
// intermediate island is added by AddNoCIsland). It is Rebind on an
// empty topology.
func New(spec *soc.Spec, lib *model.Library) *Topology {
	t := &Topology{}
	t.Rebind(spec, lib)
	return t
}

// Reset returns t to the state New(t.Spec, t.Lib) would produce while
// retaining the backing storage of the previous build. It is Rebind to
// t's own spec and library.
//
// Reset must never be called on a topology that has escaped into a
// DesignPoint: the recycled storage would alias the published result.
func (t *Topology) Reset() { t.Rebind(t.Spec, t.Lib) }

// Rebind re-targets t at spec and lib and returns it to the state
// New(spec, lib) would produce, while retaining the backing storage of
// every earlier build: the switch, link and route slices and the link
// index and the link table keep their capacity, the island and core
// tables are resized in place, and the backup lists are recycled
// through an internal free list.
// The synthesis arena rebinds one topology per worker across candidates
// and across engine calls instead of allocating a fresh one each time.
//
// Like Reset, Rebind must never be called on a topology that has
// escaped into a DesignPoint.
func (t *Topology) Rebind(spec *soc.Spec, lib *model.Library) {
	for i := range t.Routes {
		if b := t.Routes[i].Backups; cap(b) > 0 {
			t.bakFree = append(t.bakFree, b[:0])
		}
	}
	t.Spec, t.Lib = spec, lib
	t.Switches = t.Switches[:0]
	t.Links = t.Links[:0]
	t.Routes = t.Routes[:0]
	t.pathLinks = t.pathLinks[:0]
	t.NoCIsland = soc.NoIsland
	t.IslandFreqHz = sized(t.IslandFreqHz, len(spec.Islands))
	t.IslandVoltage = sized(t.IslandVoltage, len(spec.Islands))
	t.SwitchOf = sized(t.SwitchOf, len(spec.Cores))
	clear(t.IslandFreqHz)
	for i, isl := range spec.Islands {
		t.IslandVoltage[i] = isl.VoltageV
	}
	for i := range t.SwitchOf {
		t.SwitchOf[i] = -1
	}
	t.firstOut = t.firstOut[:0]
	t.nextOut = t.nextOut[:0]
	t.inPorts = t.inPorts[:0]
	t.outPorts = t.outPorts[:0]
}

// sized returns s at length n, reusing its storage when large enough.
// The result is never nil and its contents are unspecified.
func sized[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Compact returns a copy of t that shares no storage with it, each
// slice cut at exactly its length: the switch, link, route and island
// tables and the link index are copied verbatim, and the link table is
// packed in route order, each primary's run and then its backups', as
// a reader adds them. All Backups are cut from one []Path as 3-index
// slices, so an append to one never overwrites the next. Empty tables
// are nil, nil Backups stay nil and the free list starts empty, so the
// copy does not depend on the history of t's storage. A worker that
// keeps building in t publishes the copy.
func (t *Topology) Compact() *Topology {
	c := &Topology{
		Spec:          t.Spec,
		Lib:           t.Lib,
		Switches:      exact(t.Switches),
		Links:         exact(t.Links),
		Routes:        exact(t.Routes),
		NoCIsland:     t.NoCIsland,
		IslandFreqHz:  slices.Clip(slices.Clone(t.IslandFreqHz)),
		IslandVoltage: slices.Clip(slices.Clone(t.IslandVoltage)),
		SwitchOf:      slices.Clip(slices.Clone(t.SwitchOf)),
		firstOut:      exact(t.firstOut),
		nextOut:       exact(t.nextOut),
		inPorts:       exact(t.inPorts),
		outPorts:      exact(t.outPorts),
	}
	nBak := 0
	for i := range t.Routes {
		nBak += len(t.Routes[i].Backups)
	}
	baks := make([]Path, 0, nBak)
	if len(t.pathLinks) > 0 {
		c.pathLinks = make([]LinkID, 0, len(t.pathLinks))
	}
	for i := range c.Routes {
		r := &c.Routes[i]
		r.Links = c.addPath(t.PathLinks(r.Links))
		if r.Backups != nil {
			lo := len(baks)
			for _, b := range r.Backups {
				baks = append(baks, c.addPath(t.PathLinks(b)))
			}
			r.Backups = baks[lo:len(baks):len(baks)]
		}
	}
	return c
}

// exact returns an exact-size copy of s, or nil when s is empty: a
// fresh build leaves an unused table nil while a rebound arena leaves
// it empty, and the copy must not depend on which of the two built it.
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return slices.Clip(slices.Clone(s))
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
// slow islands can run below the spec's nominal voltage).
func (t *Topology) SetIslandVoltage(id soc.IslandID, v float64) {
	t.IslandVoltage[id] = v
}

// AddSwitch appends a switch in the given island and returns its ID.
// Pass indirect=true only for switches in the intermediate island.
func (t *Topology) AddSwitch(island soc.IslandID, indirect bool) SwitchID {
	if int(island) >= len(t.IslandFreqHz) || island < 0 {
		panic(fmt.Sprintf("topology: switch in unknown island %d", island)) //noclint:ignore bannedcall cold-path validation panic, not a cache key
	}
	id := SwitchID(len(t.Switches))
	t.Switches = append(t.Switches, Switch{Island: island, Indirect: indirect})
	t.firstOut = append(t.firstOut, -1)
	t.inPorts = append(t.inPorts, 0)
	t.outPorts = append(t.outPorts, 0)
	return id
}

// AttachCore connects a core's NI to a switch. The switch must be a
// direct switch in the core's island.
func (t *Topology) AttachCore(c soc.CoreID, sw SwitchID) error {
	if err := t.checkAttach(c, sw); err != nil {
		return err
	}
	if t.SwitchOf[c] != -1 {
		return fmt.Errorf("%w: core %d already attached to switch %d", ErrAttach, c, t.SwitchOf[c])
	}
	t.SwitchOf[c] = sw
	t.inPorts[sw]++
	t.outPorts[sw]++
	return nil
}

// checkAttach reports why core c cannot sit on switch sw: sw is out of
// range, indirect, or in another island.
func (t *Topology) checkAttach(c soc.CoreID, sw SwitchID) error {
	if sw < 0 || int(sw) >= len(t.Switches) {
		return fmt.Errorf("%w: core %d on unknown switch %d", ErrAttach, c, sw)
	}
	s := &t.Switches[sw]
	if s.Indirect {
		return fmt.Errorf("%w: core %d on indirect switch %d", ErrAttach, c, sw)
	}
	if t.Spec.IslandOf[c] != s.Island {
		return fmt.Errorf("%w: core %d (island %d) on switch %d in island %d",
			ErrAttach, c, t.Spec.IslandOf[c], sw, s.Island)
	}
	return nil
}

// PathLinks returns the links of p, a path of one of t's routes, in
// traversal order: a 3-index window of the link table, so an append to
// it never overwrites the next run. The caller must not modify it.
func (t *Topology) PathLinks(p Path) []LinkID {
	return t.pathLinks[p.Off : p.Off+p.N : p.Off+p.N]
}

// SetLinkStorage makes buf's storage the link table of t, which must
// hold no routes yet: a reader that knows how many links its routes
// hold passes exactly that capacity, and t owns buf from then on.
func (t *Topology) SetLinkStorage(buf []LinkID) {
	if len(t.Routes) > 0 {
		panic("topology: SetLinkStorage on a topology with routes")
	}
	t.pathLinks = buf[:0]
}

// addPath appends links to the link table and returns their run.
func (t *Topology) addPath(links []LinkID) Path {
	p := Path{Off: int32(len(t.pathLinks)), N: int32(len(links))}
	t.pathLinks = append(t.pathLinks, links...)
	return p
}

// FindLink returns the directed link from->to when it exists. It walks
// from's chain of outgoing links, whose length is bounded by the
// switch's port count.
func (t *Topology) FindLink(from, to SwitchID) (LinkID, bool) {
	for id := t.firstOut[from]; id >= 0; id = t.nextOut[id] {
		if t.Links[id].To == to {
			return id, true
		}
	}
	return -1, false
}

// AddLink opens a new directed link between two switches. Duplicate
// links are rejected; use EnsureLink for lookup-or-add.
func (t *Topology) AddLink(from, to SwitchID) (LinkID, error) {
	if err := t.checkLink(from, to); err != nil {
		return -1, err
	}
	return t.addLink(from, to), nil
}

// EnsureLink returns the directed link from->to, opening it when absent
// — one chain walk instead of the FindLink+AddLink double walk on the
// routing commit path.
func (t *Topology) EnsureLink(from, to SwitchID) (LinkID, error) {
	if id, ok := t.FindLink(from, to); ok {
		return id, nil
	}
	if from == to {
		return -1, fmt.Errorf("%w: self link on switch %d", ErrLink, from)
	}
	return t.addLink(from, to), nil
}

// checkLink reports why no new link from->to can open: an endpoint out
// of range, a self link, or a link that already exists.
func (t *Topology) checkLink(from, to SwitchID) error {
	n := SwitchID(len(t.Switches))
	switch {
	case from < 0 || from >= n || to < 0 || to >= n:
		return fmt.Errorf("%w: link %d->%d names an unknown switch", ErrLink, from, to)
	case from == to:
		return fmt.Errorf("%w: self link on switch %d", ErrLink, from)
	}
	if _, ok := t.FindLink(from, to); ok {
		return fmt.Errorf("%w: duplicate link %d->%d", ErrLink, from, to)
	}
	return nil
}

// addLink appends a link checkLink or the index has already proven
// legal and absent.
func (t *Topology) addLink(from, to SwitchID) LinkID {
	id := LinkID(len(t.Links))
	t.Links = append(t.Links, Link{From: from, To: to})
	t.openLink(id)
	return id
}

// openLink zeroes link id's traffic and threads it into the link index.
// Links must be opened in ID order.
func (t *Topology) openLink(id LinkID) {
	l := &t.Links[id]
	l.TrafficBps = 0
	t.nextOut = append(t.nextOut, t.firstOut[l.From])
	t.firstOut[l.From] = id
	t.outPorts[l.From]++
	t.inPorts[l.To]++
}

// LinkFreqHz returns the clock of a link from->to: that of its slower
// endpoint's island.
func (t *Topology) LinkFreqHz(from, to SwitchID) float64 {
	return min(t.IslandFreqHz[t.Switches[from].Island], t.IslandFreqHz[t.Switches[to].Island])
}

// CapacityBps returns the bandwidth (bytes/s) a link from->to
// carries: the link width times LinkFreqHz.
func (t *Topology) CapacityBps(from, to SwitchID) float64 {
	return t.Lib.LinkCapacityBps(t.LinkFreqHz(from, to))
}

// CrossesIslands reports whether a link from->to joins two islands; it
// then carries a voltage/frequency converter and costs
// model.FIFOCrossingCycles extra latency.
func (t *Topology) CrossesIslands(from, to SwitchID) bool {
	return t.Switches[from].Island != t.Switches[to].Island
}

// SwitchPorts returns the input and output port counts of a switch:
// attached cores contribute one input and one output each (their NI),
// plus one port per incident link direction. The counts are kept by
// the mutators, so the query is O(1).
func (t *Topology) SwitchPorts(sw SwitchID) (in, out int) {
	return int(t.inPorts[sw]), int(t.outPorts[sw])
}

// SwitchCores appends to buf[:0] the cores attached to switch sw, in
// ascending order, and returns it: one scan of SwitchOf. The caller
// owns buf, which grows only when it has no room for the cores.
func (t *Topology) SwitchCores(sw SwitchID, buf []soc.CoreID) []soc.CoreID {
	buf = buf[:0]
	for c, s := range t.SwitchOf {
		if s == sw {
			buf = append(buf, soc.CoreID(c))
		}
	}
	return buf
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

// ZeroLoadLatencyCycles returns the zero-load latency of a route in NoC
// cycles: latencyCycles over its walk, one switch more than it has
// links, with a converter penalty on each link that crosses islands.
func (t *Topology) ZeroLoadLatencyCycles(r *Route) float64 {
	crossings := 0
	for _, lid := range t.PathLinks(r.Links) {
		if l := &t.Links[lid]; t.CrossesIslands(l.From, l.To) {
			crossings++
		}
	}
	return latencyCycles(int(r.Links.N)+1, crossings)
}

// Walk appends to buf[:0] the switch walk of a route or backup of flow
// f over links and returns it, WalkSwitch 0 through len(links). On a
// route that AddRoute or AddBackup accepted, the walk starts at the
// switch of f.Src and ends at that of f.Dst. The caller owns buf; no
// walk is stored.
func (t *Topology) Walk(buf []SwitchID, f soc.Flow, links []LinkID) []SwitchID {
	buf = buf[:0]
	for i := 0; i <= len(links); i++ {
		buf = append(buf, t.WalkSwitch(f, links, i))
	}
	return buf
}

// WalkSwitch returns switch i (0 <= i <= len(links)) of the walk of a
// route or backup of flow f over links without building the walk: the
// first link's From (the switch of f's source core when links is
// empty), then each link's To.
func (t *Topology) WalkSwitch(f soc.Flow, links []LinkID, i int) SwitchID {
	switch {
	case i > 0:
		return t.Links[links[i-1]].To
	case len(links) > 0:
		return t.Links[links[0]].From
	}
	return t.SwitchOf[f.Src]
}

// PathLatencyCycles returns the zero-load latency in NoC cycles of a
// walk over switches, latencyCycles with one converter penalty per
// island change. The router prices candidate paths with it before any
// link is opened.
func (t *Topology) PathLatencyCycles(switches []SwitchID) float64 {
	crossings := 0
	for i := 1; i < len(switches); i++ {
		if t.CrossesIslands(switches[i-1], switches[i]) {
			crossings++
		}
	}
	return latencyCycles(len(switches), crossings)
}

// latencyCycles is the zero-load latency model of a walk over switches
// switches with crossings island crossings: the NI injection and
// ejection links, one traversal per switch, one cycle per inter-switch
// link and the converter penalty per crossing. Every term is a small
// integer, so the sum is exact.
func latencyCycles(switches, crossings int) float64 {
	return 2*model.LinkTraversalCycles +
		model.SwitchTraversalCycles*float64(switches) +
		model.LinkTraversalCycles*float64(switches-1) +
		model.FIFOCrossingCycles*float64(crossings)
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

// AddRoute records the route of spec flow fi over links, copied into
// the link table, and accounts the flow's bandwidth on every traversed
// link. The walk must already be structurally valid.
func (t *Topology) AddRoute(fi soc.FlowID, links []LinkID) error {
	if fi < 0 || int(fi) >= len(t.Spec.Flows) {
		return fmt.Errorf("%w: route for unknown flow %d", ErrWalk, fi)
	}
	f := &t.Spec.Flows[fi]
	if err := t.checkPath(f, links); err != nil {
		return err
	}
	for _, lid := range links {
		t.Links[lid].TrafficBps += f.BandwidthBps
	}
	t.Routes = append(t.Routes, Route{Flow: fi, Links: t.addPath(links)})
	return nil
}

// AddBackup records a pre-synthesized alternate walk over links, copied
// into the link table, on the route at index ri. The walk must be
// structurally valid for the route's flow; it is stored cold — no
// traffic is accounted on its links. Disjointness is
// ValidateSurvivable's job, not enforced here.
func (t *Topology) AddBackup(ri int, links []LinkID) error {
	if ri < 0 || ri >= len(t.Routes) {
		return fmt.Errorf("%w: backup for unknown route %d", ErrWalk, ri)
	}
	r := &t.Routes[ri]
	if err := t.checkPath(&t.Spec.Flows[r.Flow], links); err != nil {
		return err
	}
	if r.Backups == nil && len(t.bakFree) > 0 {
		r.Backups = t.bakFree[len(t.bakFree)-1]
		t.bakFree = t.bakFree[:len(t.bakFree)-1]
	}
	r.Backups = append(r.Backups, t.addPath(links))
	return nil
}

// checkPath verifies one link walk against a flow: endpoints that are
// attached cores, every link known, the first starting on the source
// core's switch, each starting where the one before it ends, and the
// walk ending on the destination core's switch — so a flow with no
// links needs both cores on one switch.
func (t *Topology) checkPath(f *soc.Flow, links []LinkID) error {
	if f.Src < 0 || int(f.Src) >= len(t.SwitchOf) || f.Dst < 0 || int(f.Dst) >= len(t.SwitchOf) {
		return fmt.Errorf("%w: flow %d->%d names an unknown core", ErrWalk, f.Src, f.Dst)
	}
	at, end := t.SwitchOf[f.Src], t.SwitchOf[f.Dst]
	if at < 0 || end < 0 {
		return fmt.Errorf("%w: flow %d->%d has an unattached endpoint", ErrWalk, f.Src, f.Dst)
	}
	for i, lid := range links {
		if int(lid) >= len(t.Links) || lid < 0 {
			return fmt.Errorf("%w: route references unknown link %d", ErrWalk, lid)
		}
		l := &t.Links[lid]
		switch {
		case l.From == at:
		case i == 0:
			return fmt.Errorf("%w: route for %d->%d starts at switch %d, core is on %d",
				ErrWalk, f.Src, f.Dst, l.From, at)
		default:
			return fmt.Errorf("%w: route for %d->%d breaks at link %d: it leaves switch %d, the walk is at %d",
				ErrWalk, f.Src, f.Dst, lid, l.From, at)
		}
		at = l.To
	}
	if at != end {
		return fmt.Errorf("%w: route for %d->%d ends at switch %d, core is on %d",
			ErrWalk, f.Src, f.Dst, at, end)
	}
	return nil
}

// The errors of Build: each error it returns wraps one of these, so a
// reader can tell with errors.Is which part of a stored design is
// malformed (the message says where). The mutators wrap the same ones.
var (
	ErrIslands = errors.New("topology: malformed island table")
	ErrSwitch  = errors.New("topology: switch in unknown island")
	ErrAttach  = errors.New("topology: malformed core attachment")
	ErrLink    = errors.New("topology: malformed link")
	ErrWalk    = errors.New("topology: malformed route walk")
)

// Build checks t's construction fields (see Topology; -1 in SwitchOf is
// an unattached core) and derives the rest: the port counts and the
// link index, threaded in ID order, with no traffic.
// Build takes no routes: t.Routes must be empty, and the routes come
// after it through AddRoute and AddBackup, which check them and sum
// TrafficBps route by route. What Validate checks is left to Validate.
// On error t is half derived and must not be used.
func (t *Topology) Build() error {
	if len(t.Routes) > 0 {
		return fmt.Errorf("%w: Build takes no routes, %d given", ErrWalk, len(t.Routes))
	}
	nIsl := len(t.Spec.Islands)
	if t.NoCIsland != soc.NoIsland {
		if t.NoCIsland != soc.IslandID(nIsl) {
			return fmt.Errorf("%w: NoC island %d, want %d", ErrIslands, t.NoCIsland, nIsl)
		}
		nIsl++
	}
	if len(t.IslandFreqHz) != nIsl || len(t.IslandVoltage) != nIsl {
		return fmt.Errorf("%w: %d clocks and %d supplies for %d islands",
			ErrIslands, len(t.IslandFreqHz), len(t.IslandVoltage), nIsl)
	}
	if len(t.SwitchOf) != len(t.Spec.Cores) {
		return fmt.Errorf("%w: %d attachments for %d cores", ErrAttach, len(t.SwitchOf), len(t.Spec.Cores))
	}
	nSw := len(t.Switches)
	t.firstOut = sized(t.firstOut, nSw)
	t.inPorts = sized(t.inPorts, nSw)
	t.outPorts = sized(t.outPorts, nSw)
	clear(t.inPorts)
	clear(t.outPorts)
	for i := range t.Switches {
		s := &t.Switches[i]
		if s.Island < 0 || int(s.Island) >= nIsl {
			return fmt.Errorf("%w: switch %d in island %d", ErrSwitch, i, s.Island)
		}
		t.firstOut[i] = -1
	}
	for c, sw := range t.SwitchOf {
		if sw == -1 {
			continue
		}
		if err := t.checkAttach(soc.CoreID(c), sw); err != nil {
			return err
		}
		t.inPorts[sw]++
		t.outPorts[sw]++
	}
	t.nextOut = slices.Grow(t.nextOut[:0], len(t.Links))
	for i := range t.Links {
		if err := t.checkLink(t.Links[i].From, t.Links[i].To); err != nil {
			return err
		}
		t.openLink(LinkID(i))
	}
	return nil
}

// WalkLinks resolves the switch walk of a route or backup of flow f
// into its links by FindLink, appending them to links[:0] (nil stays
// nil for a one-switch walk). It is how a reader whose format stores
// walks fills a route after Build: it checks that the walk is not
// empty, starts on the switch of f's source core, names known switches
// and follows existing links, and AddRoute or AddBackup checks the
// links against the flow. The start check is what a one-switch walk,
// which resolves to no links, would otherwise lose.
func (t *Topology) WalkLinks(f soc.Flow, walk []SwitchID, links []LinkID) ([]LinkID, error) {
	if len(walk) == 0 {
		return nil, fmt.Errorf("%w: empty walk for flow %d->%d", ErrWalk, f.Src, f.Dst)
	}
	if f.Src < 0 || int(f.Src) >= len(t.SwitchOf) {
		return nil, fmt.Errorf("%w: flow %d->%d names an unknown core", ErrWalk, f.Src, f.Dst)
	}
	if at := t.SwitchOf[f.Src]; walk[0] != at {
		return nil, fmt.Errorf("%w: walk for %d->%d starts at switch %d, core is on %d",
			ErrWalk, f.Src, f.Dst, walk[0], at)
	}
	links = links[:0]
	for i, sw := range walk {
		if sw < 0 || int(sw) >= len(t.Switches) {
			return nil, fmt.Errorf("%w: flow %d->%d walks unknown switch %d", ErrWalk, f.Src, f.Dst, sw)
		}
		if i == 0 {
			continue
		}
		lid, ok := t.FindLink(walk[i-1], sw)
		if !ok {
			return nil, fmt.Errorf("%w: flow %d->%d uses missing link %d->%d", ErrWalk, f.Src, f.Dst, walk[i-1], sw)
		}
		links = append(links, lid)
	}
	return links, nil
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
	if err := t.checkEachFlowRouted(); err != nil {
		return err
	}
	if err := t.ValidateRouted(); err != nil {
		return err
	}
	return t.ValidateShutdownSafe()
}

// checkEachFlowRouted proves, given as many routes as spec flows, that
// each spec flow is routed exactly once: every route names a spec flow
// that no earlier route names. One pass marks the flows, on the stack
// up to 1,024 of them.
func (t *Topology) checkEachFlowRouted() error {
	var small [1024]bool
	seen := small[:]
	if len(t.Spec.Flows) > len(small) {
		seen = make([]bool, len(t.Spec.Flows))
	}
	for i := range t.Routes {
		switch fi := t.Routes[i].Flow; {
		case fi < 0 || int(fi) >= len(t.Spec.Flows):
			return fmt.Errorf("topology: route %d carries flow %d, which the spec does not have", i, fi)
		case seen[fi]:
			f := &t.Spec.Flows[fi]
			return fmt.Errorf("topology: flow %d->%d is routed more than once", f.Src, f.Dst)
		default:
			seen[fi] = true
		}
	}
	return nil
}

// ValidateRouted checks the routes the topology actually holds — route
// structure, latency constraints, link capacities, switch feasibility —
// without requiring a route for every spec flow. Each route must name a
// spec flow, as AddRoute ensures. This is the check a
// power-state fault campaign needs: flows touching gated islands are
// deliberately left unrouted, and only the surviving traffic has to be
// well-formed. Validate composes it with the completeness checks.
func (t *Topology) ValidateRouted() error {
	for i := range t.Routes {
		r := &t.Routes[i]
		f := &t.Spec.Flows[r.Flow]
		if err := t.checkPath(f, t.PathLinks(r.Links)); err != nil {
			return err
		}
		if f.MaxLatencyCycles > 0 {
			if lat := t.ZeroLoadLatencyCycles(r); lat > f.MaxLatencyCycles {
				return fmt.Errorf("topology: flow %d->%d latency %.1f exceeds constraint %.1f",
					f.Src, f.Dst, lat, f.MaxLatencyCycles)
			}
		}
	}
	for _, l := range t.Links {
		if c := t.CapacityBps(l.From, l.To); l.TrafficBps > c*(1+1e-9) {
			return fmt.Errorf("topology: link %d->%d overloaded: %.3g > %.3g Bps",
				l.From, l.To, l.TrafficBps, c)
		}
	}
	for _, sw := range t.SwitchOf {
		if sw >= 0 && t.Switches[sw].Indirect {
			return fmt.Errorf("topology: indirect switch %d has cores attached", sw)
		}
	}
	for i, s := range t.Switches {
		if s.Indirect && s.Island != t.NoCIsland {
			return fmt.Errorf("topology: indirect switch %d outside the NoC island", i)
		}
		size, freq := t.SwitchSize(SwitchID(i)), t.IslandFreqHz[s.Island]
		if size > 0 && t.Lib.SwitchMaxFreqHz(size) < freq-1 {
			return fmt.Errorf("topology: switch %d size %d cannot run at %.0f MHz",
				i, size, freq/1e6)
		}
	}
	return nil
}

// ValidateShutdownSafe proves the paper's property: for every
// shut-downable island X, no route between two endpoints that both lie
// outside X traverses a switch inside X. (Routes that start or end in X
// are legitimately lost when X is gated.)
func (t *Topology) ValidateShutdownSafe() error {
	for islIdx := range t.Spec.Islands {
		isl := soc.IslandID(islIdx)
		if !t.IslandShutdownable(isl) {
			continue
		}
		if err := t.severed(nil, isl); err != nil {
			return err
		}
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
	for islIdx := range off {
		if off[islIdx] && !t.IslandShutdownable(soc.IslandID(islIdx)) {
			return fmt.Errorf("topology: island %d (%s) is not shutdownable",
				islIdx, t.Spec.Islands[islIdx].Name)
		}
	}
	return t.severed(off, soc.NoIsland)
}

// severed reports the first route between two powered endpoints that
// traverses a gated switch, where an island is gated when off marks it
// or it is also. ValidateShutdownSafe gates one island at a time
// through also, so it needs no mask.
func (t *Topology) severed(off []bool, also soc.IslandID) error {
	gated := func(isl soc.IslandID) bool {
		return isl == also || int(isl) < len(off) && off[isl]
	}
	for ri := range t.Routes {
		r := &t.Routes[ri]
		f := &t.Spec.Flows[r.Flow]
		srcIsl := t.Spec.IslandOf[f.Src]
		dstIsl := t.Spec.IslandOf[f.Dst]
		if gated(srcIsl) || gated(dstIsl) {
			continue // legitimately lost with its endpoint island
		}
		links := t.PathLinks(r.Links)
		for i := 0; i <= len(links); i++ {
			sw := t.WalkSwitch(*f, links, i)
			if isl := t.Switches[sw].Island; gated(isl) {
				return fmt.Errorf(
					"topology: shutting down island %d (%s) would sever flow %d->%d (islands %d->%d) at switch %d",
					isl, t.Spec.Islands[isl].Name, f.Src, f.Dst, srcIsl, dstIsl, sw)
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
		if r.Links.N == 0 {
			continue // single-switch route: no link a fault could sever
		}
		f := &t.Spec.Flows[r.Flow]
		if len(r.Backups) < k {
			return fmt.Errorf("topology: flow %d->%d has %d backup route(s), survivability %d requires %d",
				f.Src, f.Dst, len(r.Backups), k, k)
		}
		srcIsl := t.Spec.IslandOf[f.Src]
		dstIsl := t.Spec.IslandOf[f.Dst]
		owner := make(map[LinkID]int, r.Links.N)
		for _, lid := range t.PathLinks(r.Links) {
			owner[lid] = -1
		}
		for bi, b := range r.Backups {
			links := t.PathLinks(b)
			if err := t.checkPath(f, links); err != nil {
				return err
			}
			if err := t.checkIslandDiscipline(f, links, srcIsl, dstIsl); err != nil {
				return err
			}
			for _, lid := range links {
				if prev, ok := owner[lid]; ok {
					with := "the primary route"
					if prev >= 0 {
						//noclint:ignore bannedcall error-path message formatting, not a cache key
						with = fmt.Sprintf("backup %d", prev)
					}
					return fmt.Errorf("topology: flow %d->%d backup %d shares link %d with %s",
						f.Src, f.Dst, bi, lid, with)
				}
				owner[lid] = bi
			}
		}
	}
	return nil
}

// checkIslandDiscipline verifies the island forward discipline (S→S,
// S→M, S→D, M→M, M→D, D→D) on the walk of flow f over links: every
// switch lies in the flow's source island, destination island or the
// intermediate NoC island, and the walk never moves backward through
// that order. When
// source and destination coincide every admissible move is legal,
// mirroring the router's subgraph construction.
func (t *Topology) checkIslandDiscipline(f *soc.Flow, links []LinkID, srcIsl, dstIsl soc.IslandID) error {
	mid := t.NoCIsland
	prev := int8(0)
	for i := 0; i <= len(links); i++ {
		sw := t.WalkSwitch(*f, links, i)
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

// MaxLinkUtilization returns the highest traffic/capacity ratio over all
// links, or 0 when there are no links.
func (t *Topology) MaxLinkUtilization() float64 {
	var max float64
	for _, l := range t.Links {
		if c := t.CapacityBps(l.From, l.To); c > 0 {
			if u := l.TrafficBps / c; u > max {
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
