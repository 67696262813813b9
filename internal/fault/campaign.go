// Power-state fault campaign: the design-time guarantee of the paper,
// exercised exhaustively. The single-link sweep in fault.go verifies
// recoverability with every island powered; the campaign enumerates the
// actual power states the design was synthesized for — every subset of
// shut-downable islands gated — and under each state checks the
// shutdown invariant (every flow between surviving islands keeps its
// committed route) and composes single-link failures with re-routing
// restricted to surviving links. A synthesized design must report zero
// invariant violations for every state; the per-state link-fault
// recoverability quantifies how much slack beyond the guarantee the
// topology carries.
package fault

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"nocvi/internal/soc"
	"nocvi/internal/topology"
)

// DefaultMaxStates caps the number of power states a campaign
// evaluates. Designs with up to 6 shut-downable islands are enumerated
// exhaustively; beyond that the state space is sampled.
const DefaultMaxStates = 64

// CampaignOptions configures a power-state fault campaign.
type CampaignOptions struct {
	// MaxStates caps the number of power states evaluated; zero selects
	// DefaultMaxStates. When the full state space exceeds the cap, the
	// campaign always keeps the all-on state and every single-island
	// state, and fills the remainder with a deterministic sample of
	// multi-island states — the same sample on every run.
	MaxStates int

	// Workers bounds the goroutines evaluating power states
	// concurrently. Zero evaluates serially. Every worker count yields a
	// byte-identical report: states are enumerated up front and results
	// collected in state order.
	Workers int

	// Survivability is the synthesis survivability level the design was
	// built with (core.Options.Survivability). When >= 1 the campaign
	// asserts zero-re-route recovery instead of attempting repair: every
	// affected active flow must hold a pre-synthesized backup route that
	// avoids the failed link and the gated islands, and a link fault
	// with no such backup is reported unrecoverable — the campaign never
	// falls back to re-routing, because re-routing is exactly what the
	// guarantee promises to make unnecessary. Zero keeps the historical
	// behaviour: recoverability via constrained re-routing.
	Survivability int
}

// StateOutcome is the campaign result for one power state.
type StateOutcome struct {
	// Mask is the gated-subset bitmask over the shut-downable islands
	// (bit i gates the i-th shut-downable island, in island order); the
	// campaign's canonical state ordering is ascending Mask.
	Mask uint64 `json:"mask"`

	// State names the gated islands, "all-on" for the empty mask.
	State string `json:"state"`

	// Off is the per-spec-island gating mask the state denotes.
	Off []bool `json:"-"`

	// ActiveFlows counts flows with both endpoints on surviving islands
	// — the traffic the invariant protects under this state.
	ActiveFlows int `json:"active_flows"`

	// InvariantOK reports the paper's guarantee for this state: every
	// active flow's committed route avoids every gated island.
	// InvariantErr holds the first violation when not OK.
	InvariantOK  bool   `json:"invariant_ok"`
	InvariantErr string `json:"invariant_err,omitempty"`

	// Links counts the powered links subjected to single-link failure
	// under this state; Recoverable how many of those failures the
	// surviving links could route around. ZeroReroute counts the subset
	// recovered purely by pre-synthesized backup routes — all of
	// Recoverable for survivable designs, zero (and omitted) otherwise.
	Links       int `json:"links"`
	Recoverable int `json:"recoverable"`
	ZeroReroute int `json:"zero_reroute,omitempty"`

	// Unrecovered lists the link failures the state could not absorb,
	// sorted by LinkID.
	Unrecovered []LinkOutcome `json:"unrecovered,omitempty"`
}

// Campaign is the aggregate report of a power-state fault campaign.
type Campaign struct {
	Design string `json:"design"`

	// Islands and Shutdownable describe the state space: 2^Shutdownable
	// power states in total, of which len(States) were evaluated.
	Islands      int   `json:"islands"`
	Shutdownable int   `json:"shutdownable"`
	StateSpace   int64 `json:"state_space"`
	Sampled      bool  `json:"sampled,omitempty"`

	States []StateOutcome `json:"states"`

	// InvariantViolations counts states whose shutdown invariant failed
	// — zero for any design the synthesis engine produced.
	InvariantViolations int `json:"invariant_violations"`

	// LinkFaults and Recovered aggregate the per-state link-failure
	// sweeps; ZeroReroute the subset recovered purely via pre-synthesized
	// backup routes. Survivability echoes the level the campaign asserted
	// (CampaignOptions.Survivability). Both are omitted at zero, keeping
	// k=0 reports byte-identical to builds that predate the fields.
	LinkFaults    int `json:"link_faults"`
	Recovered     int `json:"recovered"`
	ZeroReroute   int `json:"zero_reroute,omitempty"`
	Survivability int `json:"survivability,omitempty"`
}

// OK reports whether every evaluated power state upheld the shutdown
// invariant.
func (c *Campaign) OK() bool { return c.InvariantViolations == 0 }

// RecoverableFrac is the aggregate fraction of (power state, link
// failure) combinations the surviving links could route around.
func (c *Campaign) RecoverableFrac() float64 {
	if c.LinkFaults == 0 {
		return 1
	}
	return float64(c.Recovered) / float64(c.LinkFaults)
}

// RestoreOff rebuilds every state's per-island Off mask against the
// given topology. Off is derived state — mask bit i gates the i-th
// shut-downable island, exactly as evalState expands it — and is
// excluded from the JSON encoding, so consumers that round-trip a
// campaign through JSON (the content-addressed result cache, external
// tooling) call RestoreOff after decoding to recover it. The topology
// must be the design the campaign was run on; the cache guarantees
// that by keying campaign entries on the topology's content digest.
func (c *Campaign) RestoreOff(top *topology.Topology) {
	shutdownable := shutdownableIslands(top)
	for i := range c.States {
		s := &c.States[i]
		off := make([]bool, len(top.Spec.Islands))
		for j, isl := range shutdownable {
			if s.Mask&(1<<uint(j)) != 0 {
				off[isl] = true
			}
		}
		s.Off = off
	}
}

// RunCampaign evaluates the power-state fault campaign on a routed
// topology. Each worker re-routes its link faults on one arena, and a
// panic while evaluating a state is returned as a *StatePanicError
// naming the state's mask.
func RunCampaign(top *topology.Topology, opt CampaignOptions) (*Campaign, error) {
	shutdownable := shutdownableIslands(top)
	k := len(shutdownable)
	c := &Campaign{
		Design:        top.Spec.Name,
		Islands:       len(top.Spec.Islands),
		Shutdownable:  k,
		StateSpace:    stateSpaceSize(k),
		Survivability: opt.Survivability,
	}
	masks := enumerateStates(k, opt.maxStates())
	c.Sampled = int64(len(masks)) < c.StateSpace

	// The router wants flows in decreasing-bandwidth order; sort once
	// and let every state filter its survivors out of the shared slice.
	flows := top.Spec.SortFlowsByBandwidth()
	arenas := make([]arena, opt.workers())
	c.States = make([]StateOutcome, len(masks))
	err := runStates(masks, len(arenas), func(w, i int) error {
		var err error
		c.States[i], err = evalState(&arenas[w], top, shutdownable, flows, masks[i], opt)
		return err
	})
	if err != nil {
		return nil, err
	}

	for i := range c.States {
		s := &c.States[i]
		if !s.InvariantOK {
			c.InvariantViolations++
		}
		c.LinkFaults += s.Links
		c.Recovered += s.Recoverable
		c.ZeroReroute += s.ZeroReroute
	}
	return c, nil
}

func (o CampaignOptions) maxStates() int {
	if o.MaxStates <= 0 {
		return DefaultMaxStates
	}
	return o.MaxStates
}

func (o CampaignOptions) workers() int {
	if o.Workers <= 0 {
		return 1
	}
	return o.Workers
}

// StatePanicError is a panic recovered while evaluating one power
// state. Error renders the mask and the panic value only, so the same
// panic yields the same error on any worker count; Stack is the raw
// stack of the panicking goroutine, for diagnosis.
type StatePanicError struct {
	Mask  uint64
	Panic any
	Stack []byte
}

func (e *StatePanicError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault: power state mask %#x panicked: %v", e.Mask, e.Panic)
	return b.String()
}

// runStates evaluates eval(w, i) for every state index i of masks over
// the given worker count; w in [0, workers) names the evaluating worker,
// so eval can use that worker's arena. Workers claim indices in
// ascending order and results land at their own index, so any worker
// count produces the same report.
//
// Each state runs behind a panic boundary: a panic becomes a
// *StatePanicError naming the state's mask. The first failure stops new
// claims and retires its worker, whose arena a panic may have left half
// mutated. The error returned is the one at the lowest failing index,
// which is the same on every worker count: every lower index was
// claimed before it, and a claimed state always runs to completion.
func runStates(masks []uint64, workers int, eval func(w, i int) error) error {
	n := len(masks)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	work := func(w int) {
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if errs[i] = evalSafely(masks[i], w, i, eval); errs[i] != nil {
				failed.Store(true)
				return
			}
		}
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				work(w)
			}(w)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// evalSafely runs eval(w, i), recovering a panic into a
// *StatePanicError for the state's mask.
func evalSafely(mask uint64, w, i int, eval func(w, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &StatePanicError{Mask: mask, Panic: r, Stack: debug.Stack()}
		}
	}()
	return eval(w, i)
}

// shutdownableIslands lists the spec islands the design may gate, in
// island order.
func shutdownableIslands(top *topology.Topology) []soc.IslandID {
	var out []soc.IslandID
	for j := range top.Spec.Islands {
		if top.IslandShutdownable(soc.IslandID(j)) {
			out = append(out, soc.IslandID(j))
		}
	}
	return out
}

// stateSpaceSize returns 2^k, saturating instead of overflowing — a
// design with 63+ shut-downable islands has an astronomically large
// state space, and the campaign samples it either way.
func stateSpaceSize(k int) int64 {
	if k >= 62 {
		return 1 << 62
	}
	return 1 << k
}

// enumerateStates lists the gated-subset bitmasks to evaluate, in
// ascending order. Below the cap the full 2^k space is enumerated.
// Above it the all-on state and every single-island state are always
// kept — they are the states the paper's use cases exercise — and the
// remaining slots are filled with a deterministic splitmix64-driven
// sample of multi-island states, identical on every run.
func enumerateStates(k, limit int) []uint64 {
	if space := stateSpaceSize(k); space <= int64(limit) {
		masks := make([]uint64, space)
		for i := range masks {
			masks[i] = uint64(i)
		}
		return masks
	}
	keep := make(map[uint64]bool, limit)
	keep[0] = true
	for i := 0; i < k && len(keep) < limit; i++ {
		keep[uint64(1)<<i] = true
	}
	// Deterministic sampling: hash a counter through splitmix64 and mask
	// to k bits. Collisions and already-kept masks are skipped; the
	// sequence is fixed, so the sampled set never varies between runs,
	// worker counts or machines.
	var mod uint64 = 1<<uint(k) - 1
	if k >= 64 {
		mod = ^uint64(0)
	}
	for ctr := uint64(1); len(keep) < limit; ctr++ {
		m := splitmix64(ctr) & mod
		if !keep[m] {
			keep[m] = true
		}
	}
	masks := make([]uint64, 0, len(keep))
	for m := range keep {
		masks = append(masks, m)
	}
	sort.Slice(masks, func(i, j int) bool { return masks[i] < masks[j] })
	return masks
}

// splitmix64 is the SplitMix64 finalizer — a tiny, dependency-free
// deterministic bit mixer. The campaign must not use math/rand: the
// determinism lint bans nondeterminism sources from synthesis-path
// packages, and the sampled state set is part of the report contract.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stateLabel names a power state by its gated islands.
func stateLabel(spec *soc.Spec, off []bool) string {
	var names []string
	for j, gated := range off {
		if gated {
			names = append(names, spec.Islands[j].Name)
		}
	}
	if len(names) == 0 {
		return "all-on"
	}
	return "off:" + strings.Join(names, "+")
}

// evalState checks one power state: the shutdown invariant first, then
// a single-link-failure sweep over the powered links with re-routing of
// the surviving traffic only, on the worker's arena a. flows holds the
// spec's flows in decreasing-bandwidth order.
func evalState(a *arena, top *topology.Topology, shutdownable []soc.IslandID, flows []soc.Flow, mask uint64, opt CampaignOptions) (StateOutcome, error) {
	off := make([]bool, len(top.Spec.Islands))
	for i, isl := range shutdownable {
		if mask&(1<<uint(i)) != 0 {
			off[isl] = true
		}
	}
	s := StateOutcome{
		Mask:  mask,
		State: stateLabel(top.Spec, off),
		Off:   off,
	}

	// The paper's invariant, generalized to the whole power state: every
	// flow between surviving islands keeps its committed route.
	s.InvariantOK = true
	if err := top.ValidateShutdownSafeMask(off); err != nil {
		s.InvariantOK = false
		s.InvariantErr = stableReason(err)
	}

	a.active = activeFlows(top.Spec, flows, off, a.active)
	s.ActiveFlows = len(a.active)

	// Single-link failures composed under the state: only powered links
	// can fail meaningfully (a gated island's links are already off),
	// and only the surviving traffic needs a route around the failure.
	for i, l := range top.Links {
		if linkGated(top, l, off) {
			continue
		}
		out, err := tryWithoutUnderState(a, top, topology.LinkID(i), off, opt.Survivability)
		if err != nil {
			return s, err
		}
		s.Links++
		if out.Recovered {
			s.Recoverable++
			if out.ZeroReroute {
				s.ZeroReroute++
			}
		} else {
			s.Unrecovered = append(s.Unrecovered, out)
		}
	}
	sortOutcomes(s.Unrecovered)
	return s, nil
}

// activeFlows filters sorted, the spec's flows in decreasing-bandwidth
// order as the router requires, to those with both endpoints on
// surviving islands. The result reuses buf's storage.
func activeFlows(spec *soc.Spec, sorted []soc.Flow, off []bool, buf []soc.Flow) []soc.Flow {
	active := buf[:0]
	for _, f := range sorted {
		if !off[spec.IslandOf[f.Src]] && !off[spec.IslandOf[f.Dst]] {
			active = append(active, f)
		}
	}
	return active
}

// linkGated reports whether either endpoint switch of the link lies in
// a gated island (the intermediate NoC island is never gated).
func linkGated(top *topology.Topology, l topology.Link, off []bool) bool {
	fromIsl := top.Switches[l.From].Island
	toIsl := top.Switches[l.To].Island
	return (int(fromIsl) < len(off) && off[fromIsl]) ||
		(int(toIsl) < len(off) && off[toIsl])
}

// tryWithoutUnderState evaluates one link fault under a power state: the
// failed link is removed, and only the state's active flows (a.active)
// are re-routed over the surviving links. Analyze calls it with an
// all-on state and survivability 0. Routes that never used the
// link are unaffected by its loss, so a failure with zero affected
// active flows recovers trivially without a rebuild. With survivability
// >= 1 re-routing is off the table: every affected flow must fall back
// to a pre-synthesized backup route, or the fault is unrecoverable.
func tryWithoutUnderState(a *arena, orig *topology.Topology, failed topology.LinkID, off []bool, survivability int) (LinkOutcome, error) {
	out := LinkOutcome{Link: failed}
	for ri := range orig.Routes {
		r := &orig.Routes[ri]
		if f := &orig.Spec.Flows[r.Flow]; off[orig.Spec.IslandOf[f.Src]] || off[orig.Spec.IslandOf[f.Dst]] {
			continue
		}
		if slices.Contains(orig.PathLinks(r.Links), failed) {
			out.AffectedFlows++
		}
	}
	if out.AffectedFlows == 0 {
		out.Recovered = true
		// No active flow crosses the link: absorbed without re-routing
		// by definition. Only stamped under the survivability contract so
		// k=0 reports stay byte-identical to earlier engine versions.
		out.ZeroReroute = survivability >= 1
		return out, nil
	}
	if survivability >= 1 {
		return recoverViaBackups(orig, failed, off, out), nil
	}

	if err := a.rebuild(orig, failed); err != nil {
		return out, err
	}
	top := a.top
	if err := a.router.RouteFlows(a.active); err != nil {
		out.Reason = stableReason(err)
		return out, nil
	}
	// The re-routed survivor must be well-formed AND still honor the
	// shutdown invariant for this state: recovery that routes surviving
	// traffic through a gated island is no recovery at all.
	if err := top.ValidateRouted(); err != nil {
		out.Reason = stableReason(err)
		return out, nil
	}
	if err := top.ValidateShutdownSafeMask(off); err != nil {
		out.Reason = stableReason(err)
		return out, nil
	}
	out.Recovered = true
	return out, nil
}

// recoverViaBackups resolves a link fault under a survivable design's
// zero-re-route contract: every affected active route must hold a
// pre-synthesized backup path that avoids both the failed link and
// every gated island. No topology is rebuilt and no flow re-routed —
// recovery is a pure lookup, which is the run-time story the
// survivability guarantee buys. The first flow with no usable backup
// makes the fault unrecoverable.
func recoverViaBackups(orig *topology.Topology, failed topology.LinkID, off []bool, out LinkOutcome) LinkOutcome {
	for ri := range orig.Routes {
		r := &orig.Routes[ri]
		f := &orig.Spec.Flows[r.Flow]
		if off[orig.Spec.IslandOf[f.Src]] || off[orig.Spec.IslandOf[f.Dst]] {
			continue
		}
		if !slices.Contains(orig.PathLinks(r.Links), failed) {
			continue
		}
		if !hasUsableBackup(orig, r, failed, off) {
			//noclint:ignore bannedcall unrecoverable-fault report message, not a cache key
			out.Reason = fmt.Sprintf("fault: flow %d->%d has no backup route avoiding link %d",
				f.Src, f.Dst, failed)
			return out
		}
	}
	out.Recovered = true
	out.ZeroReroute = true
	return out
}

// hasUsableBackup reports whether one of the route's pre-synthesized
// backups survives the composed fault: it must not traverse the failed
// link, and every switch on it must sit in a powered island. For
// designs the synthesis engine produced, the island forward discipline
// already confines backups to the flow's endpoint islands and the
// never-gated intermediate island, so an active flow's backups pass
// the island check by construction — it is verified here, not assumed.
func hasUsableBackup(top *topology.Topology, r *topology.Route, failed topology.LinkID, off []bool) bool {
	f := top.Spec.Flows[r.Flow]
	for _, b := range r.Backups {
		links := top.PathLinks(b)
		if slices.Contains(links, failed) {
			continue
		}
		usable := true
		for i := 0; usable && i <= len(links); i++ {
			isl := top.Switches[top.WalkSwitch(f, links, i)].Island
			usable = int(isl) >= len(off) || !off[isl]
		}
		if usable {
			return true
		}
	}
	return false
}

// Format renders the campaign report.
func (c *Campaign) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "power-state fault campaign: %s\n", c.Design)
	fmt.Fprintf(&b, "  islands: %d (%d shutdownable), state space %d, evaluated %d states",
		c.Islands, c.Shutdownable, c.StateSpace, len(c.States))
	if c.Sampled {
		b.WriteString(" (sampled)")
	}
	b.WriteByte('\n')
	if c.InvariantViolations == 0 {
		fmt.Fprintf(&b, "  shutdown invariant: OK in all %d states\n", len(c.States))
	} else {
		fmt.Fprintf(&b, "  shutdown invariant: VIOLATED in %d/%d states\n",
			c.InvariantViolations, len(c.States))
	}
	fmt.Fprintf(&b, "  link faults under power states: %d/%d recoverable (%.0f%%)\n",
		c.Recovered, c.LinkFaults, c.RecoverableFrac()*100)
	if c.Survivability >= 1 {
		fmt.Fprintf(&b, "  survivability %d: %d/%d faults absorbed with zero re-routing\n",
			c.Survivability, c.ZeroReroute, c.LinkFaults)
	}
	for i := range c.States {
		s := &c.States[i]
		if s.InvariantOK && len(s.Unrecovered) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  state %s (%d active flows):\n", s.State, s.ActiveFlows)
		if !s.InvariantOK {
			fmt.Fprintf(&b, "    INVARIANT VIOLATED: %s\n", s.InvariantErr)
		}
		for _, o := range s.Unrecovered {
			fmt.Fprintf(&b, "    link %d UNRECOVERABLE (%d flows affected): %s\n",
				o.Link, o.AffectedFlows, o.Reason)
		}
	}
	return b.String()
}
