package route

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/topology"
)

// threeIslandSpec: islands sys(0), media(1, shutdownable), io(2,
// shutdownable); six cores, traffic between all islands.
func threeIslandSpec() *soc.Spec {
	return &soc.Spec{
		Name: "r6",
		Cores: []soc.Core{
			{ID: 0, Name: "cpu"}, {ID: 1, Name: "mem"},
			{ID: 2, Name: "vid"}, {ID: 3, Name: "aud"},
			{ID: 4, Name: "usb"}, {ID: 5, Name: "eth"},
		},
		Flows: []soc.Flow{
			{Src: 0, Dst: 1, BandwidthBps: 400e6, MaxLatencyCycles: 12},
			{Src: 2, Dst: 1, BandwidthBps: 300e6, MaxLatencyCycles: 30},
			{Src: 4, Dst: 1, BandwidthBps: 50e6, MaxLatencyCycles: 40},
			{Src: 5, Dst: 2, BandwidthBps: 20e6, MaxLatencyCycles: 40},
			{Src: 3, Dst: 2, BandwidthBps: 80e6},
		},
		Islands: []soc.Island{
			{ID: 0, Name: "sys", VoltageV: 1.0},
			{ID: 1, Name: "media", VoltageV: 0.9, Shutdownable: true},
			{ID: 2, Name: "io", VoltageV: 1.0, Shutdownable: true},
		},
		IslandOf: []soc.IslandID{0, 0, 1, 1, 2, 2},
	}
}

// build creates a topology with one switch per island and all cores
// attached; no links yet.
func build(t *testing.T, spec *soc.Spec, withMid bool) *topology.Topology {
	t.Helper()
	top := topology.New(spec, model.Default65nm())
	fill(t, top, withMid)
	return top
}

// fill adds build's switches and core attachments to an empty (new or
// Reset) topology.
func fill(t *testing.T, top *topology.Topology, withMid bool) {
	t.Helper()
	spec := top.Spec
	for i := range spec.Islands {
		top.SetIslandFreq(soc.IslandID(i), 200e6)
	}
	for i := range spec.Islands {
		top.AddSwitch(soc.IslandID(i), false) // switch i serves island i
	}
	if withMid {
		ni := top.AddNoCIsland(200e6, 1.0)
		top.AddSwitch(ni, true)
	}
	for c := range spec.Cores {
		if err := top.AttachCore(soc.CoreID(c), topology.SwitchID(spec.IslandOf[c])); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRouteAllDirect(t *testing.T) {
	spec := threeIslandSpec()
	top := build(t, spec, false)
	r := New(top, Options{})
	if err := r.RouteAll(); err != nil {
		t.Fatal(err)
	}
	if err := top.Validate(); err != nil {
		t.Fatalf("routed topology invalid: %v", err)
	}
	if len(top.Routes) != len(spec.Flows) {
		t.Fatalf("routed %d of %d flows", len(top.Routes), len(spec.Flows))
	}
	// flow 2->1 (media->sys) must go directly media switch -> sys switch,
	// it must NOT pass the io island (shutdown safety by construction).
	for _, rt := range top.Routes {
		f := spec.Flows[rt.Flow]
		for _, sw := range top.Walk(nil, f, top.PathLinks(rt.Links)) {
			isl := top.Switches[sw].Island
			srcI, dstI := spec.IslandOf[f.Src], spec.IslandOf[f.Dst]
			if isl != srcI && isl != dstI {
				t.Fatalf("flow %d->%d strays into island %d", f.Src, f.Dst, isl)
			}
		}
	}
}

// TestRouteNamesSpecFlows: a route names its flow by index, so the
// router refuses a flow the spec lacks, and finds one the caller
// appended to the spec's flows in place after the router was built.
func TestRouteNamesSpecFlows(t *testing.T) {
	spec := threeIslandSpec()
	top := build(t, spec, false)
	r := New(top, Options{})
	if err := r.Route(soc.Flow{Src: 3, Dst: 0, BandwidthBps: 10e6}); err == nil || !strings.Contains(err.Error(), "not in the spec") {
		t.Fatalf("a flow outside the spec: got %v, want an error naming it", err)
	}
	if len(top.Routes) != 0 {
		t.Fatalf("a refused flow left %d routes", len(top.Routes))
	}
	spec.Flows = append(spec.Flows, soc.Flow{Src: 3, Dst: 0, BandwidthBps: 10e6})
	if err := r.Route(spec.Flows[len(spec.Flows)-1]); err != nil {
		t.Fatal(err)
	}
	if got := top.Routes[0].Flow; got != soc.FlowID(len(spec.Flows)-1) {
		t.Fatalf("the route names flow %d, want %d", got, len(spec.Flows)-1)
	}
}

func TestRouteSameSwitch(t *testing.T) {
	spec := threeIslandSpec()
	top := build(t, spec, false)
	r := New(top, Options{})
	if err := r.Route(spec.Flows[0]); err != nil { // cpu->mem, same switch
		t.Fatal(err)
	}
	if len(top.Routes) != 1 || top.Routes[0].Links.N != 0 {
		t.Fatal("same-switch flow should need no links")
	}
	if len(top.Links) != 0 {
		t.Fatal("no links should be opened")
	}
}

func TestRouteReusesLinks(t *testing.T) {
	spec := threeIslandSpec()
	spec.Flows = append(spec.Flows, soc.Flow{Src: 3, Dst: 0, BandwidthBps: 10e6})
	top := build(t, spec, false)
	r := New(top, Options{})
	if err := r.Route(spec.Flows[1]); err != nil { // vid->mem
		t.Fatal(err)
	}
	nLinks := len(top.Links)
	// aud->vid is intra-island; vid->mem opened media->sys. Another
	// media->sys flow must reuse it.
	if err := r.Route(spec.Flows[len(spec.Flows)-1]); err != nil {
		t.Fatal(err)
	}
	if len(top.Links) != nLinks {
		t.Fatalf("link not reused: %d -> %d links", nLinks, len(top.Links))
	}
	l := top.Links[0]
	if l.TrafficBps != 310e6 {
		t.Fatalf("accumulated traffic = %g", l.TrafficBps)
	}
}

func TestRouteViaIntermediate(t *testing.T) {
	spec := threeIslandSpec()
	top := build(t, spec, true)
	// Tiny max switch sizes force multi-hop structure to stay feasible;
	// here we just check mid routing is *allowed* and safe.
	r := New(top, Options{})
	if err := r.RouteAll(); err != nil {
		t.Fatal(err)
	}
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIntermediateUsedWhenDirectForbidden(t *testing.T) {
	spec := threeIslandSpec()
	top := build(t, spec, true)
	// The sys switch has 2 cores; cap its size at 3 so it can accept
	// exactly one more input port, and pre-grant that port to a link
	// from the intermediate switch. Both inter-island flows targeting
	// sys (media->sys and io->sys) must then funnel through the mid
	// switch, sharing the single mid->sys link.
	mid := topology.SwitchID(3)
	if _, err := top.AddLink(mid, 0); err != nil {
		t.Fatal(err)
	}
	sizes := []int{3, 4, 4, 16}
	r := New(top, Options{})
	r.maxSz = sizes
	if err := r.RouteAll(); err != nil {
		t.Fatal(err)
	}
	usedMid := false
	for _, rt := range top.Routes {
		for _, sw := range top.Walk(nil, spec.Flows[rt.Flow], top.PathLinks(rt.Links)) {
			if top.Switches[sw].Indirect {
				usedMid = true
			}
		}
	}
	if !usedMid {
		t.Fatal("expected the intermediate island to be used under tight size caps")
	}
	if err := top.ValidateShutdownSafe(); err != nil {
		t.Fatal(err)
	}
	for i, s := range top.Switches {
		if sz := top.SwitchSize(topology.SwitchID(i)); sz > sizes[s.Island] {
			t.Fatalf("switch %d size %d exceeds cap %d", i, sz, sizes[s.Island])
		}
	}
}

func TestRouteFailsWhenNoCapacity(t *testing.T) {
	spec := threeIslandSpec()
	// One absurd flow beyond any link capacity at 200 MHz (800 MB/s cap).
	spec.Flows = append(spec.Flows, soc.Flow{Src: 2, Dst: 5, BandwidthBps: 5e9})
	top := build(t, spec, false)
	r := New(top, Options{})
	err := r.RouteAll()
	if err == nil || !strings.Contains(err.Error(), "no feasible path") {
		t.Fatalf("over-capacity flow routed: %v", err)
	}
}

// TestNoPathErrorTyped: a flow the router cannot place fails with a
// *NoPathError naming it, wrapped or not, whose text is the message the
// router formatted eagerly before the error was typed — for a flow with
// a latency constraint and for one without.
func TestNoPathErrorTyped(t *testing.T) {
	for _, c := range []struct {
		name string
		flow soc.Flow
		want string
	}{
		{"unconstrained", soc.Flow{Src: 2, Dst: 5, BandwidthBps: 5e9},
			"route: no feasible path for flow 2->5 (5000 MB/s, unconstrained)"},
		{"latency-constrained", soc.Flow{Src: 2, Dst: 0, BandwidthBps: 10e6, MaxLatencyCycles: 8},
			"route: no feasible path for flow 2->0 (10 MB/s, lat<=8)"},
	} {
		spec := threeIslandSpec()
		spec.Flows = []soc.Flow{c.flow}
		err := New(build(t, spec, false), Options{}).RouteAll()
		var npe *NoPathError
		if !errors.As(fmt.Errorf("wrapped: %w", err), &npe) {
			t.Fatalf("%s: want a *NoPathError, got %v", c.name, err)
		}
		if npe.Flow != c.flow || npe.Backup != 0 {
			t.Fatalf("%s: error names flow %+v backup %d, want %+v and no backup", c.name, npe.Flow, npe.Backup, c.flow)
		}
		if got := err.Error(); got != c.want {
			t.Fatalf("%s: Error() = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestRouteFailsOnLatency(t *testing.T) {
	spec := threeIslandSpec()
	// Inter-island flow with an impossible latency bound: min possible
	// crossing is 1+2+(1+4)+2+1 = 11 cycles.
	spec.Flows = []soc.Flow{{Src: 2, Dst: 0, BandwidthBps: 10e6, MaxLatencyCycles: 8}}
	top := build(t, spec, false)
	r := New(top, Options{})
	if err := r.RouteAll(); err == nil {
		t.Fatal("impossible latency constraint satisfied?!")
	}
}

func TestLatencyFallbackPrefersShortPath(t *testing.T) {
	// Two switches in the source island chained to the destination: the
	// cheap path may be longer; a tight constraint must force the direct
	// one. Construct: sys has 2 switches; core0 on swA; mem on swB of
	// island sys... simpler to assert the blended route meets the bound.
	spec := threeIslandSpec()
	spec.Flows = []soc.Flow{{Src: 2, Dst: 0, BandwidthBps: 10e6, MaxLatencyCycles: 11}}
	top := build(t, spec, true) // mid available but too slow latency-wise
	r := New(top, Options{})
	if err := r.RouteAll(); err != nil {
		t.Fatal(err)
	}
	rt := top.Routes[0]
	if rt.Links.N != 1 {
		t.Fatalf("tight flow took %d links, want direct 1", rt.Links.N)
	}
	if got := top.ZeroLoadLatencyCycles(&rt); got != 11 {
		t.Fatalf("latency = %g", got)
	}
}

func TestMaxSwitchSizesDerived(t *testing.T) {
	spec := threeIslandSpec()
	top := build(t, spec, false)
	r := New(top, Options{})
	szs := r.maxSz
	if len(szs) != 3 {
		t.Fatalf("sizes = %v", szs)
	}
	lib := top.Lib
	for i, sz := range szs {
		if sz != lib.MaxSwitchSize(top.IslandFreqHz[i]) {
			t.Fatalf("island %d size %d not derived from clock", i, sz)
		}
	}
}

func TestAllowedDiscipline(t *testing.T) {
	spec := threeIslandSpec()
	top := build(t, spec, true)
	r := New(top, Options{})
	// switches: 0=sys 1=media 2=io 3=mid
	cases := []struct {
		u, v     topology.SwitchID
		src, dst soc.IslandID
		want     bool
	}{
		{1, 0, 1, 0, true},  // media->sys for a media->sys flow
		{1, 3, 1, 0, true},  // media->mid
		{3, 0, 1, 0, true},  // mid->sys
		{0, 3, 1, 0, false}, // backwards: dst island -> mid
		{3, 1, 1, 0, false}, // backwards: mid -> src island
		{1, 2, 1, 0, false}, // stray island io
		{2, 0, 1, 0, false}, // from stray island
		{0, 0, 0, 0, false}, // self handled elsewhere; u==v not allowed as edge
	}
	for i, c := range cases {
		if c.u == c.v {
			continue
		}
		if got := r.allowed(c.u, c.v, c.src, c.dst); got != c.want {
			t.Fatalf("case %d: allowed(%d->%d for %d->%d) = %v, want %v", i, c.u, c.v, c.src, c.dst, got, c.want)
		}
		// The router never evaluates the predicate: the subgraph's ranks
		// must encode it as arcs.
		sub := r.subgraphFor(c.src, c.dst)
		lu, lv := sub.local(c.u), sub.local(c.v)
		if arc := lu >= 0 && lv >= 0 && sub.rank[lu] <= sub.rank[lv]; arc != c.want {
			t.Fatalf("case %d: subgraph arc %d->%d for %d->%d = %v, want %v", i, c.u, c.v, c.src, c.dst, arc, c.want)
		}
	}
}

// allowed reports whether the directed candidate edge u->v may be used
// by a flow travelling from srcIsl to dstIsl. The subgraph builder
// encodes this predicate into the candidate arcs, so the routing inner
// loop never evaluates it per relaxation.
func (r *Router) allowed(u, v topology.SwitchID, srcIsl, dstIsl soc.IslandID) bool {
	return allowedIslands(r.top.Switches[u].Island, r.top.Switches[v].Island,
		srcIsl, dstIsl, r.top.NoCIsland)
}

// allowedIslands is the island-level forward discipline: a flow may
// only move S→S, S→M, S→D, M→M, M→D or D→D, which bounds latency and
// makes island shutdown safe by construction.
func allowedIslands(iu, iv, srcIsl, dstIsl, mid soc.IslandID) bool {
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

func TestUnattachedEndpoint(t *testing.T) {
	spec := threeIslandSpec()
	lib := model.Default65nm()
	top := topology.New(spec, lib)
	top.SetIslandFreq(0, 200e6)
	top.AddSwitch(0, false)
	r := New(top, Options{})
	if err := r.Route(spec.Flows[0]); err == nil {
		t.Fatal("unattached endpoint not reported")
	}
}

func TestNoNewLinks(t *testing.T) {
	spec := threeIslandSpec()
	top := build(t, spec, false)
	r := New(top, Options{NoNewLinks: true})
	// With zero pre-existing links, only same-switch flows route.
	if err := r.Route(spec.Flows[0]); err != nil { // cpu->mem same switch
		t.Fatal(err)
	}
	if err := r.Route(spec.Flows[1]); err == nil { // vid->mem needs a link
		t.Fatal("inter-switch flow routed without any links")
	}
	// Pre-open the link and it works.
	if _, err := top.AddLink(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Route(spec.Flows[1]); err != nil {
		t.Fatal(err)
	}
	if len(top.Links) != 1 {
		t.Fatal("NoNewLinks opened a link")
	}
}
