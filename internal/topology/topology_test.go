package topology

import (
	"strings"
	"testing"

	"nocvi/internal/model"
	"nocvi/internal/soc"
)

// fixtureSpec: 3 islands, island 1 (media) shutdownable, 5 cores.
func fixtureSpec() *soc.Spec {
	return &soc.Spec{
		Name: "fix",
		Cores: []soc.Core{
			{ID: 0, Name: "cpu"},
			{ID: 1, Name: "mem"},
			{ID: 2, Name: "vid"},
			{ID: 3, Name: "aud"},
			{ID: 4, Name: "usb"},
		},
		Flows: []soc.Flow{
			{Src: 0, Dst: 1, BandwidthBps: 400e6, MaxLatencyCycles: 20},
			{Src: 2, Dst: 3, BandwidthBps: 100e6},
			{Src: 4, Dst: 1, BandwidthBps: 50e6},
		},
		Islands: []soc.Island{
			{ID: 0, Name: "sys", VoltageV: 1.0},
			{ID: 1, Name: "media", VoltageV: 0.9, Shutdownable: true},
			{ID: 2, Name: "io", VoltageV: 1.0, Shutdownable: true},
		},
		IslandOf: []soc.IslandID{0, 0, 1, 1, 2},
	}
}

// buildValid constructs a fully valid topology over the fixture:
// one switch per island, cores attached locally, direct inter-island
// links for the two crossing flows.
func buildValid(t *testing.T) *Topology {
	spec := fixtureSpec()
	lib := model.Default65nm()
	top := New(spec, lib)
	for i := range spec.Islands {
		top.SetIslandFreq(soc.IslandID(i), 400e6)
	}
	s0 := top.AddSwitch(0, false)
	s1 := top.AddSwitch(1, false)
	s2 := top.AddSwitch(2, false)
	for c, sw := range map[soc.CoreID]SwitchID{0: s0, 1: s0, 2: s1, 3: s1, 4: s2} {
		if err := top.AttachCore(c, sw); err != nil {
			t.Fatalf("attach %d: %v", c, err)
		}
	}
	l20, err := top.AddLink(s2, s0)
	if err != nil {
		t.Fatal(err)
	}
	mustRoute := func(fi soc.FlowID, links ...LinkID) {
		t.Helper()
		if err := top.AddRoute(fi, links); err != nil {
			t.Fatal(err)
		}
	}
	mustRoute(0)
	mustRoute(1)
	mustRoute(2, l20)
	return top
}

func TestValidTopology(t *testing.T) {
	top := buildValid(t)
	if err := top.Validate(); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
}

func TestAttachCoreErrors(t *testing.T) {
	spec := fixtureSpec()
	top := New(spec, model.Default65nm())
	top.SetIslandFreq(0, 200e6)
	s0 := top.AddSwitch(0, false)
	if err := top.AttachCore(2, s0); err == nil {
		t.Fatal("cross-island attach accepted")
	}
	if err := top.AttachCore(0, s0); err != nil {
		t.Fatal(err)
	}
	if err := top.AttachCore(0, s0); err == nil {
		t.Fatal("double attach accepted")
	}
	ni := top.AddNoCIsland(400e6, 1.0)
	ind := top.AddSwitch(ni, true)
	if err := top.AttachCore(1, ind); err == nil {
		t.Fatal("attach to indirect switch accepted")
	}
}

func TestAddLinkSemantics(t *testing.T) {
	spec := fixtureSpec()
	top := New(spec, model.Default65nm())
	top.SetIslandFreq(0, 400e6)
	top.SetIslandFreq(1, 100e6)
	s0 := top.AddSwitch(0, false)
	s1 := top.AddSwitch(1, false)
	if _, err := top.AddLink(s0, s0); err == nil {
		t.Fatal("self link accepted")
	}
	l, err := top.AddLink(s0, s1)
	if err != nil {
		t.Fatal(err)
	}
	if !top.CrossesIslands(s0, s1) {
		t.Fatal("inter-island link not marked as crossing")
	}
	// capacity limited by the slower (100 MHz) endpoint: 4B * 100MHz
	if got := top.CapacityBps(top.Links[l].From, top.Links[l].To); got != 400e6 {
		t.Fatalf("capacity = %g, want 4e8", got)
	}
	if _, err := top.AddLink(s0, s1); err == nil {
		t.Fatal("duplicate link accepted")
	}
	// reverse direction is a distinct link
	if _, err := top.AddLink(s1, s0); err != nil {
		t.Fatalf("reverse link rejected: %v", err)
	}
	if id, ok := top.FindLink(s0, s1); !ok || id != l {
		t.Fatal("FindLink broken")
	}
}

func TestSwitchPortsAndSize(t *testing.T) {
	top := buildValid(t)
	// switch 0: cores cpu+mem (2 in, 2 out) + 1 incoming link
	in, out := top.SwitchPorts(0)
	if in != 3 || out != 2 {
		t.Fatalf("switch0 ports = %d/%d, want 3/2", in, out)
	}
	if top.SwitchSize(0) != 3 {
		t.Fatalf("switch0 size = %d", top.SwitchSize(0))
	}
	if top.SwitchSize(1) != 2 {
		t.Fatalf("switch1 size = %d", top.SwitchSize(1))
	}
}

func TestZeroLoadLatency(t *testing.T) {
	top := buildValid(t)
	// single switch route: NI link + switch + NI link = 1+2+1
	if lat := top.ZeroLoadLatencyCycles(&top.Routes[0]); lat != 4 {
		t.Fatalf("single-switch latency = %g, want 4", lat)
	}
	// two switches crossing islands: 1 + 2 + (1+4) + 2 + 1 = 11
	if lat := top.ZeroLoadLatencyCycles(&top.Routes[2]); lat != 11 {
		t.Fatalf("crossing latency = %g, want 11", lat)
	}
	mean := top.MeanZeroLoadLatency()
	if want := (4.0 + 4.0 + 11.0) / 3; mean != want {
		t.Fatalf("mean latency = %g, want %g", mean, want)
	}
}

func TestRouteValidationErrors(t *testing.T) {
	top := buildValid(t)
	bad := []struct {
		flow  soc.FlowID
		links []LinkID
	}{
		{2, nil},            // no links between two switches
		{0, []LinkID{5}},    // unknown link
		{0, []LinkID{0}},    // wrong start
		{2, []LinkID{0, 0}}, // broken chain
		{3, nil},            // unknown flow
		{-1, nil},           // unknown flow
	}
	for i, r := range bad {
		if err := top.AddRoute(r.flow, r.links); err == nil {
			t.Fatalf("bad route %d accepted", i)
		}
	}
}

func TestValidateCatchesOverload(t *testing.T) {
	top := buildValid(t)
	top.Links[0].TrafficBps = top.CapacityBps(top.Links[0].From, top.Links[0].To) * 2
	if err := top.Validate(); err == nil || !strings.Contains(err.Error(), "overloaded") {
		t.Fatalf("overload not caught: %v", err)
	}
}

func TestValidateCatchesLatencyViolation(t *testing.T) {
	top := buildValid(t)
	top.Spec.Flows[top.Routes[0].Flow].MaxLatencyCycles = 1
	if err := top.Validate(); err == nil || !strings.Contains(err.Error(), "latency") {
		t.Fatalf("latency violation not caught: %v", err)
	}
}

func TestValidateCatchesUnattachedCore(t *testing.T) {
	spec := fixtureSpec()
	top := New(spec, model.Default65nm())
	if err := top.Validate(); err == nil || !strings.Contains(err.Error(), "not attached") {
		t.Fatalf("unattached core not caught: %v", err)
	}
}

func TestValidateCatchesOversizedSwitch(t *testing.T) {
	top := buildValid(t)
	// Force switch 0's island clock beyond what a 3-port switch can meet.
	f := top.Lib.SwitchMaxFreqHz(3) + 200e6
	top.SetIslandFreq(top.Switches[0].Island, f)
	if err := top.Validate(); err == nil || !strings.Contains(err.Error(), "cannot run") {
		t.Fatalf("oversized switch not caught: %v", err)
	}
}

// TestValidateCatchesCoreOnIndirectSwitch: the mutators never attach a
// core to an indirect switch, so ValidateRouted must catch a SwitchOf
// entry set by hand to one. The routes are dropped first, or a broken
// walk would be reported before the attachment.
func TestValidateCatchesCoreOnIndirectSwitch(t *testing.T) {
	top := buildValid(t)
	top.Routes = top.Routes[:0]
	sw := top.AddSwitch(top.AddNoCIsland(400e6, 1.0), true)
	if err := top.ValidateRouted(); err != nil {
		t.Fatalf("before the edit: %v", err)
	}
	top.SwitchOf[4] = sw
	if err := top.ValidateRouted(); err == nil || !strings.Contains(err.Error(), "indirect switch 3 has cores attached") {
		t.Fatalf("a core on an indirect switch was not caught: %v", err)
	}
}

// The central property of the paper: a route between islands 0 and 2
// that detours through shutdownable island 1 must be rejected.
func TestShutdownSafetyViolation(t *testing.T) {
	spec := fixtureSpec()
	lib := model.Default65nm()
	top := New(spec, lib)
	for i := range spec.Islands {
		top.SetIslandFreq(soc.IslandID(i), 400e6)
	}
	s0 := top.AddSwitch(0, false)
	s1 := top.AddSwitch(1, false)
	s2 := top.AddSwitch(2, false)
	attach := map[soc.CoreID]SwitchID{0: s0, 1: s0, 2: s1, 3: s1, 4: s2}
	for c, sw := range attach {
		if err := top.AttachCore(c, sw); err != nil {
			t.Fatal(err)
		}
	}
	l21, _ := top.AddLink(s2, s1)
	l10, _ := top.AddLink(s1, s0)
	// flow usb(io isl 2) -> mem(sys isl 0) routed THROUGH media island 1
	if err := top.AddRoute(2, []LinkID{l21, l10}); err != nil {
		t.Fatal(err)
	}
	err := top.ValidateShutdownSafe()
	if err == nil || !strings.Contains(err.Error(), "sever") {
		t.Fatalf("unsafe route not detected: %v", err)
	}
}

// Routes that terminate in a shutdownable island are allowed to use it.
func TestShutdownSafetyAllowsEndpointIslands(t *testing.T) {
	top := buildValid(t)
	if err := top.ValidateShutdownSafe(); err != nil {
		t.Fatalf("endpoint-island usage flagged: %v", err)
	}
}

// The intermediate NoC island is never shutdownable, so routing through
// it is always safe.
func TestIntermediateIslandSafe(t *testing.T) {
	spec := fixtureSpec()
	lib := model.Default65nm()
	top := New(spec, lib)
	for i := range spec.Islands {
		top.SetIslandFreq(soc.IslandID(i), 400e6)
	}
	s0 := top.AddSwitch(0, false)
	s1 := top.AddSwitch(1, false)
	s2 := top.AddSwitch(2, false)
	ni := top.AddNoCIsland(400e6, 1.0)
	mid := top.AddSwitch(ni, true)
	for c, sw := range map[soc.CoreID]SwitchID{0: s0, 1: s0, 2: s1, 3: s1, 4: s2} {
		if err := top.AttachCore(c, sw); err != nil {
			t.Fatal(err)
		}
	}
	l2m, _ := top.AddLink(s2, mid)
	lm0, _ := top.AddLink(mid, s0)
	for fi, links := range [][]LinkID{nil, nil, {l2m, lm0}} {
		if err := top.AddRoute(soc.FlowID(fi), links); err != nil {
			t.Fatal(err)
		}
	}
	if err := top.Validate(); err != nil {
		t.Fatalf("intermediate-island design rejected: %v", err)
	}
	if !top.IslandShutdownable(1) || top.IslandShutdownable(ni) {
		t.Fatal("shutdownability flags wrong")
	}
	if top.IndirectSwitchCount() != 1 || top.TotalSwitchCount() != 4 {
		t.Fatal("switch inventory wrong")
	}
	// latency of the indirect route: 1 + 2 + (1+4) + 2 + (1+4) + 2 + 1 = 18
	if lat := top.ZeroLoadLatencyCycles(&top.Routes[2]); lat != 18 {
		t.Fatalf("indirect route latency = %g, want 18", lat)
	}
}

func TestHelpers(t *testing.T) {
	top := buildValid(t)
	if u := top.MaxLinkUtilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization = %g", u)
	}
	if top.NumIslands() != 3 {
		t.Fatal("NumIslands wrong")
	}
}

func TestAddNoCIslandOnce(t *testing.T) {
	top := New(fixtureSpec(), model.Default65nm())
	top.AddNoCIsland(100e6, 1.0)
	defer func() {
		if recover() == nil {
			t.Fatal("second AddNoCIsland did not panic")
		}
	}()
	top.AddNoCIsland(100e6, 1.0)
}

func TestValidateRouteCountMismatch(t *testing.T) {
	top := buildValid(t)
	top.Routes = top.Routes[:2]
	if err := top.Validate(); err == nil || !strings.Contains(err.Error(), "routes for") {
		t.Fatalf("route count mismatch not caught: %v", err)
	}
}

// TestValidateEachFlowRoutedOnce: as many routes as flows is not enough;
// Validate must reject a flow routed twice (which leaves another
// unrouted) and a route for a flow the spec does not have.
func TestValidateEachFlowRoutedOnce(t *testing.T) {
	top := buildValid(t)
	top.Routes[1] = top.Routes[0] // flow 0->1 twice, flow 2->3 never
	if err := top.Validate(); err == nil || !strings.Contains(err.Error(), "more than once") {
		t.Fatalf("a flow routed twice was not caught: %v", err)
	}
	top = buildValid(t)
	top.Routes[0].Flow = 3 // the spec has flows 0 to 2
	if err := top.Validate(); err == nil || !strings.Contains(err.Error(), "does not have") {
		t.Fatalf("a route for a flow outside the spec was not caught: %v", err)
	}
}

// TestValidateAllocatesNothing: Validate runs on every candidate the
// engine builds, so its checks must not allocate.
func TestValidateAllocatesNothing(t *testing.T) {
	top := buildValid(t)
	if n := testing.AllocsPerRun(10, func() {
		if err := top.Validate(); err != nil {
			panic(err)
		}
	}); n != 0 {
		t.Fatalf("Validate allocates %v times, want 0", n)
	}
}

// TestEnsureLink pins the lookup-or-add semantics: first call opens the
// link, repeats return the same ID without growing the topology, and
// self links are rejected.
func TestEnsureLink(t *testing.T) {
	spec := fixtureSpec()
	top := New(spec, model.Default65nm())
	for i := range spec.Islands {
		top.SetIslandFreq(soc.IslandID(i), 200e6)
	}
	s0 := top.AddSwitch(0, false)
	s1 := top.AddSwitch(1, false)
	l, err := top.EnsureLink(s0, s1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Links) != 1 {
		t.Fatalf("%d links after first EnsureLink", len(top.Links))
	}
	again, err := top.EnsureLink(s0, s1)
	if err != nil || again != l {
		t.Fatalf("repeat EnsureLink = %d, %v; want %d", again, err, l)
	}
	if len(top.Links) != 1 {
		t.Fatal("EnsureLink duplicated the link")
	}
	rev, err := top.EnsureLink(s1, s0)
	if err != nil || rev == l {
		t.Fatalf("reverse EnsureLink = %d, %v", rev, err)
	}
	if _, err := top.EnsureLink(s0, s0); err == nil {
		t.Fatal("self link accepted")
	}
	// AddLink still rejects an existing link.
	if _, err := top.AddLink(s0, s1); err == nil {
		t.Fatal("AddLink accepted a duplicate")
	}
}

// TestLinkIndexMatchesScan cross-checks the per-switch link chains and
// incremental port counts against brute-force scans over the exported
// slices, on a topology grown switch-by-switch and link-by-link, then
// Reset and rebuilt with fewer switches, more links and longer chains.
func TestLinkIndexMatchesScan(t *testing.T) {
	spec := fixtureSpec()
	top := New(spec, model.Default65nm())
	for i := range spec.Islands {
		top.SetIslandFreq(soc.IslandID(i), 200e6)
	}
	var sws []SwitchID
	for i := 0; i < 3; i++ {
		sws = append(sws, top.AddSwitch(soc.IslandID(i), false))
	}
	check := func() {
		t.Helper()
		for _, u := range sws {
			for _, v := range sws {
				want, found := LinkID(-1), false
				for i, l := range top.Links {
					if l.From == u && l.To == v {
						want, found = LinkID(i), true
					}
				}
				got, ok := top.FindLink(u, v)
				if ok != found || (ok && got != want) {
					t.Fatalf("FindLink(%d,%d) = %d,%v; scan says %d,%v", u, v, got, ok, want, found)
				}
			}
			in, out := 0, 0
			for _, sw := range top.SwitchOf {
				if sw == u {
					in++
					out++
				}
			}
			for _, l := range top.Links {
				if l.To == u {
					in++
				}
				if l.From == u {
					out++
				}
			}
			gi, go_ := top.SwitchPorts(u)
			if gi != in || go_ != out {
				t.Fatalf("SwitchPorts(%d) = %d,%d; scan says %d,%d", u, gi, go_, in, out)
			}
		}
	}
	check()
	top.AddLink(sws[0], sws[1])
	check()
	top.EnsureLink(sws[1], sws[2])
	check()
	top.AttachCore(0, sws[0])
	check()
	sws = append(sws, top.AddSwitch(0, false)) // grow after links exist
	top.AddLink(sws[3], sws[0])
	check()

	top.Reset()
	sws = sws[:0]
	check()
	for _, isl := range []soc.IslandID{2, 0, 1} {
		sws = append(sws, top.AddSwitch(isl, false))
	}
	check()
	for _, e := range [][2]int{{0, 1}, {0, 2}, {2, 0}, {1, 0}, {2, 1}} {
		if _, err := top.AddLink(sws[e[0]], sws[e[1]]); err != nil {
			t.Fatal(err)
		}
		check()
	}
	if _, err := top.AddLink(sws[0], sws[2]); err == nil {
		t.Fatal("AddLink accepted a duplicate after Reset")
	}
	if err := top.AttachCore(4, sws[0]); err != nil {
		t.Fatal(err)
	}
	check()
}
