package wormhole

import (
	"errors"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/deadlock"
	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/specgen"
	"nocvi/internal/topology"
	"nocvi/internal/viplace"
)

// ring builds the textbook 4-switch cyclic-dependency topology (each
// flow travels two hops clockwise).
func ring(t *testing.T) *topology.Topology {
	t.Helper()
	spec := &soc.Spec{
		Name: "ring",
		Cores: []soc.Core{
			{ID: 0, Name: "a"}, {ID: 1, Name: "b"},
			{ID: 2, Name: "c"}, {ID: 3, Name: "d"},
		},
		Flows: []soc.Flow{
			{Src: 0, Dst: 2, BandwidthBps: 10e6},
			{Src: 1, Dst: 3, BandwidthBps: 10e6},
			{Src: 2, Dst: 0, BandwidthBps: 10e6},
			{Src: 3, Dst: 1, BandwidthBps: 10e6},
		},
		Islands:  []soc.Island{{ID: 0, Name: "i", VoltageV: 1}},
		IslandOf: []soc.IslandID{0, 0, 0, 0},
	}
	top := topology.New(spec, model.Default65nm())
	top.SetIslandFreq(0, 200e6)
	sw := make([]topology.SwitchID, 4)
	for i := range sw {
		sw[i] = top.AddSwitch(0, false)
	}
	for c := range spec.Cores {
		if err := top.AttachCore(soc.CoreID(c), sw[c]); err != nil {
			t.Fatal(err)
		}
	}
	links := make([]topology.LinkID, 4)
	for i := 0; i < 4; i++ {
		links[i], _ = top.AddLink(sw[i], sw[(i+1)%4])
	}
	for i := range spec.Flows {
		if err := top.AddRoute(soc.FlowID(i), []topology.LinkID{links[i], links[(i+1)%4]}); err != nil {
			t.Fatal(err)
		}
	}
	return top
}

// synthD26 returns a synthesized (hence CDG-acyclic) design.
func synthD26(t *testing.T) *topology.Topology {
	t.Helper()
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Synthesize(spec, model.Default65nm(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Best().Top
}

// The CDG-cyclic ring must actually deadlock in the flit-level engine:
// long packets over short buffers interlock the four flows. This is the
// dynamic confirmation that the static analysis guards something real.
func TestRingDeadlocksForReal(t *testing.T) {
	top := ring(t)
	if deadlock.Analyze(top).Free() {
		t.Fatal("precondition: ring must be CDG-cyclic")
	}
	res, err := Run(top, Config{
		BufferFlits:        2,
		PacketsPerFlow:     4,
		InjectionGapCycles: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatalf("cyclic topology drained cleanly: %+v", res)
	}
	if res.Delivered >= res.Injected {
		t.Fatal("deadlocked run delivered everything?!")
	}
}

// Every synthesized design must drain completely — the deadlock gate in
// the engine guarantees an acyclic CDG, and the wormhole mechanics must
// honour that.
func TestSynthesizedDesignDrains(t *testing.T) {
	top := synthD26(t)
	res, err := Run(top, Config{PacketsPerFlow: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatalf("synthesized design deadlocked after %d cycles", res.Cycles)
	}
	want := len(top.Routes) * 6
	if res.Injected != want || res.Delivered != want {
		t.Fatalf("injected %d delivered %d, want %d", res.Injected, res.Delivered, want)
	}
	if res.PeakBufferFlits > 4 {
		t.Fatalf("buffer occupancy %d exceeded capacity", res.PeakBufferFlits)
	}
	if res.MeanLatencyCycles <= 0 || res.MaxLatencyCycles < int(res.MeanLatencyCycles) {
		t.Fatalf("latency stats broken: %+v", res)
	}
}

// Packet latency can never undercut the zero-load pipeline depth plus
// serialization.
func TestLatencyLowerBound(t *testing.T) {
	top := synthD26(t)
	res, err := Run(top, Config{PacketsPerFlow: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Cheapest possible packet: 1 switch route. Head pipeline >= inject
	// + switch + eject, tail adds packetFlits-1 cycles of serialization.
	min := float64(packetFlits - 1)
	if res.MeanLatencyCycles < min {
		t.Fatalf("mean latency %.1f below serialization bound %v", res.MeanLatencyCycles, min)
	}
}

func TestDeterministic(t *testing.T) {
	top := synthD26(t)
	a, err := Run(top, Config{PacketsPerFlow: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(top, Config{PacketsPerFlow: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.MeanLatencyCycles != b.MeanLatencyCycles ||
		a.PeakBufferFlits != b.PeakBufferFlits {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestSmallBuffersStillDrain(t *testing.T) {
	// Acyclic CDG must drain even with 1-flit buffers (pure handshake).
	top := synthD26(t)
	res, err := Run(top, Config{BufferFlits: 1, PacketsPerFlow: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked || res.Delivered != res.Injected {
		t.Fatalf("1-flit buffers broke an acyclic design: %+v", res)
	}
	if res.PeakBufferFlits > 1 {
		t.Fatal("credit protocol exceeded buffer capacity")
	}
}

func TestMoreLoadMoreLatency(t *testing.T) {
	top := synthD26(t)
	light, err := Run(top, Config{PacketsPerFlow: 1, InjectionGapCycles: 1000})
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := Run(top, Config{PacketsPerFlow: 8, InjectionGapCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	if heavy.MeanLatencyCycles < light.MeanLatencyCycles {
		t.Fatalf("contention lowered latency: %.1f vs %.1f",
			heavy.MeanLatencyCycles, light.MeanLatencyCycles)
	}
}

func TestRunRequiresRoutes(t *testing.T) {
	spec := bench.Example()
	top := topology.New(spec, model.Default65nm())
	if _, err := Run(top, Config{}); err == nil {
		t.Fatal("unrouted topology accepted")
	}
}

// Bigger buffers do not rescue a cyclic channel dependency graph: even
// with virtual-cut-through sized buffers (a whole packet per buffer)
// the ring's four packets fill the four middle buffers and each waits
// for space held by the next — a buffer-level circular wait. Deadlock
// freedom comes from the routing structure (acyclic CDG), not from
// buffer sizing, which is why the synthesis flow verifies the CDG.
func TestRingDeadlocksEvenWithCutThroughBuffers(t *testing.T) {
	res, err := Run(ring(t), Config{
		BufferFlits:        packetFlits, // whole packet fits per buffer
		PacketsPerFlow:     1,
		InjectionGapCycles: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatalf("buffer-cycle deadlock expected: %+v", res)
	}
	if res.Delivered != 0 {
		t.Fatalf("the symmetric ring should gridlock completely, delivered %d", res.Delivered)
	}
}

// A lone packet pins the engine to the analytic zero-load model flow by
// flow. ZeroLoadLatencyCycles counts the NI injection and ejection
// links, two cycles per switch and every inter-switch link with its
// converter penalty. Here a switch traversal costs no cycle and the NI
// injection link is not modelled (the head enters the switch buffer on
// its first cycle), while the tail arrives packetFlits-1 cycles behind
// the head. So with buffers that hold a whole packet the latency is
// exactly ZeroLoadLatencyCycles - 2*switches - 2 + packetFlits, on
// every route of every suite winner and of generated designs. Buffers
// shorter than a packet are slower on some routes: over a 5-cycle
// island-crossing link the credit round trip outlasts the buffer, so
// the tail is throttled (the default 4-flit buffers lose cycles on 191
// of the suite's 378 routes and on 321 of the generated designs' 606).
func TestLonePacketMatchesAnalytic(t *testing.T) {
	var tops []*topology.Topology
	for _, top := range suiteWinners(t) {
		tops = append(tops, top)
	}
	lib := model.Default65nm()
	for seed := int64(1); seed <= 40; seed++ {
		spec := specgen.Random(seed, specgen.Options{MaxCores: 14, MaxIslands: 4})
		res, err := core.Synthesize(spec, lib, core.Options{})
		if errors.Is(err, core.ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tops = append(tops, res.Best().Top)
	}
	routes := 0
	for _, top := range tops {
		for ri := range top.Routes {
			r := &top.Routes[ri]
			lone := *top
			lone.Routes = top.Routes[ri : ri+1]
			res, err := Run(&lone, Config{BufferFlits: packetFlits, PacketsPerFlow: 1})
			if err != nil {
				t.Fatalf("%s route %d: %v", top.Spec.Name, ri, err)
			}
			switches := int(r.Links.N) + 1
			f := top.Spec.Flows[r.Flow]
			want := top.ZeroLoadLatencyCycles(r) - float64(2*switches) - 2 + packetFlits
			if res.Delivered != 1 || res.MeanLatencyCycles != want {
				t.Fatalf("%s route %d (%d->%d, %d switches): delivered %d, latency %v cycles, want %v",
					top.Spec.Name, ri, f.Src, f.Dst, switches,
					res.Delivered, res.MeanLatencyCycles, want)
			}
			routes++
		}
	}
	t.Logf("%d designs, %d routes", len(tops), routes)
}

// A route naming a link the topology does not have is an error, not an
// index panic.
func TestRunRejectsUnknownLink(t *testing.T) {
	for _, lid := range []topology.LinkID{4, 99, -1} {
		top := ring(t)
		top.PathLinks(top.Routes[1].Links)[0] = lid
		if _, err := Run(top, Config{}); err == nil {
			t.Fatalf("route over link %d accepted", lid)
		}
	}
}
