package deadlock_test

import (
	"strings"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/deadlock"
	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/topology"
	"nocvi/internal/viplace"
)

// ringTopology builds the classic 4-switch ring where every flow turns
// one hop clockwise — the textbook wormhole deadlock.
func ringTopology(t *testing.T) *topology.Topology {
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
	// clockwise ring links 0->1->2->3->0
	links := make([]topology.LinkID, 4)
	for i := 0; i < 4; i++ {
		var err error
		links[i], err = top.AddLink(sw[i], sw[(i+1)%4])
		if err != nil {
			t.Fatal(err)
		}
	}
	// each flow goes two hops clockwise, using consecutive links
	for i, f := range spec.Flows {
		r := topology.Route{
			Flow:  f,
			Links: []topology.LinkID{links[i], links[(i+1)%4]},
		}
		if err := top.AddRoute(r); err != nil {
			t.Fatal(err)
		}
	}
	return top
}

func TestRingDeadlockDetected(t *testing.T) {
	top := ringTopology(t)
	rep := deadlock.Analyze(top)
	if rep.Free() {
		t.Fatal("textbook ring deadlock not detected")
	}
	if rep.Channels != 4 || rep.Dependencies != 4 {
		t.Fatalf("CDG stats wrong: %+v", rep)
	}
	if len(rep.Cycle) < 3 || rep.Cycle[0] != rep.Cycle[len(rep.Cycle)-1] {
		t.Fatalf("bad witness: %v", rep.Cycle)
	}
	if err := deadlock.Check(top); err == nil || !strings.Contains(err.Error(), "DEADLOCK") {
		t.Fatalf("Check did not fail: %v", err)
	}
	if !strings.Contains(rep.String(), "DEADLOCK RISK") {
		t.Fatal("report string wrong")
	}
}

func TestStarIsFree(t *testing.T) {
	// A hub-and-spoke design can never deadlock: routes have at most
	// two links (in, out), and dependencies never form a cycle because
	// every dependency goes spoke-in -> spoke-out.
	spec := &soc.Spec{
		Name: "star",
		Cores: []soc.Core{
			{ID: 0, Name: "a"}, {ID: 1, Name: "b"}, {ID: 2, Name: "c"},
		},
		Flows: []soc.Flow{
			{Src: 0, Dst: 1, BandwidthBps: 5e6},
			{Src: 1, Dst: 2, BandwidthBps: 5e6},
			{Src: 2, Dst: 0, BandwidthBps: 5e6},
		},
		Islands:  []soc.Island{{ID: 0, Name: "i", VoltageV: 1}},
		IslandOf: []soc.IslandID{0, 0, 0},
	}
	top := topology.New(spec, model.Default65nm())
	top.SetIslandFreq(0, 200e6)
	hub := top.AddSwitch(0, false)
	spokes := make([]topology.SwitchID, 3)
	for i := range spokes {
		spokes[i] = top.AddSwitch(0, false)
		if err := top.AttachCore(soc.CoreID(i), spokes[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range spec.Flows {
		in, _ := top.FindLink(spokes[f.Src], hub)
		if in == -1 {
			in, _ = top.AddLink(spokes[f.Src], hub)
		}
		out, ok := top.FindLink(hub, spokes[f.Dst])
		if !ok {
			out, _ = top.AddLink(hub, spokes[f.Dst])
		}
		if err := top.AddRoute(topology.Route{
			Flow:  f,
			Links: []topology.LinkID{in, out},
		}); err != nil {
			t.Fatal(err)
		}
	}
	rep := deadlock.Analyze(top)
	if !rep.Free() {
		t.Fatalf("star reported deadlock: %v", rep.Cycle)
	}
	if err := deadlock.Check(top); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "deadlock-free") {
		t.Fatal("report string wrong")
	}
}

// Every design the synthesis engine produces must be deadlock free —
// the island discipline plus min-cost routing should never build a
// cyclic CDG; this is the regression gate for that claim.
func TestSynthesizedDesignsAreDeadlockFree(t *testing.T) {
	lib := model.Default65nm()
	for _, name := range bench.Names() {
		spec, err := bench.Islanded(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Synthesize(spec, lib, core.Options{AllowIntermediate: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range res.Points {
			if err := deadlock.Check(res.Points[i].Top); err != nil {
				t.Fatalf("%s point %d: %v", name, i, err)
			}
		}
	}
}

func TestPerCoreIslandsDeadlockFree(t *testing.T) {
	lib := model.Default65nm()
	spec, err := bench.D26Islands(viplace.MethodCommunication, 26)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Synthesize(spec, lib, core.Options{AllowIntermediate: true, MaxIntermediateSwitches: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Points {
		if err := deadlock.Check(res.Points[i].Top); err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
	}
}
