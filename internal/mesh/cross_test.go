package mesh_test

import (
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/deadlock"
	"nocvi/internal/mesh"
	"nocvi/internal/model"
	"nocvi/internal/netlist"
	"nocvi/internal/sim"
	"nocvi/internal/specgen"
	"nocvi/internal/viplace"
	"nocvi/internal/wormhole"
)

// XY routing on a mesh is deadlock free; the flit-level engine must
// drain the mesh baseline completely.
func TestMeshDrainsInWormholeEngine(t *testing.T) {
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mesh.Synthesize(spec, model.Default65nm(), mesh.Options{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := wormhole.Run(res.Top, wormhole.Config{PacketsPerFlow: 4})
	if err != nil {
		t.Fatal(err)
	}
	if w.Deadlocked || w.Delivered != w.Injected {
		t.Fatalf("XY mesh stalled: %+v", w)
	}
}

// The queueing simulator also delivers everything on the mesh (no
// shutdown mask — the mesh does not support one, which is the point).
func TestMeshDeliversInQueueSim(t *testing.T) {
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mesh.Synthesize(spec, model.Default65nm(), mesh.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Run(res.Top, sim.Config{DurationNs: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if r.Deliver != r.Sent || r.Sent == 0 {
		t.Fatalf("mesh delivery %d/%d", r.Deliver, r.Sent)
	}
}

// Property sweep: the mesh mapper + XY router handle arbitrary valid
// SoCs — every flow routed, CDG acyclic, netlist generable.
func TestMeshRandomSpecs(t *testing.T) {
	lib := model.Default65nm()
	built := 0
	for seed := int64(300); seed < 330; seed++ {
		spec := specgen.Random(seed, specgen.Options{MaxCores: 14, MaxFlowMBps: 120})
		res, err := mesh.Synthesize(spec, lib, mesh.Options{})
		if err != nil {
			continue // e.g. clock beyond a 6-port router: legitimate
		}
		built++
		if len(res.Top.Routes) != len(spec.Flows) {
			t.Fatalf("seed %d: %d routes for %d flows", seed, len(res.Top.Routes), len(spec.Flows))
		}
		if err := deadlock.Check(res.Top); err != nil {
			t.Fatalf("seed %d: XY mesh claims deadlock: %v", seed, err)
		}
		if _, err := netlist.Generate(res.Top, netlist.Config{}); err != nil {
			t.Fatalf("seed %d: netlist: %v", seed, err)
		}
	}
	if built < 20 {
		t.Fatalf("only %d/30 random meshes built", built)
	}
}
