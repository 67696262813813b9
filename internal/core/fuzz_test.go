package core

import (
	"testing"

	"nocvi/internal/deadlock"
	"nocvi/internal/floorplan"
	"nocvi/internal/model"
	"nocvi/internal/power"
	"nocvi/internal/specgen"
	"nocvi/internal/viplace"
	"nocvi/internal/wormhole"
)

// TestSynthesizeRandomSpecs is the end-to-end property test: for many
// randomized SoCs, every design point the engine emits must satisfy all
// structural invariants — shutdown safety, capacity, latency, switch
// sizing, deadlock freedom, placement containment — and the best point
// must stay shutdown-safe with every shut-downable island gated at once.
func TestSynthesizeRandomSpecs(t *testing.T) {
	lib := model.Default65nm()
	synthesized := 0
	for seed := int64(0); seed < 60; seed++ {
		spec := specgen.Random(seed, specgen.Options{})
		res, err := Synthesize(spec, lib, Options{
			AllowIntermediate:       seed%2 == 0,
			MaxIntermediateSwitches: 2,
		})
		if err != nil {
			// A random spec may legitimately be unroutable (e.g. one
			// core's aggregate bandwidth saturating every candidate
			// link); what must never happen is a *panic* or an invalid
			// point, both checked below.
			continue
		}
		synthesized++
		for i := range res.Points {
			dp := &res.Points[i]
			if err := dp.Top.Validate(); err != nil {
				t.Fatalf("seed %d point %d: %v", seed, i, err)
			}
			if err := deadlock.Check(dp.Top); err != nil {
				t.Fatalf("seed %d point %d: %v", seed, i, err)
			}
			if dp.NoCPower.DynW() <= 0 || dp.NoCAreaMM2 <= 0 {
				t.Fatalf("seed %d point %d: non-positive costs", seed, i)
			}
			pl := dp.Placement
			for c := range spec.Cores {
				if !pl.IslandRects[spec.IslandOf[c]].Contains(pl.CorePos[c]) {
					t.Fatalf("seed %d point %d: core %d escaped its island region", seed, i, c)
				}
			}
			if pl.Overlap() > 1e-6 {
				t.Fatalf("seed %d point %d: island regions overlap", seed, i)
			}
		}
		top := res.Best().Top
		mask := make([]bool, len(spec.Islands))
		any := false
		for j, isl := range spec.Islands {
			if isl.Shutdownable {
				mask[j] = true
				any = true
			}
		}
		// The flit-level wormhole engine must drain every synthesized
		// design (finite buffers, credit backpressure) — the dynamic
		// proof behind the CDG acyclicity gate.
		if seed%5 == 0 {
			wres, err := wormhole.Run(top, wormhole.Config{PacketsPerFlow: 2})
			if err != nil {
				t.Fatalf("seed %d wormhole: %v", seed, err)
			}
			if wres.Deadlocked || wres.Delivered != wres.Injected {
				t.Fatalf("seed %d wormhole stalled: %+v", seed, wres)
			}
		}
		if any {
			if err := top.ValidateShutdownSafeMask(mask); err != nil {
				t.Fatalf("seed %d gated: %v", seed, err)
			}
			on := power.SystemPower(top).TotalW()
			off := power.SystemWithShutdown(top, mask).TotalW()
			if off >= on {
				t.Fatalf("seed %d: gating saved nothing (%g -> %g)", seed, on, off)
			}
		}
	}
	if synthesized < 40 {
		t.Fatalf("only %d/60 random specs synthesized — generator or engine too fragile", synthesized)
	}
}

// TestRepartitionRandomSpecs drives the island partitioners over random
// specs and re-synthesizes: partition outputs must always be valid
// inputs to the engine.
func TestRepartitionRandomSpecs(t *testing.T) {
	lib := model.Default65nm()
	ok := 0
	for seed := int64(100); seed < 130; seed++ {
		spec := specgen.Random(seed, specgen.Options{MaxCores: 12})
		for _, m := range []viplace.Method{viplace.MethodLogical, viplace.MethodCommunication} {
			n := 2 + int(seed)%3
			if n > len(spec.Cores) {
				n = len(spec.Cores)
			}
			re, err := viplace.Partition(spec, m, n)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, m, err)
			}
			if res, err := Synthesize(re, lib, Options{}); err == nil {
				ok++
				if err := res.Best().Top.Validate(); err != nil {
					t.Fatalf("seed %d %s: %v", seed, m, err)
				}
			}
		}
	}
	if ok < 30 {
		t.Fatalf("only %d/60 repartitioned specs synthesized", ok)
	}
}

// TestFloorplanRandomSpecs checks the wire annotations the floorplanner
// writes back are consistent on random designs.
func TestFloorplanRandomSpecs(t *testing.T) {
	lib := model.Default65nm()
	for seed := int64(200); seed < 220; seed++ {
		spec := specgen.Random(seed, specgen.Options{MaxCores: 10})
		res, err := Synthesize(spec, lib, Options{})
		if err != nil {
			continue
		}
		top := res.Best().Top
		pl, err := floorplan.Place(top, floorplan.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, l := range top.Links {
			if l.LengthMM != pl.LinkLengthMM[i] {
				t.Fatalf("seed %d: link %d annotation mismatch", seed, i)
			}
			if l.LengthMM < 0 || l.LengthMM > pl.Die.W+pl.Die.H {
				t.Fatalf("seed %d: link %d length %g outside die", seed, i, l.LengthMM)
			}
		}
	}
}
