package mesh

import (
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/deadlock"
	"nocvi/internal/model"
	"nocvi/internal/power"
	"nocvi/internal/soc"
	"nocvi/internal/viplace"
)

func d26(t *testing.T) *soc.Spec {
	t.Helper()
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSynthesizeMesh(t *testing.T) {
	spec := d26(t)
	res, err := Synthesize(spec, model.Default65nm(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Width*res.Height < len(spec.Cores) {
		t.Fatalf("grid %dx%d too small", res.Width, res.Height)
	}
	// Every core on a distinct tile.
	seen := map[int]bool{}
	for c, tile := range res.TileOf {
		if tile < 0 || tile >= res.Width*res.Height {
			t.Fatalf("core %d on tile %d out of grid", c, tile)
		}
		if seen[tile] {
			t.Fatalf("two cores share tile %d", tile)
		}
		seen[tile] = true
	}
	// All flows routed.
	if len(res.Top.Routes) != len(spec.Flows) {
		t.Fatalf("routed %d of %d flows", len(res.Top.Routes), len(spec.Flows))
	}
	// XY routing on a mesh is deadlock free.
	if err := deadlock.Check(res.Top); err != nil {
		t.Fatal(err)
	}
	// Every route's walk ends on its destination core's switch.
	for _, r := range res.Top.Routes {
		f := spec.Flows[r.Flow]
		if w := res.Top.Walk(nil, f, res.Top.PathLinks(r.Links)); w[len(w)-1] != res.Top.SwitchOf[f.Dst] {
			t.Fatalf("route %d->%d ends at switch %d", f.Src, f.Dst, w[len(w)-1])
		}
	}
}

// The point of the baseline: the mesh violates island-shutdown safety
// on a multi-island SoC, while custom synthesis never does.
func TestMeshViolatesShutdownSafety(t *testing.T) {
	spec := d26(t)
	res, err := Synthesize(spec, model.Default65nm(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShutdownViolations == 0 {
		t.Fatal("expected the island-oblivious mesh to route through shutdownable islands")
	}
	// And the structural validator agrees.
	if err := res.Top.ValidateShutdownSafe(); err == nil {
		t.Fatal("ValidateShutdownSafe passed a violating mesh?!")
	}
}

func TestMeshPowerComparable(t *testing.T) {
	spec := d26(t)
	res, err := Synthesize(spec, model.Default65nm(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := power.NoC(res.Top)
	if b.DynW() <= 0 {
		t.Fatal("mesh has no power")
	}
	// Same order of magnitude as the custom design (tens of mW).
	if b.DynW() > 1 || b.DynW() < 1e-3 {
		t.Fatalf("mesh power %g W implausible", b.DynW())
	}
}

func TestMeshMappingQuality(t *testing.T) {
	spec := d26(t)
	res, err := Synthesize(spec, model.Default65nm(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The heaviest-communicating pair (cpu0 <-> l2c) must be adjacent
	// after refinement.
	cpu0, _ := spec.CoreByName("cpu0")
	l2c, _ := spec.CoreByName("l2c")
	ta, tb := res.TileOf[cpu0.ID], res.TileOf[l2c.ID]
	d := abs(ta%res.Width-tb%res.Width) + abs(ta/res.Width-tb/res.Width)
	if d > 1 {
		t.Fatalf("heaviest pair %d tiles apart", d)
	}
}

func TestMeshExplicitGrid(t *testing.T) {
	spec := d26(t)
	res, err := Synthesize(spec, model.Default65nm(), Options{Width: 13, Height: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Width != 13 || res.Height != 2 {
		t.Fatal("explicit grid ignored")
	}
	if _, err := Synthesize(spec, model.Default65nm(), Options{Width: 3, Height: 3}); err == nil {
		t.Fatal("undersized grid accepted")
	}
}

func TestMeshDeterministic(t *testing.T) {
	spec := d26(t)
	a, err := Synthesize(spec, model.Default65nm(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(spec, model.Default65nm(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for c := range a.TileOf {
		if a.TileOf[c] != b.TileOf[c] {
			t.Fatalf("mapping differs at core %d", c)
		}
	}
}

func TestMeshRejectsInvalidSpec(t *testing.T) {
	spec := d26(t)
	spec.Flows[0].BandwidthBps = -5
	if _, err := Synthesize(spec, model.Default65nm(), Options{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}
