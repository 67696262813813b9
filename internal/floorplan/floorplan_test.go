package floorplan

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/topology"
)

// buildTop returns a routed 3-island topology with a mid switch.
func buildTop(t *testing.T) *topology.Topology {
	t.Helper()
	spec := &soc.Spec{
		Name: "fp",
		Cores: []soc.Core{
			{ID: 0, Name: "cpu", AreaMM2: 4}, {ID: 1, Name: "mem", AreaMM2: 6},
			{ID: 2, Name: "vid", AreaMM2: 3}, {ID: 3, Name: "aud", AreaMM2: 1},
			{ID: 4, Name: "usb", AreaMM2: 0.5}, {ID: 5, Name: "eth", AreaMM2: 0.5},
		},
		Flows: []soc.Flow{
			{Src: 0, Dst: 1, BandwidthBps: 100e6},
			{Src: 2, Dst: 1, BandwidthBps: 100e6},
		},
		Islands: []soc.Island{
			{ID: 0, Name: "sys", VoltageV: 1},
			{ID: 1, Name: "media", VoltageV: 0.9, Shutdownable: true},
			{ID: 2, Name: "io", VoltageV: 1, Shutdownable: true},
		},
		IslandOf: []soc.IslandID{0, 0, 1, 1, 2, 2},
	}
	lib := model.Default65nm()
	top := topology.New(spec, lib)
	for i := range spec.Islands {
		top.SetIslandFreq(soc.IslandID(i), 200e6)
	}
	s0 := top.AddSwitch(0, false)
	s1 := top.AddSwitch(1, false)
	s2 := top.AddSwitch(2, false)
	ni := top.AddNoCIsland(200e6, 1.0)
	mid := top.AddSwitch(ni, true)
	for c, sw := range map[soc.CoreID]topology.SwitchID{0: s0, 1: s0, 2: s1, 3: s1, 4: s2, 5: s2} {
		if err := top.AttachCore(c, sw); err != nil {
			t.Fatal(err)
		}
	}
	l1m, _ := top.AddLink(s1, mid)
	lm0, _ := top.AddLink(mid, s0)
	if err := top.AddRoute(topology.Route{Flow: spec.Flows[0]}); err != nil {
		t.Fatal(err)
	}
	if err := top.AddRoute(topology.Route{Flow: spec.Flows[1], Links: []topology.LinkID{l1m, lm0}}); err != nil {
		t.Fatal(err)
	}
	return top
}

func TestPlaceBasics(t *testing.T) {
	top := buildTop(t)
	p, err := Place(top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Die.W <= 0 || math.Abs(p.Die.W-p.Die.H) > 1e-9 {
		t.Fatalf("die = %+v", p.Die)
	}
	// Die area covers at least the padded core area.
	minArea := top.Spec.TotalCoreAreaMM2()
	if p.Die.Area() < minArea {
		t.Fatalf("die area %.2f below core area %.2f", p.Die.Area(), minArea)
	}
	// Every core inside its island's region.
	for c, isl := range top.Spec.IslandOf {
		if !p.IslandRects[isl].Contains(p.CorePos[c]) {
			t.Fatalf("core %d outside island %d region", c, isl)
		}
	}
	// Every switch inside its island's region.
	for i, s := range top.Switches {
		if !p.IslandRects[s.Island].Contains(p.SwitchPos[i]) {
			t.Fatalf("switch %d outside island %d", i, s.Island)
		}
	}
	// Regions disjoint.
	if ov := p.Overlap(); ov > 1e-6 {
		t.Fatalf("island regions overlap by %g mm^2", ov)
	}
	// Regions inside die.
	for i, r := range p.IslandRects {
		if r.X < -1e-9 || r.Y < -1e-9 || r.X+r.W > p.Die.W+1e-6 || r.Y+r.H > p.Die.H+1e-6 {
			t.Fatalf("island %d region %+v outside die %+v", i, r, p.Die)
		}
	}
}

func TestPlaceAnnotatesLinkLengths(t *testing.T) {
	top := buildTop(t)
	p, err := Place(top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range top.Links {
		if l.LengthMM != p.LinkLengthMM[i] {
			t.Fatalf("link %d not annotated", i)
		}
		want := Manhattan(p.SwitchPos[l.From], p.SwitchPos[l.To])
		if math.Abs(l.LengthMM-want) > 1e-9 {
			t.Fatalf("link %d length %g, want %g", i, l.LengthMM, want)
		}
	}
	top2 := buildTop(t)
	if _, err := Place(top2, Options{SkipAnnotate: true}); err != nil {
		t.Fatal(err)
	}
	for _, l := range top2.Links {
		if l.LengthMM != 0 {
			t.Fatal("SkipAnnotate wrote lengths anyway")
		}
	}
}

func TestNILengths(t *testing.T) {
	top := buildTop(t)
	p, err := Place(top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for c := range top.Spec.Cores {
		want := Manhattan(p.CorePos[c], p.SwitchPos[top.SwitchOf[c]])
		if math.Abs(p.NILengthMM[c]-want) > 1e-9 {
			t.Fatalf("NI length of core %d wrong", c)
		}
		// NI stub cannot exceed the island region diameter (core and
		// switch share an island).
		r := p.IslandRects[top.Spec.IslandOf[c]]
		if p.NILengthMM[c] > r.W+r.H+1e-9 {
			t.Fatalf("NI stub of core %d spans %g, island only %gx%g", c, p.NILengthMM[c], r.W, r.H)
		}
	}
	if p.TotalWireLengthMM() <= 0 {
		t.Fatal("total wire length must be positive")
	}
}

func TestPlaceDeterministic(t *testing.T) {
	a, err := Place(buildTop(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Place(buildTop(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.CorePos {
		if a.CorePos[i] != b.CorePos[i] {
			t.Fatalf("core %d placement differs between runs", i)
		}
	}
	for i := range a.SwitchPos {
		if a.SwitchPos[i] != b.SwitchPos[i] {
			t.Fatalf("switch %d placement differs", i)
		}
	}
}

func TestPlaceRequiresAttachment(t *testing.T) {
	spec := &soc.Spec{
		Name:     "un",
		Cores:    []soc.Core{{ID: 0, Name: "a", AreaMM2: 1}},
		Islands:  []soc.Island{{ID: 0, Name: "i", VoltageV: 1}},
		IslandOf: []soc.IslandID{0},
	}
	top := topology.New(spec, model.Default65nm())
	if _, err := Place(top, Options{}); err == nil {
		t.Fatal("unattached core placed")
	}
}

func TestWireDelayViolations(t *testing.T) {
	top := buildTop(t)
	p, err := Place(top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// At 200 MHz the single-cycle budget is 1e9/200e6/0.125 = 40 mm —
	// far beyond this small die: no violations.
	if v := WireDelayViolations(top, p); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
	// Crank the clock so the budget shrinks below the link span.
	for i := range top.IslandFreqHz {
		top.SetIslandFreq(soc.IslandID(i), 10e9)
	}
	if v := WireDelayViolations(top, p); len(v) != len(top.Links) {
		t.Fatalf("violations at 10 GHz = %d, want all %d", len(v), len(top.Links))
	}
}

func TestRectHelpers(t *testing.T) {
	r := Rect{X: 1, Y: 2, W: 4, H: 6}
	if c := r.Center(); c.X != 3 || c.Y != 5 {
		t.Fatalf("center = %+v", c)
	}
	if r.Area() != 24 {
		t.Fatal("area wrong")
	}
	if !r.Contains(Point{1, 2}) || r.Contains(Point{0, 0}) {
		t.Fatal("contains wrong")
	}
	if Manhattan(Point{0, 0}, Point{3, 4}) != 7 {
		t.Fatal("manhattan wrong")
	}
	if rectOverlap(Rect{0, 0, 2, 2}, Rect{1, 1, 2, 2}) != 1 {
		t.Fatal("overlap wrong")
	}
	if rectOverlap(Rect{0, 0, 1, 1}, Rect{2, 2, 1, 1}) != 0 {
		t.Fatal("disjoint overlap wrong")
	}
}

// Property: slicing any number of islands with arbitrary areas tiles the
// die exactly — region areas sum to the die and never overlap.
func TestSlicingTilesDie(t *testing.T) {
	f := func(raw []uint8) bool {
		n := len(raw)
		if n == 0 || n > 12 {
			return true
		}
		areas := make([]float64, n)
		var total float64
		for i, r := range raw {
			areas[i] = float64(r%50) + 1
			total += areas[i]
		}
		die := Rect{0, 0, math.Sqrt(total), math.Sqrt(total)}
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		out := make([]Rect, n)
		sliceRegions(die, ids, areas, out, make([]int, n))
		var sum float64
		for _, r := range out {
			if r.W < 0 || r.H < 0 {
				return false
			}
			sum += r.Area()
		}
		if math.Abs(sum-die.Area()) > 1e-6 {
			return false
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rectOverlap(out[i], out[j]) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceOptimizedNeverWorse(t *testing.T) {
	top := buildTop(t)
	base, err := Place(top, Options{SkipAnnotate: true})
	if err != nil {
		t.Fatal(err)
	}
	baseCost := WeightedWireCost(top, base)
	opt, err := PlaceOptimized(top, Options{SkipAnnotate: true}, 150)
	if err != nil {
		t.Fatal(err)
	}
	optCost := WeightedWireCost(top, opt)
	if optCost > baseCost*(1+1e-9) {
		t.Fatalf("annealer made it worse: %.3g > %.3g", optCost, baseCost)
	}
	// Result is still a legal floorplan.
	if opt.Overlap() > 1e-6 {
		t.Fatal("optimized regions overlap")
	}
	for c, isl := range top.Spec.IslandOf {
		if !opt.IslandRects[isl].Contains(opt.CorePos[c]) {
			t.Fatalf("core %d escaped its island", c)
		}
	}
}

func TestPlaceOptimizedDeterministic(t *testing.T) {
	a, err := PlaceOptimized(buildTop(t), Options{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlaceOptimized(buildTop(t), Options{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.IslandRects {
		if a.IslandRects[i] != b.IslandRects[i] {
			t.Fatalf("island %d rect differs between runs", i)
		}
	}
}

func TestPlaceOptimizedAnnotates(t *testing.T) {
	top := buildTop(t)
	p, err := PlaceOptimized(top, Options{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range top.Links {
		if l.LengthMM != p.LinkLengthMM[i] {
			t.Fatalf("link %d not annotated with winning placement", i)
		}
	}
}

func TestPlaceWithBadOrder(t *testing.T) {
	top := buildTop(t)
	if _, err := placeWithOrder(top, Options{}, []int{0}, nil); err == nil {
		t.Fatal("short order accepted")
	}
}

func TestWeightedWireCostWeighsTraffic(t *testing.T) {
	top := buildTop(t)
	p, err := Place(top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := WeightedWireCost(top, p)
	// Inflating one link's traffic must raise the cost.
	top.Links[0].TrafficBps *= 100
	if WeightedWireCost(top, p) <= base {
		t.Fatal("cost insensitive to traffic weight")
	}
}

// TestPlacementCloneOwnsStorage: PlaceWith refills the one placement
// its scratch holds, and Clone copies it out at exact size. A clone
// taken before the scratch places a differently shaped topology must
// still match a fresh placement of the original.
func TestPlacementCloneOwnsStorage(t *testing.T) {
	top := buildTop(t)
	want, err := Place(top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sc Scratch
	p, err := PlaceWith(top, Options{}, &sc)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("clone differs from a fresh placement:\n%+v\nvs\n%+v", c, want)
	}
	for name, lc := range map[string][2]int{
		"IslandRects":  {len(c.IslandRects), cap(c.IslandRects)},
		"CorePos":      {len(c.CorePos), cap(c.CorePos)},
		"SwitchPos":    {len(c.SwitchPos), cap(c.SwitchPos)},
		"NILengthMM":   {len(c.NILengthMM), cap(c.NILengthMM)},
		"LinkLengthMM": {len(c.LinkLengthMM), cap(c.LinkLengthMM)},
	} {
		if lc[0] != lc[1] {
			t.Errorf("clone %s: len %d, cap %d", name, lc[0], lc[1])
		}
	}

	// A second topology with one more switch and link, placed through
	// the same scratch, refills the same placement.
	other := buildTop(t)
	s := other.AddSwitch(0, false)
	if _, err := other.AddLink(s, 0); err != nil {
		t.Fatal(err)
	}
	q, err := PlaceWith(other, Options{}, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Fatal("PlaceWith returned a placement other than its scratch's")
	}
	if len(q.SwitchPos) != len(other.Switches) || len(q.LinkLengthMM) != len(other.Links) {
		t.Fatalf("refilled placement sized %d/%d for %d switches, %d links",
			len(q.SwitchPos), len(q.LinkLengthMM), len(other.Switches), len(other.Links))
	}
	if !reflect.DeepEqual(c, want) {
		t.Fatal("clone changed when its source scratch placed another topology")
	}
}
