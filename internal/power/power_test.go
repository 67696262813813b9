package power

import (
	"math"
	"testing"

	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/topology"
)

// fixture: 2 islands + traffic within island 0 and across 1->0.
// Island 1 is shutdownable.
func fixture(t *testing.T) *topology.Topology {
	t.Helper()
	spec := &soc.Spec{
		Name: "pw",
		Cores: []soc.Core{
			{ID: 0, Name: "cpu", DynPowerW: 0.50, LeakPowerW: 0.10, AreaMM2: 4},
			{ID: 1, Name: "mem", DynPowerW: 0.20, LeakPowerW: 0.05, AreaMM2: 6},
			{ID: 2, Name: "vid", DynPowerW: 0.30, LeakPowerW: 0.15, AreaMM2: 5},
		},
		Flows: []soc.Flow{
			{Src: 0, Dst: 1, BandwidthBps: 400e6},
			{Src: 2, Dst: 1, BandwidthBps: 200e6},
		},
		Islands: []soc.Island{
			{ID: 0, Name: "sys", VoltageV: 1.0},
			{ID: 1, Name: "media", VoltageV: 1.0, Shutdownable: true},
		},
		IslandOf: []soc.IslandID{0, 0, 1},
	}
	top := topology.New(spec, model.Default65nm())
	top.SetIslandFreq(0, 200e6)
	top.SetIslandFreq(1, 200e6)
	s0 := top.AddSwitch(0, false)
	s1 := top.AddSwitch(1, false)
	for c, sw := range map[soc.CoreID]topology.SwitchID{0: s0, 1: s0, 2: s1} {
		if err := top.AttachCore(c, sw); err != nil {
			t.Fatal(err)
		}
	}
	l, _ := top.AddLink(s1, s0)
	top.Links[l].LengthMM = 3
	if err := top.AddRoute(topology.Route{Flow: spec.Flows[0]}); err != nil {
		t.Fatal(err)
	}
	if err := top.AddRoute(topology.Route{Flow: spec.Flows[1], Links: []topology.LinkID{l}}); err != nil {
		t.Fatal(err)
	}
	return top
}

func TestNoCBreakdownPositive(t *testing.T) {
	top := fixture(t)
	b := NoC(top)
	if b.SwitchDynW <= 0 || b.SwitchLeakW <= 0 || b.LinkDynW <= 0 ||
		b.LinkLeakW <= 0 || b.NIDynW <= 0 || b.NILeakW <= 0 ||
		b.FIFODynW <= 0 || b.FIFOLeakW <= 0 {
		t.Fatalf("all components must be positive: %+v", b)
	}
	if math.Abs(b.DynW()-(b.SwitchDynW+b.LinkDynW+b.NIDynW+b.FIFODynW)) > 1e-15 {
		t.Fatal("DynW inconsistent")
	}
	if b.TotalW() != b.DynW()+b.LeakW() {
		t.Fatal("TotalW inconsistent")
	}
	// NoC of a small SoC is milliwatts, not watts.
	if b.TotalW() > 0.2 || b.TotalW() < 1e-5 {
		t.Fatalf("implausible NoC power %g W", b.TotalW())
	}
}

func TestSwitchDynMatchesLibrary(t *testing.T) {
	top := fixture(t)
	b := NoC(top)
	lib := top.Lib
	// switch0: size max(2 cores+1 link in, 2 out)=3, traffic 600e6;
	// switch1: size max(1,1+1 out)=2, traffic 200e6.
	want := lib.SwitchDynPowerW(3, 200e6, 1.0, 600e6) + lib.SwitchDynPowerW(2, 200e6, 1.0, 200e6)
	if math.Abs(b.SwitchDynW-want) > 1e-12 {
		t.Fatalf("switch dyn = %g, want %g", b.SwitchDynW, want)
	}
	wantLink := lib.LinkDynPowerW(3, 1.0, 200e6)
	if math.Abs(b.LinkDynW-wantLink) > 1e-12 {
		t.Fatalf("link dyn = %g, want %g", b.LinkDynW, wantLink)
	}
}

func TestDefaultLinkLength(t *testing.T) {
	top := fixture(t)
	top.Links[0].LengthMM = 0 // not floorplanned
	b := NoC(top)
	lib := top.Lib
	want := lib.LinkDynPowerW(DefaultLinkLengthMM, 1.0, 200e6)
	if math.Abs(b.LinkDynW-want) > 1e-12 {
		t.Fatalf("default length not applied: %g", b.LinkDynW)
	}
}

func TestSystemPower(t *testing.T) {
	top := fixture(t)
	s := SystemPower(top)
	if math.Abs(s.CoreDynW-1.0) > 1e-12 || math.Abs(s.CoreLeakW-0.30) > 1e-12 {
		t.Fatalf("core power = %g/%g", s.CoreDynW, s.CoreLeakW)
	}
	if s.TotalW() <= s.CoreDynW+s.CoreLeakW {
		t.Fatal("system total must include the NoC")
	}
}

func TestShutdownRemovesIslandPower(t *testing.T) {
	top := fixture(t)
	off := []bool{false, true} // gate media island
	s := SystemWithShutdown(top, off)
	// vid core gone.
	if math.Abs(s.CoreDynW-0.70) > 1e-12 || math.Abs(s.CoreLeakW-0.15) > 1e-12 {
		t.Fatalf("core power after shutdown = %g/%g", s.CoreDynW, s.CoreLeakW)
	}
	b := s.NoC
	// No island-1 switch, no crossing link, no FIFO.
	if b.FIFODynW != 0 || b.FIFOLeakW != 0 {
		t.Fatal("FIFO power should vanish with the crossing link")
	}
	if b.LinkDynW != 0 || b.LinkLeakW != 0 {
		t.Fatal("the only link crosses into the gated island; its power must vanish")
	}
	on := NoC(top)
	if b.SwitchLeakW >= on.SwitchLeakW {
		t.Fatal("switch leakage must drop when a switch is gated")
	}
	// Flow 2->1 inactive: switch0 traffic drops from 600 to 400 MB/s.
	lib := top.Lib
	want := lib.SwitchDynPowerW(3, 200e6, 1.0, 400e6)
	if math.Abs(b.SwitchDynW-want) > 1e-12 {
		t.Fatalf("switch dyn after shutdown = %g, want %g", b.SwitchDynW, want)
	}
	// NIs of gated cores off; NI traffic of mem drops too.
	if b.NIDynW >= on.NIDynW || b.NILeakW >= on.NILeakW {
		t.Fatal("NI power must drop")
	}
}

func TestSavings(t *testing.T) {
	top := fixture(t)
	onW, offW, frac, err := Savings(top, Scenario{Name: "media off", Off: []bool{false, true}})
	if err != nil {
		t.Fatal(err)
	}
	if offW >= onW || frac <= 0 || frac >= 1 {
		t.Fatalf("savings: on=%g off=%g frac=%g", onW, offW, frac)
	}
	// The gated island holds a 0.30+0.15 W core out of ~1.3 W total.
	if frac < 0.25 {
		t.Fatalf("expected >=25%% savings, got %.1f%%", frac*100)
	}
}

func TestSavingsRejectsNonShutdownable(t *testing.T) {
	top := fixture(t)
	if _, _, _, err := Savings(top, Scenario{Name: "bad", Off: []bool{true, false}}); err == nil {
		t.Fatal("gating the sys island accepted")
	}
}

func TestNoCArea(t *testing.T) {
	top := fixture(t)
	a := NoCAreaMM2(top)
	lib := top.Lib
	want := lib.SwitchAreaMM2(3) + lib.SwitchAreaMM2(2) + 3*lib.NIAreaMM2 + lib.FIFOAreaMM2
	if math.Abs(a-want) > 1e-12 {
		t.Fatalf("NoC area = %g, want %g", a, want)
	}
	// Negligible versus the 15 mm^2 of cores: below 2%.
	if a/top.Spec.TotalCoreAreaMM2() > 0.02 {
		t.Fatalf("NoC area fraction implausibly high: %g", a/top.Spec.TotalCoreAreaMM2())
	}
}

func TestMaskShorterThanIslands(t *testing.T) {
	top := fixture(t)
	// nil and short masks mean "all on" for the unlisted islands.
	b1 := SystemWithShutdown(top, nil)
	b2 := SystemWithShutdown(top, []bool{false})
	if b1 != b2 {
		t.Fatal("short mask should behave as all-on for unlisted islands")
	}
}

func TestNoCForMode(t *testing.T) {
	top := fixture(t)
	// Mode with only the intra-island cpu->mem flow at half bandwidth.
	mode := soc.UseCase{Name: "half", Flows: []soc.Flow{
		{Src: 0, Dst: 1, BandwidthBps: 200e6},
	}}
	b, err := NoCForMode(top, mode, nil)
	if err != nil {
		t.Fatal(err)
	}
	lib := top.Lib
	// Only switch0 carries traffic (200 MB/s); switch1 idles; the
	// crossing link carries nothing so FIFO dynamic power is zero.
	want := lib.SwitchDynPowerW(3, 200e6, 1.0, 200e6) + lib.SwitchDynPowerW(2, 200e6, 1.0, 0)
	if math.Abs(b.SwitchDynW-want) > 1e-12 {
		t.Fatalf("mode switch dyn = %g, want %g", b.SwitchDynW, want)
	}
	if b.FIFODynW != 0 {
		t.Fatal("idle crossing link burned FIFO dynamic power")
	}
	// Leakage unchanged: everything still powered.
	full := NoC(top)
	if b.SwitchLeakW != full.SwitchLeakW || b.NILeakW != full.NILeakW {
		t.Fatal("mode evaluation changed leakage")
	}
	if b.DynW() >= full.DynW() {
		t.Fatal("subset mode must burn less dynamic power")
	}
}

func TestNoCForModeUnroutedFlow(t *testing.T) {
	top := fixture(t)
	mode := soc.UseCase{Name: "ghost", Flows: []soc.Flow{
		{Src: 1, Dst: 2, BandwidthBps: 1e6}, // no such route
	}}
	if _, err := NoCForMode(top, mode, nil); err == nil {
		t.Fatal("unrouted mode flow accepted")
	}
}

func TestSystemForModeWithGating(t *testing.T) {
	top := fixture(t)
	// Mode only uses island-0 cores; island 1 can be gated.
	mode := soc.UseCase{Name: "sys_only", Flows: []soc.Flow{
		{Src: 0, Dst: 1, BandwidthBps: 400e6},
	}}
	off := soc.IdleIslands(top.Spec, mode)
	if !off[1] {
		t.Fatal("island 1 should be idle in this mode")
	}
	s, err := SystemForMode(top, mode, off)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.CoreDynW-0.70) > 1e-12 {
		t.Fatalf("mode core dyn = %g", s.CoreDynW)
	}
	all := SystemPower(top)
	if s.TotalW() >= all.TotalW() {
		t.Fatal("gated mode must cost less than everything-on")
	}
}
