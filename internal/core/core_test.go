package core

import (
	"math"
	"testing"

	"nocvi/internal/model"
	"nocvi/internal/soc"
)

// miniSoC: 8 cores over 3 islands with realistic-shaped traffic (heavy
// memory flows, light peripheral flows).
func miniSoC() *soc.Spec {
	mk := func(id int, name string, class soc.CoreClass) soc.Core {
		return soc.Core{ID: soc.CoreID(id), Name: name, Class: class,
			AreaMM2: 2, DynPowerW: 0.1, LeakPowerW: 0.02}
	}
	return &soc.Spec{
		Name: "mini8",
		Cores: []soc.Core{
			mk(0, "cpu", soc.ClassCPU), mk(1, "l2", soc.ClassCache),
			mk(2, "dram", soc.ClassMemCtrl), mk(3, "sram", soc.ClassMemory),
			mk(4, "vdec", soc.ClassAccel), mk(5, "disp", soc.ClassAccel),
			mk(6, "usb", soc.ClassIO), mk(7, "uart", soc.ClassPeripheral),
		},
		Flows: []soc.Flow{
			{Src: 0, Dst: 1, BandwidthBps: 1200e6, MaxLatencyCycles: 10},
			{Src: 1, Dst: 0, BandwidthBps: 1200e6, MaxLatencyCycles: 10},
			{Src: 1, Dst: 2, BandwidthBps: 800e6, MaxLatencyCycles: 14},
			{Src: 2, Dst: 1, BandwidthBps: 800e6, MaxLatencyCycles: 14},
			{Src: 4, Dst: 2, BandwidthBps: 400e6, MaxLatencyCycles: 24},
			{Src: 2, Dst: 4, BandwidthBps: 300e6, MaxLatencyCycles: 24},
			{Src: 5, Dst: 3, BandwidthBps: 200e6, MaxLatencyCycles: 30},
			{Src: 4, Dst: 5, BandwidthBps: 150e6, MaxLatencyCycles: 30},
			{Src: 6, Dst: 2, BandwidthBps: 60e6, MaxLatencyCycles: 40},
			{Src: 7, Dst: 0, BandwidthBps: 2e6},
			{Src: 6, Dst: 4, BandwidthBps: 30e6},
		},
		Islands: []soc.Island{
			{ID: 0, Name: "sys", VoltageV: 1.0},
			{ID: 1, Name: "media", VoltageV: 0.9, Shutdownable: true},
			{ID: 2, Name: "io", VoltageV: 1.0, Shutdownable: true},
		},
		IslandOf: []soc.IslandID{0, 0, 0, 0, 1, 1, 2, 2},
	}
}

func TestIslandClocks(t *testing.T) {
	spec := miniSoC()
	lib := model.Default65nm()
	freqs, sizes, err := IslandClocks(spec, lib)
	if err != nil {
		t.Fatal(err)
	}
	// l2 aggregate egress = 1200+800 = 2000 MB/s -> 500 MHz on 32-bit links.
	if freqs[0] != 500e6 {
		t.Fatalf("sys island clock = %g, want 500 MHz", freqs[0])
	}
	// media: vdec egress 400+150, ingress 300 -> 550 MB/s -> 137.5 -> 150 MHz grid.
	if freqs[1] != 150e6 {
		t.Fatalf("media island clock = %g, want 150 MHz", freqs[1])
	}
	// io: usb egress 90 MB/s -> 22.5 -> 25 MHz grid.
	if freqs[2] != 25e6 {
		t.Fatalf("io island clock = %g, want 25 MHz", freqs[2])
	}
	for j, s := range sizes {
		if s < 2 {
			t.Fatalf("island %d max switch size %d too small", j, s)
		}
		if lib.SwitchMaxFreqHz(s) < freqs[j] {
			t.Fatalf("island %d: size %d infeasible at %g", j, s, freqs[j])
		}
	}
	// slower islands admit larger switches
	if !(sizes[2] >= sizes[1] && sizes[1] >= sizes[0]) {
		t.Fatalf("max sizes not antitone in clock: %v for %v", sizes, freqs)
	}
}

func TestSynthesizeProducesValidPoints(t *testing.T) {
	spec := miniSoC()
	res, err := Synthesize(spec, model.Default65nm(), Options{AllowIntermediate: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 || res.Feasible != len(res.Points) {
		t.Fatalf("points=%d feasible=%d", len(res.Points), res.Feasible)
	}
	if res.Explored < res.Feasible {
		t.Fatal("explored < feasible")
	}
	for i := range res.Points {
		dp := &res.Points[i]
		if err := dp.Top.Validate(); err != nil {
			t.Fatalf("point %d invalid: %v", i, err)
		}
		if dp.NoCPower.DynW() <= 0 || dp.MeanLatencyCycles < 4 || dp.NoCAreaMM2 <= 0 {
			t.Fatalf("point %d has implausible metrics: %+v", i, dp.NoCPower)
		}
		// Every core on a switch in its own island (shutdown support).
		for c, isl := range spec.IslandOf {
			sw := dp.Top.SwitchOf[c]
			if dp.Top.Switches[sw].Island != isl {
				t.Fatalf("point %d: core %d hosted outside its island", i, c)
			}
		}
	}
}

func TestSynthesizeSwitchCountSweep(t *testing.T) {
	spec := miniSoC()
	res, err := Synthesize(spec, model.Default65nm(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Without the intermediate island every point has MidSwitches == 0,
	// and the sweep must produce several distinct switch-count vectors.
	seen := map[string]bool{}
	for _, p := range res.Points {
		if p.MidSwitches != 0 {
			t.Fatal("intermediate island used although forbidden")
		}
		key := ""
		for _, c := range p.SwitchCounts {
			key += string(rune('0' + c))
		}
		seen[key] = true
	}
	if len(seen) < 2 {
		t.Fatalf("sweep produced only %d distinct configurations", len(seen))
	}
	// Largest config: one switch per core in each island (4,2,2).
	if _, ok := seen["422"]; !ok {
		t.Fatalf("saturated configuration missing: %v", seen)
	}
}

func TestSynthesizeIntermediateSweep(t *testing.T) {
	spec := miniSoC()
	res, err := Synthesize(spec, model.Default65nm(), Options{
		AllowIntermediate:       true,
		MaxIntermediateSwitches: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	mids := map[int]bool{}
	for _, p := range res.Points {
		mids[p.MidSwitches] = true
		if p.MidSwitches > 2 {
			t.Fatal("mid sweep exceeded cap")
		}
	}
	if !mids[0] || (!mids[1] && !mids[2]) {
		t.Fatalf("mid sweep incomplete: %v", mids)
	}
}

func TestBestSelectors(t *testing.T) {
	spec := miniSoC()
	res, err := Synthesize(spec, model.Default65nm(), Options{AllowIntermediate: true})
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best()
	if best == nil {
		t.Fatal("no best point")
	}
	for i := range res.Points {
		p := &res.Points[i]
		if p.WireViolations < best.WireViolations {
			t.Fatal("Best ignored a point with fewer wire violations")
		}
		if p.WireViolations == best.WireViolations && p.NoCPower.DynW() < best.NoCPower.DynW()-1e-15 {
			t.Fatalf("Best not minimal: %g < %g", p.NoCPower.DynW(), best.NoCPower.DynW())
		}
	}
	bl := res.BestLatency()
	if bl == nil || bl.MeanLatencyCycles > best.MeanLatencyCycles+20 {
		t.Fatal("BestLatency implausible")
	}
}

func TestSynthesizeSingleIslandBaseline(t *testing.T) {
	spec := miniSoC().MergedSingleIsland()
	res, err := Synthesize(spec, model.Default65nm(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best()
	// No island crossings: no FIFOs anywhere.
	if best.NoCPower.FIFODynW != 0 || best.NoCPower.FIFOLeakW != 0 {
		t.Fatal("single-island design has converter power")
	}
	for _, l := range best.Top.Links {
		if best.Top.CrossesIslands(l.From, l.To) {
			t.Fatal("single-island design has crossing links")
		}
	}
}

func TestMultiIslandCostsMoreThanSingle(t *testing.T) {
	lib := model.Default65nm()
	multi, err := Synthesize(miniSoC(), lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	single, err := Synthesize(miniSoC().MergedSingleIsland(), lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mp := multi.Best().NoCPower.DynW()
	sp := single.Best().NoCPower.DynW()
	// The miniSoC keeps heavy flows inside islands (communication-aware
	// assignment), so the multi-island overhead must be modest: within
	// 2x of the single-island NoC, and single-island cannot be wildly
	// more than multi either.
	if mp > sp*2 || sp > mp*2 {
		t.Fatalf("implausible power relation: multi=%g single=%g", mp, sp)
	}
}

func TestSynthesizeValidatesInput(t *testing.T) {
	spec := miniSoC()
	spec.Flows[0].BandwidthBps = -1
	if _, err := Synthesize(spec, model.Default65nm(), Options{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	lib := model.Default65nm()
	lib.LinkWidthBits = 0
	if _, err := Synthesize(miniSoC(), lib, Options{}); err == nil {
		t.Fatal("invalid library accepted")
	}
}

func TestSynthesizeInfeasibleFrequency(t *testing.T) {
	spec := miniSoC()
	lib := model.Default65nm()
	lib.LinkWidthBits = 1 // 1-bit links: l2 needs 16 GHz, impossible
	_, err := Synthesize(spec, lib, Options{})
	if err == nil {
		t.Fatal("impossible clock accepted")
	}
}

func TestMeanLatencyGrowsWithIslandCount(t *testing.T) {
	lib := model.Default65nm()
	multi, err := Synthesize(miniSoC(), lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	single, err := Synthesize(miniSoC().MergedSingleIsland(), lib, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Best().MeanLatencyCycles <= single.Best().MeanLatencyCycles {
		t.Fatalf("island crossings should raise mean latency: multi=%g single=%g",
			multi.Best().MeanLatencyCycles, single.Best().MeanLatencyCycles)
	}
	if math.IsNaN(multi.Best().MeanLatencyCycles) {
		t.Fatal("NaN latency")
	}
}

func TestRefinePlacement(t *testing.T) {
	spec := miniSoC()
	res, err := Synthesize(spec, model.Default65nm(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dp := res.Best()
	before := dp.NoCPower.DynW()
	if err := dp.RefinePlacement(100); err != nil {
		t.Fatal(err)
	}
	// Shorter traffic-weighted wires can only cut link power; total NoC
	// power must not grow.
	if after := dp.NoCPower.DynW(); after > before*(1+1e-9) {
		t.Fatalf("refinement raised power: %g -> %g", before, after)
	}
	if err := dp.Top.Validate(); err != nil {
		t.Fatalf("refined design invalid: %v", err)
	}
	if dp.Placement.Overlap() > 1e-6 {
		t.Fatal("refined floorplan overlaps")
	}
}

func TestAutoVoltage(t *testing.T) {
	spec := miniSoC()
	lib := model.Default65nm()
	plain, err := Synthesize(spec, lib, Options{AllowIntermediate: true})
	if err != nil {
		t.Fatal(err)
	}
	dvs, err := Synthesize(spec, lib, Options{AllowIntermediate: true, AutoVoltage: true})
	if err != nil {
		t.Fatal(err)
	}
	// Slow islands (media at 150 MHz, io at 25 MHz) must run below the
	// nominal supply.
	top := dvs.Best().Top
	for j, v := range top.IslandVoltage {
		want := lib.VoltageForFreq(top.IslandFreqHz[j])
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("island %d voltage %g, want %g", j, v, want)
		}
	}
	if top.IslandVoltage[2] >= 0.9 {
		t.Fatalf("25 MHz island should run near the minimum supply, got %g", top.IslandVoltage[2])
	}
	// Quadratic scaling: DVS cuts NoC dynamic power.
	if dvs.Best().NoCPower.DynW() >= plain.Best().NoCPower.DynW() {
		t.Fatalf("DVS did not reduce power: %g vs %g",
			dvs.Best().NoCPower.DynW(), plain.Best().NoCPower.DynW())
	}
	if err := top.Validate(); err != nil {
		t.Fatalf("DVS design invalid: %v", err)
	}
}
