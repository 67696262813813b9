package sim

import (
	"errors"
	"math"
	"testing"
	"time"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/topology"
	"nocvi/internal/viplace"
)

// synthD26 synthesizes the 6-island logical D26 once for the tests.
func synthD26(t testing.TB) *topology.Topology {
	t.Helper()
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Synthesize(spec, model.Default65nm(), core.Options{
		AllowIntermediate: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Best().Top
}

func TestRunDeliversEverything(t *testing.T) {
	top := synthD26(t)
	res, err := Run(top, Config{DurationNs: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || res.Deliver != res.Sent {
		t.Fatalf("sent=%d delivered=%d", res.Sent, res.Deliver)
	}
	for _, fs := range res.PerFlow {
		if !fs.Active {
			t.Fatalf("flow %d->%d inactive without mask", fs.Flow.Src, fs.Flow.Dst)
		}
		if fs.MeanLatencyNs <= 0 || fs.MaxLatencyNs < fs.MeanLatencyNs {
			t.Fatalf("latency stats broken: %+v", fs)
		}
	}
	if res.MeanLatencyNs <= 0 || res.MeanFlowLatencyCycles <= 0 {
		t.Fatal("aggregate stats broken")
	}
}

// With uniform island clocks and negligible load, per-flow simulated
// latency in cycles must match the analytic zero-load latency exactly.
// The designs are the logical 6-island D26 and the power winner of
// every bundled benchmark; each runs with every island on and with each
// shut-downable island gated alone, where the gated island's flows
// must send nothing and every other flow must still match.
func TestZeroLoadMatchesAnalytic(t *testing.T) {
	const clk = 400e6
	for _, top := range append([]*topology.Topology{synthD26(t)}, suiteWinners(t)...) {
		spec := top.Spec
		// Force all islands to the same clock so "cycles" is unambiguous.
		for i := range top.IslandFreqHz {
			top.SetIslandFreq(soc.IslandID(i), clk)
		}
		masks := [][]bool{nil}
		for i, isl := range spec.Islands {
			if isl.Shutdownable {
				off := make([]bool, len(spec.Islands))
				off[i] = true
				masks = append(masks, off)
			}
		}
		for _, off := range masks {
			res, err := Run(top, Config{SinglePacket: true, Off: off})
			if err != nil {
				t.Fatalf("%s off=%v: %v", spec.Name, off, err)
			}
			for ri := range res.PerFlow {
				fs := &res.PerFlow[ri]
				if off != nil && (off[spec.IslandOf[fs.Flow.Src]] || off[spec.IslandOf[fs.Flow.Dst]]) {
					if fs.Active || fs.Sent != 0 {
						t.Fatalf("%s off=%v: gated flow %d->%d active=%v sent %d",
							spec.Name, off, fs.Flow.Src, fs.Flow.Dst, fs.Active, fs.Sent)
					}
					continue
				}
				if fs.Sent != 1 {
					t.Fatalf("%s off=%v: flow %d sent %d packets, want 1", spec.Name, off, ri, fs.Sent)
				}
				want := top.ZeroLoadLatencyCycles(&top.Routes[ri])
				got := fs.MeanLatencyNs * clk / 1e9
				if math.Abs(got-want) > 1e-6 {
					t.Fatalf("%s off=%v: flow %d->%d: sim %.3f cycles, analytic %.3f",
						spec.Name, off, fs.Flow.Src, fs.Flow.Dst, got, want)
				}
			}
		}
	}
}

func TestContentionRaisesLatency(t *testing.T) {
	top := synthD26(t)
	light, err := Run(top, Config{DurationNs: 20000, InjectionScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := Run(top, Config{DurationNs: 20000, InjectionScale: 3})
	if err != nil {
		t.Fatal(err)
	}
	if heavy.MeanLatencyNs <= light.MeanLatencyNs {
		t.Fatalf("3x load latency %.1f ns not above 0.1x load %.1f ns",
			heavy.MeanLatencyNs, light.MeanLatencyNs)
	}
}

// TestShutdownScenario gates every shut-downable island of the logical
// 6-island D26 alone and then all of them at once: the shutdown proof
// must accept each mask, and Run under it must inject exactly the flows
// between powered islands.
func TestShutdownScenario(t *testing.T) {
	top := synthD26(t)
	spec := top.Spec
	var masks [][]bool
	all := make([]bool, len(spec.Islands))
	for i, isl := range spec.Islands {
		if !isl.Shutdownable {
			continue
		}
		off := make([]bool, len(spec.Islands))
		off[i] = true
		masks = append(masks, off)
		all[i] = true
	}
	if len(masks) == 0 {
		t.Fatal("D26/logical-6 has no shutdownable island")
	}
	for _, off := range append(masks, all) {
		if err := top.ValidateShutdownSafeMask(off); err != nil {
			t.Fatalf("off=%v: %v", off, err)
		}
		res, err := Run(top, Config{Off: off, DurationNs: 5000})
		if err != nil {
			t.Fatalf("off=%v: %v", off, err)
		}
		for _, fs := range res.PerFlow {
			powered := !off[spec.IslandOf[fs.Flow.Src]] && !off[spec.IslandOf[fs.Flow.Dst]]
			if fs.Active != powered || powered != (fs.Sent > 0) {
				t.Fatalf("off=%v: flow %d->%d active=%v sent %d",
					off, fs.Flow.Src, fs.Flow.Dst, fs.Active, fs.Sent)
			}
		}
	}
}

func TestGatedRouteDetected(t *testing.T) {
	// Hand-build a topology that routes through a gated island and
	// check the simulator refuses it.
	spec := &soc.Spec{
		Name: "bad",
		Cores: []soc.Core{
			{ID: 0, Name: "a"}, {ID: 1, Name: "b"}, {ID: 2, Name: "c"},
		},
		Flows: []soc.Flow{{Src: 0, Dst: 2, BandwidthBps: 10e6}},
		Islands: []soc.Island{
			{ID: 0, Name: "i0", VoltageV: 1},
			{ID: 1, Name: "i1", VoltageV: 1, Shutdownable: true},
			{ID: 2, Name: "i2", VoltageV: 1},
		},
		IslandOf: []soc.IslandID{0, 1, 2},
	}
	top := topology.New(spec, model.Default65nm())
	for i := 0; i < 3; i++ {
		top.SetIslandFreq(soc.IslandID(i), 200e6)
	}
	s0 := top.AddSwitch(0, false)
	s1 := top.AddSwitch(1, false)
	s2 := top.AddSwitch(2, false)
	for c, sw := range map[soc.CoreID]topology.SwitchID{0: s0, 1: s1, 2: s2} {
		if err := top.AttachCore(c, sw); err != nil {
			t.Fatal(err)
		}
	}
	l01, _ := top.AddLink(s0, s1)
	l12, _ := top.AddLink(s1, s2)
	if err := top.AddRoute(0, []topology.LinkID{l01, l12}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(top, Config{Off: []bool{false, true, false}}); err == nil {
		t.Fatal("route through gated island not detected")
	}
}

// TestRunRejectsNonFiniteConfig: an infinite horizon or scale would
// never end the injection loop, and a NaN scale would make every
// latency NaN; each is an error instead.
func TestRunRejectsNonFiniteConfig(t *testing.T) {
	top := synthD26(t)
	for _, cfg := range []Config{
		{DurationNs: math.Inf(1)},
		{DurationNs: 1000, InjectionScale: math.NaN()},
		{DurationNs: 1000, InjectionScale: math.Inf(1)},
	} {
		if _, err := Run(top, cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

// TestRunRejectsOverflowingRate: a finite scale can still overflow a
// flow's rate to +Inf, which makes its packet interval 0 so that time
// never advances, or shrink it so far that the interval is +Inf. Run
// must return an error, and return it promptly.
func TestRunRejectsOverflowingRate(t *testing.T) {
	top := synthD26(t)
	for _, scale := range []float64{1e300, 1e-320} {
		done := make(chan error, 1)
		go func() {
			_, err := Run(top, Config{InjectionScale: scale})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("scale %g accepted", scale)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Run with scale %g still running after 10 s", scale)
		}
	}
}

// TestRunRefusesPacketBudget: a huge finite scale or horizon plans
// billions of packets; Run must refuse it with a *PacketBudgetError
// naming the planned count, before simulating any of them.
func TestRunRefusesPacketBudget(t *testing.T) {
	top := synthD26(t)
	for _, cfg := range []Config{
		{InjectionScale: 1e6, DurationNs: 20_000}, // nocsim -bench d26_media -scale 1e6
		{DurationNs: 1e12},
	} {
		done := make(chan error, 1)
		go func() {
			_, err := Run(top, cfg)
			done <- err
		}()
		select {
		case err := <-done:
			var budget *PacketBudgetError
			if !errors.As(err, &budget) {
				t.Fatalf("config %+v: want a *PacketBudgetError, got %v", cfg, err)
			}
			if !(budget.Planned > MaxPlannedPackets) {
				t.Fatalf("config %+v: refused at %g planned packets, under the cap", cfg, budget.Planned)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Run with config %+v still running after 10 s", cfg)
		}
	}
}

func TestRunRequiresRoutes(t *testing.T) {
	spec := bench.Example()
	top := topology.New(spec, model.Default65nm())
	if _, err := Run(top, Config{}); err == nil {
		t.Fatal("unrouted topology accepted")
	}
}

func TestDeterminism(t *testing.T) {
	top := synthD26(t)
	a, err := Run(top, Config{DurationNs: 5000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(top, Config{DurationNs: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if a.Sent != b.Sent || a.MeanLatencyNs != b.MeanLatencyNs {
		t.Fatal("simulation not deterministic")
	}
}

func TestCrossIslandSlowerThanIntra(t *testing.T) {
	top := synthD26(t)
	res, err := Run(top, Config{DurationNs: 20000, InjectionScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	var intra, inter, ni, nInter float64
	for _, fs := range res.PerFlow {
		if top.Spec.IslandOf[fs.Flow.Src] == top.Spec.IslandOf[fs.Flow.Dst] {
			intra += fs.MeanLatencyCycles
			ni++
		} else {
			inter += fs.MeanLatencyCycles
			nInter++
		}
	}
	if ni == 0 || nInter == 0 {
		t.Skip("degenerate partition")
	}
	if inter/nInter <= intra/ni {
		t.Fatalf("island crossings should cost latency: inter %.2f <= intra %.2f",
			inter/nInter, intra/ni)
	}
}
