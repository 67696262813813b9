// Benchmarks that regenerate every figure and table of the paper's
// evaluation, one testing.B target each, plus micro-benchmarks of the
// algorithmic hot paths. Key result values are attached as custom
// metrics so `go test -bench` output doubles as the experiment log:
//
//	go test -bench=Fig2 -benchmem        # Fig. 2 series
//	go test -bench=. -benchmem           # everything
package nocvi_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"nocvi/internal/bench"
	"nocvi/internal/cache"
	"nocvi/internal/core"
	"nocvi/internal/experiments"
	"nocvi/internal/fault"
	"nocvi/internal/floorplan"
	"nocvi/internal/graph"
	"nocvi/internal/model"
	"nocvi/internal/netlist"
	"nocvi/internal/partition"
	"nocvi/internal/route"
	"nocvi/internal/sim"
	"nocvi/internal/soc"
	"nocvi/internal/specgen"
	"nocvi/internal/topology"
	"nocvi/internal/viplace"
	"nocvi/internal/wormhole"
)

// BenchmarkFig2PowerVsIslands regenerates the Fig. 2 sweep (island count
// vs NoC dynamic power for both partitionings) and reports the anchor
// points as metrics (mW).
func BenchmarkFig2PowerVsIslands(b *testing.B) {
	lib := model.Default65nm()
	var pts []experiments.CurvePoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Curves(lib, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		switch {
		case p.Islands == 1 && p.Method == viplace.MethodLogical:
			b.ReportMetric(p.PowerMW, "mW_ref_1isl")
		case p.Islands == 6 && p.Method == viplace.MethodLogical:
			b.ReportMetric(p.PowerMW, "mW_logical_6isl")
		case p.Islands == 6 && p.Method == viplace.MethodCommunication:
			b.ReportMetric(p.PowerMW, "mW_comm_6isl")
		case p.Islands == 26 && p.Method == viplace.MethodLogical:
			b.ReportMetric(p.PowerMW, "mW_26isl")
		}
	}
}

// BenchmarkFig3LatencyVsIslands regenerates the Fig. 3 sweep (island
// count vs mean zero-load latency) and reports the anchors (cycles).
func BenchmarkFig3LatencyVsIslands(b *testing.B) {
	lib := model.Default65nm()
	var pts []experiments.CurvePoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Curves(lib, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		switch {
		case p.Islands == 1 && p.Method == viplace.MethodLogical:
			b.ReportMetric(p.LatencyCycles, "cyc_ref_1isl")
		case p.Islands == 6 && p.Method == viplace.MethodLogical:
			b.ReportMetric(p.LatencyCycles, "cyc_logical_6isl")
		case p.Islands == 6 && p.Method == viplace.MethodCommunication:
			b.ReportMetric(p.LatencyCycles, "cyc_comm_6isl")
		case p.Islands == 26 && p.Method == viplace.MethodLogical:
			b.ReportMetric(p.LatencyCycles, "cyc_26isl")
		}
	}
}

// BenchmarkFig4TopologySynthesis regenerates the Fig. 4 artifact (the
// 6-VI logical D26 topology).
func BenchmarkFig4TopologySynthesis(b *testing.B) {
	lib := model.Default65nm()
	for i := 0; i < b.N; i++ {
		dot, txt, err := experiments.Fig4(lib)
		if err != nil {
			b.Fatal(err)
		}
		if len(dot) == 0 || len(txt) == 0 {
			b.Fatal("empty artifact")
		}
	}
}

// BenchmarkFig5Floorplan regenerates the Fig. 5 artifact (the floorplan
// of the same design).
func BenchmarkFig5Floorplan(b *testing.B) {
	lib := model.Default65nm()
	for i := 0; i < b.N; i++ {
		svg, txt, err := experiments.Fig5(lib)
		if err != nil {
			b.Fatal(err)
		}
		if len(svg) == 0 || len(txt) == 0 {
			b.Fatal("empty artifact")
		}
	}
}

// BenchmarkTab1Overheads regenerates the overhead table across the
// benchmark suite and reports the suite averages (the paper's 3% / 0.5%
// claims) as metrics.
func BenchmarkTab1Overheads(b *testing.B) {
	lib := model.Default65nm()
	var rows []experiments.OverheadRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Tab1(lib)
		if err != nil {
			b.Fatal(err)
		}
	}
	p, a := experiments.Tab1Averages(rows)
	b.ReportMetric(p, "pct_power_overhead")
	b.ReportMetric(a, "pct_area_overhead")
}

// BenchmarkTab2ShutdownSavings regenerates the shutdown-savings table
// and reports the standby saving (the >=25% headroom) as a metric.
func BenchmarkTab2ShutdownSavings(b *testing.B) {
	lib := model.Default65nm()
	var rows []experiments.ShutdownRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Tab2(lib)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].SavingsPct, "pct_standby_saving")
}

// BenchmarkAblationAlpha regenerates the alpha-weight ablation.
func BenchmarkAblationAlpha(b *testing.B) {
	lib := model.Default65nm()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblAlpha(lib); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationIntermediate regenerates the intermediate-island
// ablation at the 26-island extreme.
func BenchmarkAblationIntermediate(b *testing.B) {
	lib := model.Default65nm()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblMid(lib); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLinkWidth regenerates the link-width ablation.
func BenchmarkAblationLinkWidth(b *testing.B) {
	lib := model.Default65nm()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblWidth(lib); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the algorithmic hot paths ---

// BenchmarkSynthesizeD26 measures one full Algorithm 1 run on the
// 26-core case study (6 logical islands, intermediate island allowed).
func BenchmarkSynthesizeD26(b *testing.B) {
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		b.Fatal(err)
	}
	lib := model.Default65nm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Synthesize(spec, lib, core.Options{
			AllowIntermediate:       true,
			MaxIntermediateSwitches: 3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthesizeParallel measures the design-space sweep at
// increasing worker counts on the D26 and D48 benchmarks. Results are
// identical at every width — only wall-clock changes — so the ratio of
// the workers=1 and workers=8 timings is the parallel speedup.
//
// d48_network/pair times that speedup in pairs: each iteration starts
// on a collected heap and runs workers=1 and then workers=N, N the
// lane's GOMAXPROCS, back to back, and the lane reports the median of
// the per-pair ratios as w1/wN. Contention that slows one pair moves
// one ratio, not a whole lane timed seconds apart from the other;
// `make bench-smoke` gates this lane.
func BenchmarkSynthesizeParallel(b *testing.B) {
	lib := model.Default65nm()
	synth := func(b *testing.B, spec *soc.Spec, workers int) {
		if _, err := core.Synthesize(spec, lib, core.Options{
			AllowIntermediate:       true,
			MaxIntermediateSwitches: 3,
			Workers:                 workers,
		}); err != nil {
			b.Fatal(err)
		}
	}
	for _, name := range []string{"d26_media", "d48_network"} {
		spec, err := bench.Islanded(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					synth(b, spec, workers)
				}
			})
		}
		if name != "d48_network" {
			continue
		}
		b.Run(name+"/pair", func(b *testing.B) {
			n := runtime.GOMAXPROCS(0)
			ratios := make([]float64, 0, b.N)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				b.StartTimer()
				t0 := time.Now()
				synth(b, spec, 1)
				t1 := time.Now()
				synth(b, spec, n)
				t2 := time.Now()
				ratios = append(ratios, float64(t1.Sub(t0))/float64(t2.Sub(t1)))
			}
			b.ReportMetric(median(ratios), "w1/wN")
		})
	}
	// The d100+ scale lane: the streaming full-factorial sweep on a
	// 104-core, 10-island generated SoC whose enumerated space is 2^20
	// design points. The spec is built by specgen.Large, not the bench
	// registry — registry entries feed every experiments table, and a
	// 2^20-point SoC there would bloat those runs. The Limit bounds one
	// benchmark op to the first 5000 candidates (~1 s serial) while the
	// env-gated TestSweepMillionPoints covers the full space.
	spec := specgen.Large(7, 104, 10)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("d104_specgen/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.SynthesizeSweep(context.Background(), spec, lib,
					core.Options{Workers: workers},
					core.SweepOptions{WidthPerIsland: 4, Limit: 5000})
				if err != nil {
					b.Fatal(err)
				}
				if res.Explored != 5000 {
					b.Fatalf("explored %d of the 5000-candidate prefix", res.Explored)
				}
			}
		})
	}
}

// BenchmarkSynthesizePrune measures the branch-and-bound payoff on the
// d48 full-factorial sweep in the pre-layout estimation mode
// (Floorplan.SkipAnnotate), where link power is length-independent and
// the admissible bounds are at their tightest. Both lanes sweep the
// identical candidate space and agree on every winner; the prune lane
// additionally reports the fraction of candidates the layer discarded
// (pruned_frac), which bench2json folds into the record's "prune"
// section and `make prune-smoke` gates with -prune-floor.
func BenchmarkSynthesizePrune(b *testing.B) {
	spec, err := bench.Islanded("d48_network")
	if err != nil {
		b.Fatal(err)
	}
	lib := model.Default65nm()
	for _, lane := range []struct {
		name    string
		noPrune bool
	}{{"prune", false}, {"noprune", true}} {
		b.Run("d48_sweep/"+lane.name, func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				res, err := core.SynthesizeSweep(context.Background(), spec, lib, core.Options{
					AllowIntermediate:       true,
					MaxIntermediateSwitches: 3,
					NoPrune:                 lane.noPrune,
					Floorplan:               floorplan.Options{SkipAnnotate: true},
				}, core.SweepOptions{WidthPerIsland: 3})
				if err != nil {
					b.Fatal(err)
				}
				if res.Explored == 0 || res.BestPowerPoint == nil {
					b.Fatal("sweep found nothing")
				}
				frac = float64(res.PruneStats.Pruned()) / float64(res.Explored)
			}
			if !lane.noPrune {
				if frac == 0 {
					b.Fatal("prune lane pruned nothing")
				}
				b.ReportMetric(frac, "pruned_frac")
			}
		})
	}
}

// BenchmarkSynthesizeCached measures the content-addressed result cache
// on the D26 case study in its two regimes:
//
//	cold — empty store: full synthesis plus encode-and-publish, the
//	       price of the first run;
//	warm — unchanged spec: the whole run collapses to one probe and a
//	       decode;
//	pair — each iteration times a miss on an empty store and then a
//	       hit of the entry it stored, and the lane reports the median
//	       of the per-pair miss/hit ratios as miss/hit (the >=5x
//	       full-hit acceptance metric). Both legs of a pair run back to
//	       back, so contention that slows one pair cannot skew the
//	       ratio the way it skews two lanes timed apart. Each pair
//	       starts on a collected heap, as a run of nocsynth does, so
//	       neither leg pays for a collection of the other's or an
//	       earlier pair's garbage.
func BenchmarkSynthesizeCached(b *testing.B) {
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		b.Fatal(err)
	}
	lib := model.Default65nm()
	opt := core.Options{AllowIntermediate: true, MaxIntermediateSwitches: 3}
	ctx := context.Background()
	open := func(b *testing.B) *cache.Store {
		store, err := cache.Open(b.TempDir(), cache.StoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		return store
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			store := open(b)
			b.StartTimer()
			res, err := cache.Synthesize(ctx, store, spec, lib, opt)
			if err != nil {
				b.Fatal(err)
			}
			if res.CacheStats.Misses != 1 {
				b.Fatalf("cold lane hit the cache: %+v", res.CacheStats)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		store := open(b)
		if _, err := cache.Synthesize(ctx, store, spec, lib, opt); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := cache.Synthesize(ctx, store, spec, lib, opt)
			if err != nil {
				b.Fatal(err)
			}
			if res.CacheStats.Hits != 1 {
				b.Fatalf("warm lane missed: %+v", res.CacheStats)
			}
		}
	})
	b.Run("pair", func(b *testing.B) {
		ratios := make([]float64, 0, b.N)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			store := open(b)
			runtime.GC()
			b.StartTimer()
			t0 := time.Now()
			miss, err := cache.Synthesize(ctx, store, spec, lib, opt)
			t1 := time.Now()
			if err != nil {
				b.Fatal(err)
			}
			hit, err := cache.Synthesize(ctx, store, spec, lib, opt)
			t2 := time.Now()
			if err != nil {
				b.Fatal(err)
			}
			if miss.CacheStats.Misses != 1 || hit.CacheStats.Hits != 1 {
				b.Fatalf("pair was not a miss then a hit: %+v, %+v", miss.CacheStats, hit.CacheStats)
			}
			ratios = append(ratios, float64(t1.Sub(t0))/float64(t2.Sub(t1)))
		}
		b.ReportMetric(median(ratios), "miss/hit")
	})
}

// median returns the median of v (the mean of the middle two for an
// even count), sorting v in place.
func median(v []float64) float64 {
	slices.Sort(v)
	n := len(v)
	return (v[(n-1)/2] + v[n/2]) / 2
}

// BenchmarkRunCampaign measures the power-state fault campaign on the
// paper's d26 case study, synthesized as survive-d26 builds it, at one
// campaign worker. k=0 rebuilds and re-routes every link fault that
// severs active traffic; k=1 absorbs every fault through the design's
// pre-synthesized backups, a pure lookup. Allocation counts are
// first-class output: run with -benchmem.
func BenchmarkRunCampaign(b *testing.B) {
	spec, err := bench.Islanded("d26_media")
	if err != nil {
		b.Fatal(err)
	}
	lib := model.Default65nm()
	for _, k := range []int{0, 1} {
		b.Run(fmt.Sprintf("d26/k=%d", k), func(b *testing.B) {
			res, err := core.Synthesize(spec, lib, core.Options{AllowIntermediate: true, Survivability: k})
			if err != nil {
				b.Fatal(err)
			}
			top := res.Best().Top
			opt := fault.CampaignOptions{Workers: 1, Survivability: k}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := fault.RunCampaign(top, opt)
				if err != nil {
					b.Fatal(err)
				}
				if !c.OK() {
					b.Fatalf("k=%d campaign violated the shutdown invariant", k)
				}
			}
		})
	}
}

// BenchmarkRouteAll measures the routing inner loop — the per-candidate
// cost of the design-space sweep — on benchmark SoCs of increasing
// size. The routed candidate is the engine's own: core.Unrouted at
// step 1 of Synthesize's diagonal walk with two intermediate switches.
// Each iteration clones that unrouted topology (cheap, O(switches)) and
// routes every flow (the hot path: Dijkstra per flow with dynamic edge
// costs). Allocation counts are first-class output: run with -benchmem.
func BenchmarkRouteAll(b *testing.B) {
	lib := model.Default65nm()
	for _, name := range []string{"d16_industrial", "d26_media", "d48_network"} {
		spec, err := bench.Islanded(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			// Partitioning runs once, outside the timed loop; each
			// iteration re-instantiates the unrouted topology from the
			// template (O(switches+cores)) and routes every flow.
			tmpl, err := core.Unrouted(spec, lib, core.Options{AllowIntermediate: true}, 1, 2)
			if err != nil {
				b.Fatal(err)
			}
			if err := route.New(cloneUnrouted(tmpl), route.Options{}).RouteAll(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := route.New(cloneUnrouted(tmpl), route.Options{}).RouteAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// cloneUnrouted rebuilds the unrouted switch/attachment structure of a
// topology: same islands, switches and NIs, no links, no routes.
func cloneUnrouted(orig *topology.Topology) *topology.Topology {
	top := topology.New(orig.Spec, orig.Lib)
	for i := range orig.Spec.Islands {
		top.SetIslandFreq(soc.IslandID(i), orig.IslandFreqHz[i])
		top.SetIslandVoltage(soc.IslandID(i), orig.IslandVoltage[i])
	}
	if orig.NoCIsland != soc.NoIsland {
		top.AddNoCIsland(orig.IslandFreqHz[orig.NoCIsland], orig.IslandVoltage[orig.NoCIsland])
	}
	for _, s := range orig.Switches {
		top.AddSwitch(s.Island, s.Indirect)
	}
	for c, sw := range orig.SwitchOf {
		if sw < 0 {
			continue
		}
		if err := top.AttachCore(soc.CoreID(c), sw); err != nil {
			panic(err)
		}
	}
	return top
}

// BenchmarkPartitionKWay measures balanced min-cut partitioning of a
// 64-vertex communication graph into 8 parts.
func BenchmarkPartitionKWay(b *testing.B) {
	g := graph.NewUndirected(64)
	s := uint64(42)
	for i := 0; i < 256; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		u := int((s >> 33) % 64)
		v := int((s >> 13) % 64)
		if u != v {
			g.AddEdge(u, v, float64(s%100)+1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.KWay(g, 8, partition.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFloorplanPlace measures floorplanning the synthesized D26.
func BenchmarkFloorplanPlace(b *testing.B) {
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Synthesize(spec, model.Default65nm(), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	top := res.Best().Top
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := floorplan.Place(top, floorplan.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorD26 measures a 20 us traffic simulation of the
// synthesized D26 network.
func BenchmarkSimulatorD26(b *testing.B) {
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Synthesize(spec, model.Default65nm(), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	top := res.Best().Top
	b.ResetTimer()
	var packets int
	for i := 0; i < b.N; i++ {
		r, err := sim.Run(top, sim.Config{DurationNs: 20000})
		if err != nil {
			b.Fatal(err)
		}
		packets = r.Sent
	}
	b.ReportMetric(float64(packets), "packets")
}

// BenchmarkSynthesizeScaling measures how the synthesis runtime scales
// with SoC size (the paper: "the exploration of the design points for
// all the benchmarks took only a few hours on a 2 GHz Linux machine";
// this reproduction completes each SoC in milliseconds).
func BenchmarkSynthesizeScaling(b *testing.B) {
	lib := model.Default65nm()
	for _, name := range []string{"d16_industrial", "d26_media", "d38_settop"} {
		spec, err := bench.Islanded(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Synthesize(spec, lib, core.Options{
					AllowIntermediate:       true,
					MaxIntermediateSwitches: 3,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWormholeD26 measures the flit-level engine.
func BenchmarkWormholeD26(b *testing.B) {
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Synthesize(spec, model.Default65nm(), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	top := res.Best().Top
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := wormhole.Run(top, wormhole.Config{PacketsPerFlow: 8})
		if err != nil || r.Deadlocked {
			b.Fatalf("%v deadlock=%v", err, r.Deadlocked)
		}
	}
}

// BenchmarkVerilogGeneration measures RTL emission for the D26 design.
func BenchmarkVerilogGeneration(b *testing.B) {
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Synthesize(spec, model.Default65nm(), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	top := res.Best().Top
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		v, err := netlist.Generate(top, netlist.Config{})
		if err != nil {
			b.Fatal(err)
		}
		n = len(v)
	}
	b.ReportMetric(float64(n), "bytes")
}

// BenchmarkTab3UseCases regenerates the multi-use-case table and reports
// the lightest mode's NoC power as a metric.
func BenchmarkTab3UseCases(b *testing.B) {
	lib := model.Default65nm()
	var rows []experiments.ModeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Tab3(lib)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[len(rows)-1].NoCDynMW, "mW_lightest_mode")
}

// BenchmarkCmpMesh regenerates the custom-vs-mesh comparison and reports
// the mesh's shutdown violations (the paper's motivation).
func BenchmarkCmpMesh(b *testing.B) {
	lib := model.Default65nm()
	var rows []experiments.CmpRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.CmpMesh(lib)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[1].ShutdownViolations), "mesh_shutdown_violations")
}

// BenchmarkCmpFault regenerates the single-link-failure sweep.
func BenchmarkCmpFault(b *testing.B) {
	lib := model.Default65nm()
	var rows []experiments.FaultRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.CmpFault(lib)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].RecoverablePct, "pct_custom_recoverable")
}

// BenchmarkAblationDVS regenerates the per-island supply-scaling
// ablation and reports the DVS power as a metric.
func BenchmarkAblationDVS(b *testing.B) {
	lib := model.Default65nm()
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblDVS(lib)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[1].PowerMW, "mW_with_dvs")
}
