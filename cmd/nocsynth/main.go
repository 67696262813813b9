// Command nocsynth synthesizes a voltage-island-aware NoC topology for
// one of the bundled SoC benchmarks and reports the design-point
// trade-off curve, the selected topology, and its power breakdown.
//
//	nocsynth -list
//	nocsynth -bench d26_media -method logical -islands 6
//	nocsynth -bench d38_settop -islands 5 -method communication -dot top.dot -svg fp.svg
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"nocvi"
	"nocvi/internal/cliflags"
	"nocvi/internal/prof"
)

func main() {
	list := flag.Bool("list", false, "list available benchmarks and exit")
	benchName := flag.String("bench", "d26_media", "benchmark name")
	specPath := flag.String("spec", "", "load a custom SoC spec (JSON) instead of a benchmark")
	saveSpec := flag.String("save-spec", "", "dump the selected spec as JSON and exit (template for -spec)")
	jsonPath := flag.String("json", "", "write the selected topology as JSON to this file")
	verilogPath := flag.String("verilog", "", "write a structural Verilog netlist to this file")
	doVerify := flag.Bool("verify", false, "run the full design-rule sign-off on the selected point")
	doFault := flag.Bool("fault", false, "sweep single-link failures on the selected point")
	camp := cliflags.Campaign(flag.CommandLine)
	survive := cliflags.Survive(flag.CommandLine)
	relax := flag.Bool("relax", false, "retry an infeasible spec under the degradation ladder")
	method := flag.String("method", "logical", "island partitioning: logical|communication")
	islands := flag.Int("islands", 0, "voltage island count (0 = benchmark default)")
	alpha := flag.Float64("alpha", 0, "VCG bandwidth/latency weight in (0,1] (0 = default)")
	noMid := flag.Bool("no-mid", false, "forbid the intermediate NoC island")
	width := flag.Int("width", 32, "link data width in bits")
	node := flag.String("node", "65nm", "technology node: 90nm|65nm|45nm")
	dotPath := flag.String("dot", "", "write topology DOT to this file")
	svgPath := flag.String("svg", "", "write floorplan SVG to this file")
	workers := flag.Int("workers", 0, "design-point evaluation goroutines (0 = GOMAXPROCS, 1 = serial)")
	noPrune := flag.Bool("no-prune", false, "disable branch-and-bound pruning of the design-space sweep")
	cacheDir := flag.String("cache-dir", "", "content-addressed result cache directory (default $"+nocvi.CacheEnvDir+"; empty = off)")
	noCache := flag.Bool("no-cache", false, "disable the result cache even when configured")
	timeout := flag.Duration("timeout", 0, "abort synthesis after this duration (0 = none)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *list {
		for _, n := range nocvi.Benchmarks() {
			fmt.Println(n)
		}
		return
	}
	cfg := runConfig{
		benchName: *benchName, specPath: *specPath, saveSpec: *saveSpec,
		method: *method, islands: *islands, alpha: *alpha, mid: !*noMid,
		width: *width, node: *node, dotPath: *dotPath, svgPath: *svgPath, jsonPath: *jsonPath,
		verilogPath: *verilogPath, verify: *doVerify, fault: *doFault,
		camp: camp, survive: *survive,
		relax: *relax, workers: *workers, noPrune: *noPrune,
		cacheDir: *cacheDir, noCache: *noCache,
	}
	// Ctrl-C / SIGTERM (and -timeout) cancel the synthesis sweep.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocsynth:", err)
		os.Exit(1)
	}
	err = run(ctx, cfg)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocsynth:", err)
		os.Exit(1)
	}
}

type runConfig struct {
	benchName, specPath, saveSpec string
	method                        string
	islands                       int
	alpha                         float64
	mid                           bool
	width                         int
	node                          string
	fault                         bool
	camp                          *cliflags.CampaignFlags
	survive                       int
	relax                         bool
	dotPath, svgPath, jsonPath    string
	verilogPath                   string
	verify                        bool
	workers                       int
	noPrune                       bool
	cacheDir                      string
	noCache                       bool
}

func run(ctx context.Context, cfg runConfig) error {
	benchName, method, islands := cfg.benchName, cfg.method, cfg.islands
	alpha, mid, width := cfg.alpha, cfg.mid, cfg.width
	dotPath, svgPath := cfg.dotPath, cfg.svgPath

	var spec *nocvi.Spec
	var err error
	switch {
	case cfg.specPath != "":
		spec, err = nocvi.LoadSpec(cfg.specPath)
		if err == nil && islands > 0 {
			spec, err = nocvi.PartitionIslands(spec, nocvi.PartitionMethod(method), islands)
		}
	case islands == 0:
		spec, err = nocvi.Benchmark(benchName)
	default:
		var flat *nocvi.Spec
		flat, err = nocvi.BenchmarkFlat(benchName)
		if err == nil {
			spec, err = nocvi.PartitionIslands(flat, nocvi.PartitionMethod(method), islands)
		}
	}
	if err != nil {
		return err
	}
	if cfg.saveSpec != "" {
		if err := nocvi.SaveSpec(cfg.saveSpec, spec); err != nil {
			return err
		}
		fmt.Printf("[wrote %s]\n", cfg.saveSpec)
		return nil
	}

	lib := nocvi.DefaultLibrary()
	if cfg.node != "" && cfg.node != "65nm" {
		var err error
		lib, err = nocvi.LibraryForNode(cfg.node)
		if err != nil {
			return err
		}
	}
	lib.LinkWidthBits = width
	store, err := nocvi.ResolveCache(cfg.cacheDir, cfg.noCache)
	if err != nil {
		return err
	}
	res, err := nocvi.SynthesizeCached(ctx, store, spec, lib, nocvi.Options{
		Alpha:             alpha,
		AllowIntermediate: mid,
		Workers:           cfg.workers,
		Relax:             cfg.relax,
		NoPrune:           cfg.noPrune,
		Survivability:     cfg.survive,
	})
	if err != nil {
		return err
	}
	if store != nil {
		fmt.Printf("cache: %s\n", res.CacheStats)
	}

	fmt.Printf("%s: %d cores, %d flows, %d islands (%s), intra-island bandwidth %.0f%%\n",
		spec.Name, len(spec.Cores), len(spec.Flows), len(spec.Islands), method,
		nocvi.IntraIslandBandwidth(spec)*100)
	fmt.Printf("explored %d configurations, %d valid design points\n", res.Explored, res.Feasible)
	if pruned := res.PruneStats.Pruned(); pruned > 0 {
		fmt.Printf("branch-and-bound pruned %d of %d candidates (%d bound, %d staged)\n",
			pruned, res.Explored, res.PruneStats.BoundPruned, res.PruneStats.StagePruned)
	}
	if res.Partial {
		fmt.Printf("sweep stopped early (%s): reporting the best-so-far partial result\n", res.StopReason)
	}
	if len(res.Errors) > 0 {
		fmt.Fprintf(os.Stderr, "nocsynth: %d candidate(s) panicked and were skipped:\n", len(res.Errors))
		for i := range res.Errors {
			fmt.Fprintln(os.Stderr, "  "+res.Errors[i].Error())
		}
	}
	if len(res.Relaxations) > 0 {
		fmt.Printf("spec was infeasible as given; relaxations applied: %s\n",
			strings.Join(res.Relaxations, ", "))
	}
	if len(res.Points) == 0 {
		return fmt.Errorf("no design points found before the sweep stopped (%s); retry with a longer -timeout", res.StopReason)
	}
	fmt.Println()

	front := nocvi.ParetoFront(res)
	fmt.Println("pareto front (NoC dynamic power vs mean zero-load latency):")
	fmt.Println("   mW      cycles   switches  mid  links")
	for _, p := range front {
		dp := &res.Points[p.Index]
		fmt.Printf("%7.2f %9.2f %8d %4d %6d\n",
			p.X*1e3, p.Y, dp.Top.TotalSwitchCount(), dp.MidSwitches, len(dp.Top.Links))
	}

	best := res.Best()
	fmt.Println("\nselected (minimum power) design point:")
	fmt.Print(nocvi.TopologyText(best.Top))
	b := best.NoCPower
	fmt.Printf("\nNoC power: %.2f mW dynamic (switches %.2f, links %.2f, NIs %.2f, FIFOs %.2f), %.2f mW leakage\n",
		b.DynW()*1e3, b.SwitchDynW*1e3, b.LinkDynW*1e3, b.NIDynW*1e3, b.FIFODynW*1e3, b.LeakW()*1e3)
	fmt.Printf("NoC area: %.3f mm2 (%.2f%% of the SoC)\n",
		best.NoCAreaMM2, best.NoCAreaMM2/(best.NoCAreaMM2+spec.TotalCoreAreaMM2())*100)
	fmt.Printf("mean zero-load latency: %.2f cycles; wire-delay violations: %d\n",
		best.MeanLatencyCycles, best.WireViolations)

	if dotPath != "" {
		if err := os.WriteFile(dotPath, []byte(nocvi.TopologyDOT(best.Top)), 0o644); err != nil {
			return err
		}
		fmt.Printf("[wrote %s]\n", dotPath)
	}
	if svgPath != "" {
		if err := os.WriteFile(svgPath, []byte(nocvi.FloorplanSVG(best.Top, best.Placement)), 0o644); err != nil {
			return err
		}
		fmt.Printf("[wrote %s]\n", svgPath)
	}
	if cfg.verify {
		fmt.Println()
		fmt.Print(nocvi.Signoff(best).Format())
	}
	if cfg.fault {
		rep, err := nocvi.AnalyzeFaults(best.Top)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(rep.Format())
	}
	if cfg.camp.Wanted() {
		camp, err := nocvi.RunCampaignCached(store, best.Top, nocvi.CampaignOptions{
			MaxStates:     cfg.camp.States,
			Workers:       cfg.workers,
			Survivability: cfg.survive,
		})
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(camp.Format())
		if err := cfg.camp.WriteJSON(camp); err != nil {
			return err
		}
	}
	if cfg.verilogPath != "" {
		v, err := nocvi.GenerateVerilog(best.Top, nocvi.NetlistConfig{})
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.verilogPath, []byte(v), 0o644); err != nil {
			return err
		}
		fmt.Printf("[wrote %s]\n", cfg.verilogPath)
	}
	if cfg.jsonPath != "" {
		f, err := os.Create(cfg.jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := nocvi.WriteTopologyJSON(f, best.Top); err != nil {
			return err
		}
		fmt.Printf("[wrote %s]\n", cfg.jsonPath)
	}
	return nil
}
