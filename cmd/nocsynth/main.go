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
	"time"

	"nocvi"
	"nocvi/internal/cliflags"
)

func main() {
	cfg := newConfig(flag.CommandLine)
	flag.Parse()

	if cfg.list {
		for _, n := range nocvi.Benchmarks() {
			fmt.Println(n)
		}
		return
	}
	// Ctrl-C / SIGTERM (and -timeout) cancel the synthesis sweep.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}
	stopProf, err := cfg.profile.Start()
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

// config is nocsynth's command line, filled by flag parsing.
type config struct {
	spec                       *cliflags.SpecFlags
	synth                      *cliflags.SynthFlags
	camp                       *cliflags.CampaignFlags
	profile                    *cliflags.ProfileFlags
	list                       bool
	specPath, saveSpec         string
	alpha                      float64
	noMid, noPrune, relax      bool
	width                      int
	node                       string
	fault, verify              bool
	dotPath, svgPath, jsonPath string
	verilogPath                string
	timeout                    time.Duration
}

// newConfig registers nocsynth's flags on fs and returns the config
// they fill once fs.Parse has run.
func newConfig(fs *flag.FlagSet) *config {
	cfg := &config{
		spec:    cliflags.Spec(fs),
		synth:   cliflags.Synth(fs),
		camp:    cliflags.Campaign(fs),
		profile: cliflags.Profile(fs),
	}
	fs.BoolVar(&cfg.list, "list", false, "list available benchmarks and exit")
	fs.StringVar(&cfg.specPath, "spec", "", "load a custom SoC spec (JSON) instead of a benchmark")
	fs.StringVar(&cfg.saveSpec, "save-spec", "", "dump the selected spec as JSON and exit (template for -spec)")
	fs.StringVar(&cfg.jsonPath, "json", "", "write the selected topology as JSON to this file")
	fs.StringVar(&cfg.verilogPath, "verilog", "", "write a structural Verilog netlist to this file")
	fs.BoolVar(&cfg.verify, "verify", false, "run the full design-rule sign-off on the selected point")
	fs.BoolVar(&cfg.fault, "fault", false, "sweep single-link failures on the selected point")
	fs.BoolVar(&cfg.relax, "relax", false, "retry an infeasible spec under the degradation ladder")
	fs.Float64Var(&cfg.alpha, "alpha", 0, "VCG bandwidth/latency weight in (0,1] (0 = default)")
	fs.BoolVar(&cfg.noMid, "no-mid", false, "forbid the intermediate NoC island")
	fs.IntVar(&cfg.width, "width", 32, "link data width in bits")
	fs.StringVar(&cfg.node, "node", "65nm", "technology node: 90nm|65nm|45nm")
	fs.StringVar(&cfg.dotPath, "dot", "", "write topology DOT to this file")
	fs.StringVar(&cfg.svgPath, "svg", "", "write floorplan SVG to this file")
	fs.BoolVar(&cfg.noPrune, "no-prune", false, "disable branch-and-bound pruning of the design-space sweep")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "abort synthesis after this duration (0 = none)")
	return cfg
}

func run(ctx context.Context, cfg *config) error {
	spec, err := cfg.spec.Select(cfg.specPath)
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
		lib, err = nocvi.LibraryForNode(cfg.node)
		if err != nil {
			return err
		}
	}
	lib.LinkWidthBits = cfg.width
	store, err := cfg.synth.OpenCache()
	if err != nil {
		return err
	}
	res, err := nocvi.SynthesizeCached(ctx, store, spec, lib, nocvi.Options{
		Alpha:             cfg.alpha,
		AllowIntermediate: !cfg.noMid,
		Workers:           cfg.synth.Workers,
		Relax:             cfg.relax,
		NoPrune:           cfg.noPrune,
		Survivability:     cfg.synth.Survive,
	})
	if err != nil {
		return err
	}
	if store != nil {
		fmt.Printf("cache: %s\n", res.CacheStats)
	}

	fmt.Printf("%s: %d cores, %d flows, %d islands (%s), intra-island bandwidth %.0f%%\n",
		spec.Name, len(spec.Cores), len(spec.Flows), len(spec.Islands), cfg.spec.Method,
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

	if cfg.dotPath != "" {
		if err := os.WriteFile(cfg.dotPath, []byte(nocvi.TopologyDOT(best.Top)), 0o644); err != nil {
			return err
		}
		fmt.Printf("[wrote %s]\n", cfg.dotPath)
	}
	if cfg.svgPath != "" {
		if err := os.WriteFile(cfg.svgPath, []byte(nocvi.FloorplanSVG(best.Top, best.Placement)), 0o644); err != nil {
			return err
		}
		fmt.Printf("[wrote %s]\n", cfg.svgPath)
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
			Workers:       cfg.synth.Workers,
			Survivability: cfg.synth.Survive,
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
