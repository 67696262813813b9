// Command nocsim synthesizes a benchmark's NoC and drives it with the
// cycle-level simulator, optionally power-gating voltage islands to
// demonstrate that the topology survives island shutdown.
//
//	nocsim -bench d26_media -islands 6 -duration 50000
//	nocsim -bench d26_media -islands 6 -off 1,4 -scale 2.0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"nocvi"
	"nocvi/internal/cliflags"
	"nocvi/internal/sim"
)

func main() {
	cfg := newConfig(flag.CommandLine)
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "nocsim:", err)
		os.Exit(1)
	}
}

// config is nocsim's command line, filled by flag parsing.
type config struct {
	spec            *cliflags.SpecFlags
	synth           *cliflags.SynthFlags
	duration, scale float64
	offList, trace  string
}

// newConfig registers nocsim's flags on fs and returns the config they
// fill once fs.Parse has run.
func newConfig(fs *flag.FlagSet) *config {
	cfg := &config{
		spec:  cliflags.Spec(fs),
		synth: cliflags.Synth(fs),
	}
	fs.Float64Var(&cfg.duration, "duration", 20000, "injection horizon in ns")
	fs.Float64Var(&cfg.scale, "scale", 1.0, "injection scale relative to spec bandwidths")
	fs.StringVar(&cfg.offList, "off", "", "comma-separated island IDs to power gate")
	fs.StringVar(&cfg.trace, "trace", "", "write a per-packet CSV trace to this file")
	return cfg
}

func run(cfg *config) error {
	spec, err := cfg.spec.Select("")
	if err != nil {
		return err
	}
	store, err := cfg.synth.OpenCache()
	if err != nil {
		return err
	}
	res, err := nocvi.SynthesizeCached(context.Background(), store, spec, nocvi.DefaultLibrary(), nocvi.Options{AllowIntermediate: true, Workers: cfg.synth.Workers, Survivability: cfg.synth.Survive})
	if err != nil {
		return err
	}
	if store != nil {
		fmt.Printf("cache: %s\n", res.CacheStats)
	}
	top := res.Best().Top

	off := make([]bool, len(spec.Islands))
	if cfg.offList != "" {
		for _, tok := range strings.Split(cfg.offList, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || id < 0 || id >= len(spec.Islands) {
				return fmt.Errorf("bad island id %q", tok)
			}
			off[id] = true
		}
	}

	// Simulate proves the mask shutdown-safe before it simulates, and
	// refuses a non-shutdownable island or a severed route.
	simCfg := nocvi.SimConfig{
		DurationNs:     cfg.duration,
		InjectionScale: cfg.scale,
		Off:            off,
	}
	var simRes *nocvi.SimResult
	if cfg.trace != "" {
		var tr *nocvi.PacketTrace
		simRes, tr, err = nocvi.SimulateTraced(top, simCfg)
		if err != nil {
			return cfg.simError(err)
		}
		f, err := os.Create(cfg.trace)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := nocvi.WriteTraceCSV(f, tr, spec); err != nil {
			return err
		}
		fmt.Printf("[wrote %s: %d packets]\n", cfg.trace, len(tr.Packets))
	} else {
		simRes, err = nocvi.Simulate(top, simCfg)
		if err != nil {
			return cfg.simError(err)
		}
	}

	fmt.Printf("%s: simulated %.0f ns at %.2fx load", spec.Name, cfg.duration, cfg.scale)
	gated := []string{}
	for i, o := range off {
		if o {
			gated = append(gated, spec.Islands[i].Name)
		}
	}
	if len(gated) > 0 {
		fmt.Printf(", islands gated: %s", strings.Join(gated, ", "))
	}
	fmt.Println()
	fmt.Printf("packets: %d sent, %d delivered\n", simRes.Sent, simRes.Deliver)
	fmt.Printf("mean header latency: %.1f ns (%.2f cycles averaged per flow)\n",
		simRes.MeanLatencyNs, simRes.MeanFlowLatencyCycles)

	fmt.Println("\nper-flow (top 10 by bandwidth):")
	fmt.Println("flow                     MB/s    sent   mean ns    max ns   cycles")
	shown := 0
	for _, fs := range simRes.PerFlow {
		if !fs.Active {
			continue
		}
		if shown >= 10 {
			break
		}
		shown++
		fmt.Printf("%-10s -> %-10s %6.0f %7d %9.1f %9.1f %8.2f\n",
			spec.Cores[fs.Flow.Src].Name, spec.Cores[fs.Flow.Dst].Name,
			fs.Flow.BandwidthBps/1e6, fs.Sent, fs.MeanLatencyNs, fs.MaxLatencyNs,
			fs.MeanLatencyCycles)
	}

	if len(gated) > 0 {
		onW, offW, frac, err := nocvi.ShutdownSavings(top, cfg.offList, off)
		if err != nil {
			return err
		}
		fmt.Printf("\nshutdown verified: all remaining traffic delivered\n")
		fmt.Printf("system power %.1f mW -> %.1f mW (%.1f%% saved)\n", onW*1e3, offW*1e3, frac*100)
	}
	return nil
}

// simError names the flags behind a simulation refused for its packet
// budget, so the user knows what to lower.
func (cfg *config) simError(err error) error {
	var budget *sim.PacketBudgetError
	if errors.As(err, &budget) {
		return fmt.Errorf("lower -scale %g or -duration %g: %w", cfg.scale, cfg.duration, err)
	}
	return err
}
