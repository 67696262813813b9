// Command nocsim synthesizes a benchmark's NoC and drives it with the
// cycle-level simulator, optionally power-gating voltage islands to
// demonstrate that the topology survives island shutdown.
//
//	nocsim -bench d26_media -islands 6 -duration 50000
//	nocsim -bench d26_media -islands 6 -off 2,3 -scale 2.0
//	nocsim -bench d26_media -campaign
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"nocvi"
	"nocvi/internal/cliflags"
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
	camp            *cliflags.CampaignFlags
	duration, scale float64
	offList, trace  string
}

// newConfig registers nocsim's flags on fs and returns the config they
// fill once fs.Parse has run.
func newConfig(fs *flag.FlagSet) *config {
	cfg := &config{
		spec:  cliflags.Spec(fs),
		synth: cliflags.Synth(fs),
		camp:  cliflags.Campaign(fs),
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

	if cfg.camp.Wanted() {
		// The simulator's view of shutdown: the campaign with SimVerify
		// checks delivery under every power state, not just the one -off
		// mask a single run exercises.
		rep, err := nocvi.RunCampaignCached(store, top, nocvi.CampaignOptions{
			MaxStates:     cfg.camp.States,
			SimVerify:     true,
			Workers:       cfg.synth.Workers,
			Survivability: cfg.synth.Survive,
		})
		if err != nil {
			return err
		}
		fmt.Print(rep.Format())
		if err := cfg.camp.WriteJSON(rep); err != nil {
			return err
		}
		if !rep.OK() {
			return fmt.Errorf("shutdown invariant violated in %d power state(s)", rep.InvariantViolations)
		}
		return nil
	}

	off := make([]bool, len(spec.Islands))
	if cfg.offList != "" {
		for _, tok := range strings.Split(cfg.offList, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || id < 0 || id >= len(spec.Islands) {
				return fmt.Errorf("bad island id %q", tok)
			}
			if !spec.Islands[id].Shutdownable {
				return fmt.Errorf("island %d (%s) is not shutdownable", id, spec.Islands[id].Name)
			}
			off[id] = true
		}
	}

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
			return err
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
			return err
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
		if err := nocvi.VerifyShutdown(top, off); err != nil {
			return fmt.Errorf("shutdown verification FAILED: %w", err)
		}
		onW, offW, frac, err := nocvi.ShutdownSavings(top, cfg.offList, off)
		if err != nil {
			return err
		}
		fmt.Printf("\nshutdown verified: all remaining traffic delivered\n")
		fmt.Printf("system power %.1f mW -> %.1f mW (%.1f%% saved)\n", onW*1e3, offW*1e3, frac*100)
	}
	return nil
}
