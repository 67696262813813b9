// Package cliflags registers the flags shared by the CLIs
// (cmd/nocsynth, cmd/nocsim, cmd/nocbench). A knob that several
// binaries expose is registered here once — same name, same default,
// same help text — instead of once per main.go, so the binaries cannot
// silently drift apart:
//
//   - Spec: -bench, -method and -islands, plus the spec selection
//     behind them (nocsynth, nocsim);
//   - Synth: -workers, -survive, -cache-dir and -no-cache, plus cache
//     resolution (all three);
//   - Campaign: the power-state fault-campaign trio -campaign,
//     -campaign-states and -campaign-json (nocsynth);
//   - Profile: -cpuprofile and -memprofile, plus starting the
//     profilers (nocsynth, nocbench).
package cliflags

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"nocvi/internal/bench"
	"nocvi/internal/cache"
	"nocvi/internal/prof"
	"nocvi/internal/soc"
	"nocvi/internal/specio"
	"nocvi/internal/viplace"
)

// SpecFlags holds the shared spec-selection flags after flag parsing.
type SpecFlags struct {
	// Bench mirrors -bench: the bundled benchmark to synthesize.
	Bench string
	// Method mirrors -method: the island partitioning strategy.
	Method string
	// Islands mirrors -islands: the island count (0 = benchmark default).
	Islands int
}

// Spec registers -bench, -method and -islands on fs (flag.CommandLine
// in the CLIs) and returns the destination struct, populated once
// fs.Parse has run.
func Spec(fs *flag.FlagSet) *SpecFlags {
	s := &SpecFlags{}
	fs.StringVar(&s.Bench, "bench", "d26_media", "benchmark name")
	fs.StringVar(&s.Method, "method", "logical", "island partitioning: logical|communication|spectral")
	fs.IntVar(&s.Islands, "islands", 0, "voltage island count (0 = benchmark default)")
	return s
}

// Select returns the spec the flags name: the spec JSON at path when
// path is non-empty (nocsynth's -spec), otherwise the -bench benchmark
// with its default islands. With -islands above zero the cores are
// repartitioned into that many islands by -method — a benchmark from
// its flat, single-island form.
func (s *SpecFlags) Select(path string) (*soc.Spec, error) {
	var spec *soc.Spec
	var err error
	switch {
	case path != "":
		spec, err = specio.LoadSpec(path)
	case s.Islands == 0:
		return bench.Islanded(s.Bench)
	default:
		spec, err = bench.Flat(s.Bench)
	}
	if err != nil || s.Islands == 0 {
		return spec, err
	}
	return viplace.Partition(spec, viplace.Method(s.Method), s.Islands)
}

// SynthFlags holds the flags that shape every synthesis run a CLI
// makes, after flag parsing.
type SynthFlags struct {
	// Workers mirrors -workers: design-point evaluation goroutines.
	Workers int
	// Survive mirrors -survive: the survivability degree k. Every flow
	// is synthesized with k extra link-disjoint island-legal backup
	// routes, so any single link failure (k=1) is absorbed by
	// activating a pre-provisioned standby route — zero re-routing at
	// fault time.
	Survive int
	// CacheDir and NoCache mirror -cache-dir and -no-cache.
	CacheDir string
	NoCache  bool
}

// Synth registers -workers, -survive, -cache-dir and -no-cache on fs
// and returns the destination struct, populated once fs.Parse has run.
func Synth(fs *flag.FlagSet) *SynthFlags {
	s := &SynthFlags{}
	fs.IntVar(&s.Workers, "workers", 0, "design-point evaluation goroutines (0 = GOMAXPROCS, 1 = serial)")
	fs.IntVar(&s.Survive, "survive", 0, "survivability degree k: synthesize k link-disjoint backup routes per flow (0 = off)")
	fs.StringVar(&s.CacheDir, "cache-dir", "", "content-addressed result cache directory (default $"+cache.EnvDir+"; empty = off)")
	fs.BoolVar(&s.NoCache, "no-cache", false, "disable the result cache even when configured")
	return s
}

// OpenCache returns the result cache the flags select: -cache-dir, or
// $NOCVI_CACHE_DIR when it is empty, or nil (caching off) under
// -no-cache or when neither names a directory.
func (s *SynthFlags) OpenCache() (*cache.Store, error) { return cache.Resolve(s.CacheDir, s.NoCache) }

// CampaignFlags holds the -campaign trio after flag parsing.
type CampaignFlags struct {
	// Run mirrors -campaign: run the power-state fault campaign.
	Run bool
	// States mirrors -campaign-states: the power-state cap.
	States int
	// JSON mirrors -campaign-json: where to write the report.
	JSON string
}

// Campaign registers -campaign, -campaign-states and -campaign-json on
// fs and returns the destination struct, populated once fs.Parse has
// run.
func Campaign(fs *flag.FlagSet) *CampaignFlags {
	c := &CampaignFlags{}
	fs.BoolVar(&c.Run, "campaign", false, "run the power-state fault campaign on the selected design point")
	fs.IntVar(&c.States, "campaign-states", 0, "power-state cap for -campaign (0 = default, sampled above it)")
	fs.StringVar(&c.JSON, "campaign-json", "", "write the -campaign report as JSON to this file")
	return c
}

// Wanted reports whether a campaign run was requested: -campaign
// itself, or -campaign-json (a report file implies a run to produce
// it). A nil receiver never wants one, so callers that assemble their
// config by hand need not allocate the struct.
func (c *CampaignFlags) Wanted() bool { return c != nil && (c.Run || c.JSON != "") }

// WriteJSON writes the campaign report to the -campaign-json path when
// one was given, logging the write the way the CLIs' other artifact
// writers do. A nil error with no path is the no-op case.
func (c *CampaignFlags) WriteJSON(report any) error {
	if c.JSON == "" {
		return nil
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(c.JSON, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("[wrote %s]\n", c.JSON)
	return nil
}

// ProfileFlags holds -cpuprofile and -memprofile after flag parsing.
type ProfileFlags struct {
	CPU, Mem string
}

// Profile registers -cpuprofile and -memprofile on fs and returns the
// destination struct, populated once fs.Parse has run.
func Profile(fs *flag.FlagSet) *ProfileFlags {
	p := &ProfileFlags{}
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this file on exit")
	return p
}

// Start starts the profilers the flags ask for; see prof.Start for the
// contract of the returned stop function.
func (p *ProfileFlags) Start() (stop func() error, err error) { return prof.Start(p.CPU, p.Mem) }
