package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parse returns the config nocsynth builds from the command line args.
func parse(t *testing.T, args ...string) *config {
	t.Helper()
	fs := flag.NewFlagSet("nocsynth", flag.ContinueOnError)
	cfg := newConfig(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestRunBenchmarkWithArtifacts(t *testing.T) {
	dir := t.TempDir()
	cfg := parse(t, "-bench", "d16_industrial", "-verify",
		"-dot", filepath.Join(dir, "t.dot"),
		"-svg", filepath.Join(dir, "t.svg"),
		"-json", filepath.Join(dir, "t.json"))
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"t.dot", "t.svg", "t.json"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(data) == 0 {
			t.Fatalf("%s empty", f)
		}
	}
}

func TestRunCampaign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	if err := run(context.Background(), parse(t, "-bench", "d16_industrial", "-campaign", "-campaign-json", path)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"invariant_violations": 0`) {
		t.Fatalf("campaign JSON missing a clean invariant count:\n%s", data)
	}
}

func TestRunCampaignJSONSurvivable(t *testing.T) {
	// A JSON path alone selects campaign mode; at -survive 1 the written
	// report must carry the zero-reroute contract for bench2json's
	// -survive-floor gate.
	path := filepath.Join(t.TempDir(), "campaign.json")
	if err := run(context.Background(), parse(t, "-bench", "d16_industrial", "-campaign-json", path, "-survive", "1")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"invariant_violations": 0`, `"survivability": 1`, `"zero_reroute"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("campaign JSON missing %s:\n%s", want, data)
		}
	}
}

func TestRunVerilogExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "noc.v")
	cfg := parse(t, "-bench", "d16_industrial", "-method", "communication", "-islands", "3", "-verilog", path)
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "module noc_top") {
		t.Fatal("netlist missing noc_top")
	}
}

func TestRunSpecRoundTrip(t *testing.T) {
	specPath := filepath.Join(t.TempDir(), "spec.json")
	// Dump a benchmark as a template.
	if err := run(context.Background(), parse(t, "-bench", "d16_industrial", "-save-spec", specPath)); err != nil {
		t.Fatal(err)
	}
	// Load and synthesize it.
	if err := run(context.Background(), parse(t, "-spec", specPath)); err != nil {
		t.Fatal(err)
	}
	// Repartition a loaded spec.
	if err := run(context.Background(), parse(t, "-spec", specPath, "-method", "spectral", "-islands", "3", "-no-mid")); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(context.Background(), parse(t, "-bench", "missing")); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if err := run(context.Background(), parse(t, "-spec", "/nonexistent/spec.json")); err == nil {
		t.Fatal("missing spec accepted")
	}
	if err := run(context.Background(), parse(t, "-bench", "d16_industrial", "-method", "bogus", "-islands", "3")); err == nil {
		t.Fatal("unknown method accepted")
	}
}
