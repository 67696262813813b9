package main

import (
	"flag"
	"os"
	"strings"
	"testing"
	"time"
)

// parse returns the config nocsim builds from the command line args.
// Every test runs with -no-cache, so a configured cache directory in
// the environment cannot serve results.
func parse(t *testing.T, args ...string) *config {
	t.Helper()
	fs := flag.NewFlagSet("nocsim", flag.ContinueOnError)
	cfg := newConfig(fs)
	if err := fs.Parse(append([]string{"-no-cache"}, args...)); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestRunBasic(t *testing.T) {
	if err := run(parse(t, "-bench", "d16_industrial", "-duration", "5000")); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithTrace(t *testing.T) {
	path := t.TempDir() + "/trace.csv"
	if err := run(parse(t, "-bench", "d16_industrial", "-duration", "3000", "-trace", path)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "src,dst,") {
		t.Fatal("trace CSV malformed")
	}
}

func TestRunWithShutdown(t *testing.T) {
	// d26 logical-6: islands 0,1,4,5 are shutdownable (2,3 hold memory).
	if err := run(parse(t, "-bench", "d26_media", "-islands", "6", "-duration", "5000", "-off", "1")); err != nil {
		t.Fatal(err)
	}
	if err := run(parse(t, "-bench", "d26_media", "-islands", "6", "-duration", "5000", "-scale", "2.0", "-off", "1,4")); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(parse(t, "-bench", "missing", "-duration", "1000")); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	for _, off := range []string{"notanumber", "99"} {
		if err := run(parse(t, "-bench", "d26_media", "-islands", "6", "-duration", "1000", "-off", off)); err == nil {
			t.Fatalf("bad island id %q accepted", off)
		}
	}
	// Island 2 of the logical-6 partition holds memory: never gateable.
	err := run(parse(t, "-bench", "d26_media", "-islands", "6", "-duration", "1000", "-off", "2"))
	if err == nil || !strings.Contains(err.Error(), "not shutdownable") {
		t.Fatalf("gating a non-shutdownable island: err %v, want the shutdown check's refusal", err)
	}
}

// TestRunRefusesPacketBudget: a scale that plans billions of packets is
// refused at once, and the error names the flags to lower.
func TestRunRefusesPacketBudget(t *testing.T) {
	done := make(chan error, 1)
	go func() { done <- run(parse(t, "-bench", "d26_media", "-scale", "1e6")) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "lower -scale 1e+06 or -duration 20000") ||
			!strings.Contains(err.Error(), "above the cap") {
			t.Fatalf("-scale 1e6: err %v, want the packet budget refusal naming -scale and -duration", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("nocsim -scale 1e6 still running after 20 s")
	}
}
