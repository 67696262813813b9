package main

import (
	"flag"
	"os"
	"strings"
	"testing"
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
