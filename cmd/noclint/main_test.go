package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nocvi/internal/analysis"
)

func runNoclint(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(&out, &errb, args)
	return out.String(), errb.String(), code
}

// TestFixtureModuleEndToEnd drives the full pipeline — module
// discovery, source type-checking, all five analyzers, suppression,
// reporting — over the fixture module and pins one finding per
// analyzer.
func TestFixtureModuleEndToEnd(t *testing.T) {
	out, errOut, code := runNoclint(t, "-C", "testdata/fixturemod", "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings)\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	for _, frag := range []string{
		"core/core.go:15:2: maprange: range over map m",
		"core/core.go:33:9: bannedcall: call to fmt.Sprintf is banned on the engine hot path",
		"core/core.go:38:9: wallclock: time.Now on the engine hot path",
		"core/core.go:43:2: errdrop: error result of check is silently discarded",
		"core/core.go:50:11: floateq: == between float operands",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q\ngot:\n%s", frag, out)
		}
	}
	if strings.Contains(out, "core/core.go:55") {
		t.Errorf("suppressed floateq finding leaked into output:\n%s", out)
	}
	if got, want := strings.Count(strings.TrimSpace(out), "\n")+1, 5; got != want {
		t.Errorf("finding count = %d, want %d\n%s", got, want, out)
	}
}

// TestCleanPackageExitsZero pins the success path.
func TestCleanPackageExitsZero(t *testing.T) {
	out, errOut, code := runNoclint(t, "-C", "testdata/fixturemod", "./clean")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if out != "" {
		t.Fatalf("clean run should print nothing, got:\n%s", out)
	}
}

// TestIncludeTestsFlag proves -tests pulls _test.go files into scope:
// the fixture's test file compares floats exactly.
func TestIncludeTestsFlag(t *testing.T) {
	out, _, code := runNoclint(t, "-C", "testdata/fixturemod", "./core")
	if code != 1 || strings.Contains(out, "core_test.go") {
		t.Fatalf("without -tests, core_test.go must stay out of scope (code %d):\n%s", code, out)
	}
	out, _, code = runNoclint(t, "-C", "testdata/fixturemod", "-tests", "./core")
	if code != 1 || !strings.Contains(out, "core_test.go") {
		t.Fatalf("with -tests, the floateq finding in core_test.go must appear (code %d):\n%s", code, out)
	}
}

// TestListFlag pins the analyzer inventory.
func TestListFlag(t *testing.T) {
	out, _, code := runNoclint(t, "-list")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, name := range []string{"maprange:", "floateq:", "errdrop:", "wallclock:", "bannedcall:", "detflow:", "poolescape:"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %q:\n%s", name, out)
		}
	}
}

// TestMissingModuleExitsTwo pins the load-error path.
func TestMissingModuleExitsTwo(t *testing.T) {
	_, errOut, code := runNoclint(t, "-C", "testdata/nonexistent", "./...")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut, "noclint:") {
		t.Fatalf("stderr should carry the load error, got:\n%s", errOut)
	}
}

// TestRunIsOrderDeterministic pins that the worker-pool analyzer pass
// and the call-graph scope derivation yield byte-identical reports
// across repeated runs and every -workers width: the final sort in
// analysis.RunWith and the sorted BFS in callgraph, not goroutine
// scheduling, decide the output.
func TestRunIsOrderDeterministic(t *testing.T) {
	first, _, code := runNoclint(t, "-C", "testdata/fixturemod", "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	for i := 0; i < 3; i++ {
		out, _, _ := runNoclint(t, "-C", "testdata/fixturemod", "./...")
		if out != first {
			t.Fatalf("run %d diverged from run 0:\n--- first ---\n%s\n--- now ---\n%s", i+1, first, out)
		}
	}
	for _, w := range []string{"1", "2", "3", "8"} {
		out, _, code := runNoclint(t, "-C", "testdata/fixturemod", "-workers", w, "./...")
		if code != 1 || out != first {
			t.Fatalf("-workers %s diverged (code %d):\n--- default ---\n%s\n--- now ---\n%s", w, code, first, out)
		}
	}
}

// TestJSONOutput pins the -json report shape: every human-format
// finding appears as a structured diagnostic, and -unused folds the
// stale-directive report in.
func TestJSONOutput(t *testing.T) {
	out, _, code := runNoclint(t, "-C", "testdata/fixturemod", "-json", "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	var report struct {
		Diagnostics []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, out)
	}
	if len(report.Diagnostics) != 5 {
		t.Fatalf("diagnostics = %d, want 5:\n%s", len(report.Diagnostics), out)
	}
	seen := map[string]bool{}
	for _, d := range report.Diagnostics {
		if d.File != "core/core.go" || d.Line == 0 || d.Col == 0 || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
		seen[d.Analyzer] = true
	}
	for _, a := range []string{"maprange", "bannedcall", "wallclock", "errdrop", "floateq"} {
		if !seen[a] {
			t.Errorf("missing %s diagnostic in JSON output:\n%s", a, out)
		}
	}
}

// TestWhyFixture drives -why through the fixture module: a hot-path
// site prints a root→site chain, an unreachable site says so, and a
// position outside every function is a usage error.
func TestWhyFixture(t *testing.T) {
	// core/core.go:38 is the time.Now inside Stamp, reached from
	// Synthesize.
	out, _, code := runNoclint(t, "-C", "testdata/fixturemod", "-why", "core/core.go:38", "./...")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0:\n%s", code, out)
	}
	if !strings.Contains(out, "core.Synthesize") || !strings.Contains(out, "core.Stamp") {
		t.Errorf("-why chain must run core.Synthesize → core.Stamp, got:\n%s", out)
	}
	// clean/clean.go:5 is clean.Add, unreachable from every root.
	out, _, code = runNoclint(t, "-C", "testdata/fixturemod", "-why", "clean/clean.go:5", "./...")
	if code != 1 || !strings.Contains(out, "not reachable") {
		t.Fatalf("unreachable site: code = %d, want 1 with a not-reachable note:\n%s", code, out)
	}
	// Line 1 is the package clause of a file with no enclosing function.
	_, errOut, code := runNoclint(t, "-C", "testdata/fixturemod", "-why", "clean/clean.go:1", "./...")
	if code != 2 || !strings.Contains(errOut, "no analyzed function") {
		t.Fatalf("non-function position: code = %d, want 2:\n%s", code, errOut)
	}
}

// TestWhyRealTree pins the acceptance criterion on the live module: a
// reachable non-root function (found through the derived scope itself)
// gets a printed chain starting at an engine root.
func TestWhyRealTree(t *testing.T) {
	loader, err := analysis.NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns("./...")
	if err != nil {
		t.Fatal(err)
	}
	scope := analysis.DeriveScope(pkgs)
	var file string
	var line int
	for _, n := range scope.ReachableNodes() {
		if n.Decl == nil || n.Obj == nil {
			continue
		}
		if strings.Contains(n.Pos.Filename, "internal/route/") {
			file, line = n.Pos.Filename, n.Pos.Line
			break
		}
	}
	if file == "" {
		t.Fatal("no reachable function in internal/route; the engine stopped routing?")
	}
	out, _, code := runNoclint(t, "-C", "../..", "-why", file+":"+strconv.Itoa(line), "./...")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 for a reachable real-tree site:\n%s", code, out)
	}
	if !strings.Contains(out, "is on the engine hot path") {
		t.Errorf("-why must confirm reachability, got:\n%s", out)
	}
	hasRoot := false
	for _, root := range analysis.EngineRoots {
		if strings.Contains(out, root) {
			hasRoot = true
		}
	}
	if !hasRoot {
		t.Errorf("-why chain must start at an engine root, got:\n%s", out)
	}
}

// copyFixtureMod clones the fixture module into a temp dir so tests can
// mutate it.
func copyFixtureMod(t *testing.T) string {
	t.Helper()
	dst := t.TempDir()
	src := "testdata/fixturemod"
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// editFile rewrites one file through a string transform, failing the
// test when the transform is a no-op (the anchor text drifted).
func editFile(t *testing.T, path, old, new string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), old) {
		t.Fatalf("%s does not contain %q", path, old)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(data), old, new, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSurfaceGate drives the engine-surface digest through its life
// cycle on a mutable copy of the fixture module: record, clean check,
// hot-path mutation without a version bump (the gate's reason to
// exist), bump without re-record, and finally re-record.
func TestSurfaceGate(t *testing.T) {
	mod := copyFixtureMod(t)

	// No baseline yet: check fails and says how to record one.
	out, _, code := runNoclint(t, "-C", mod, "-surface", "check")
	if code != 1 || !strings.Contains(out, "-surface update") {
		t.Fatalf("check without a baseline: code = %d, want 1:\n%s", code, out)
	}
	out, _, code = runNoclint(t, "-C", mod, "-surface", "update")
	if code != 0 {
		t.Fatalf("update: code = %d, want 0:\n%s", code, out)
	}
	if _, err := os.Stat(filepath.Join(mod, "artifacts", "engine-surface.sum")); err != nil {
		t.Fatalf("sum file not written: %v", err)
	}
	out, _, code = runNoclint(t, "-C", mod, "-surface", "check")
	if code != 0 || !strings.Contains(out, "unchanged") {
		t.Fatalf("clean check: code = %d, want 0:\n%s", code, out)
	}

	// Mutate a hot-path function without bumping EngineVersion.
	editFile(t, filepath.Join(mod, "core", "core.go"), "Stamp() % 7", "Stamp() % 11")
	out, _, code = runNoclint(t, "-C", mod, "-surface", "check")
	if code != 1 || !strings.Contains(out, "without a cache.EngineVersion bump") {
		t.Fatalf("mutated surface, same version: code = %d, want 1 demanding a bump:\n%s", code, out)
	}

	// Bump the version: the gate now demands a re-record instead.
	editFile(t, filepath.Join(mod, "cache", "cache.go"), "EngineVersion = 1", "EngineVersion = 2")
	out, _, code = runNoclint(t, "-C", mod, "-surface", "check")
	if code != 1 || !strings.Contains(out, "re-record") {
		t.Fatalf("mutated surface, bumped version: code = %d, want 1 demanding a re-record:\n%s", code, out)
	}
	if _, _, code = runNoclint(t, "-C", mod, "-surface", "update"); code != 0 {
		t.Fatalf("re-record failed")
	}
	if out, _, code = runNoclint(t, "-C", mod, "-surface", "check"); code != 0 {
		t.Fatalf("check after re-record: code = %d, want 0:\n%s", code, out)
	}

	// A change outside the hot path (an unreachable function) must NOT
	// move the surface.
	editFile(t, filepath.Join(mod, "clean", "clean.go"), "return a + b", "return b + a")
	if out, _, code = runNoclint(t, "-C", mod, "-surface", "check"); code != 0 {
		t.Fatalf("cold-path edit moved the surface: code = %d:\n%s", code, out)
	}
}

// BenchmarkAnalyzeModule measures the wall-clock of the analyzer pass
// itself — every registered analyzer over every package of the real
// module, packages fanned out to the worker pool — with loading and
// type-checking kept outside the timed loop.
func BenchmarkAnalyzeModule(b *testing.B) {
	loader, err := analysis.NewLoader("../..")
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns("./...")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := analysis.Run(pkgs, analysis.Analyzers); len(diags) != 0 {
			b.Fatalf("tree not clean: %d findings", len(diags))
		}
	}
}
