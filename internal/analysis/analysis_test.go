package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches expected-diagnostic annotations in fixture comments:
//
//	// want <analyzer> "<substring>"
//
// An annotation applies to the line it sits on. Several annotations may
// share one line.
var wantRe = regexp.MustCompile(`want\s+([a-z]+)\s+"([^"]+)"`)

func loadFixture(t *testing.T, patterns ...string) []*Package {
	t.Helper()
	loader, err := NewLoader(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.LoadPatterns(patterns...)
	if err != nil {
		t.Fatalf("LoadPatterns(%v): %v", patterns, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("LoadPatterns(%v) matched no packages", patterns)
	}
	return pkgs
}

// runGolden executes the analyzers over fixture packages and checks the
// produced diagnostics against the want annotations, in both
// directions: every diagnostic must be annotated and every annotation
// must fire. A disabled or broken analyzer therefore fails the test
// through its unmatched annotations. The per-analyzer golden tests run
// under FullScope so they exercise analyzer logic independently of
// reachability; runGoldenDerived exercises the derived scope itself.
func runGolden(t *testing.T, analyzers []*Analyzer, patterns ...string) {
	t.Helper()
	runGoldenScope(t, analyzers, FullScope, patterns...)
}

// runGoldenDerived is runGolden under the scope DeriveScope computes
// from EngineRoots over the loaded fixture packages.
func runGoldenDerived(t *testing.T, analyzers []*Analyzer, patterns ...string) {
	t.Helper()
	runGoldenScope(t, analyzers, nil, patterns...)
}

func runGoldenScope(t *testing.T, analyzers []*Analyzer, scope *Scope, patterns ...string) {
	t.Helper()
	pkgs := loadFixture(t, patterns...)
	diags, _ := RunWith(pkgs, analyzers, RunOptions{Scope: scope})

	type key struct {
		file string
		line int
	}
	type want struct {
		analyzer, substr string
		used             bool
	}
	wants := map[key][]*want{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						pos := pkg.Fset.Position(c.Pos())
						k := key{filepath.Base(pos.Filename), pos.Line}
						wants[k] = append(wants[k], &want{analyzer: m[1], substr: m[2]})
					}
				}
			}
		}
	}
	for _, d := range diags {
		k := key{filepath.Base(d.Pos.Filename), d.Pos.Line}
		matched := false
		for _, w := range wants[k] {
			if !w.used && w.analyzer == d.Analyzer && strings.Contains(d.Message, w.substr) {
				w.used, matched = true, true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d: missing %s diagnostic matching %q", k.file, k.line, w.analyzer, w.substr)
			}
		}
	}
}

func TestMapRangeGolden(t *testing.T) {
	runGolden(t, []*Analyzer{MapRange}, "./maprange/...")
}

func TestFloatEqGolden(t *testing.T) {
	runGolden(t, []*Analyzer{FloatEq}, "./floateq/...")
}

func TestErrDropGolden(t *testing.T) {
	runGolden(t, []*Analyzer{ErrDrop}, "./errdrop/...")
}

func TestWallClockGolden(t *testing.T) {
	runGolden(t, []*Analyzer{WallClock}, "./wallclock/...")
}

func TestBannedCallGolden(t *testing.T) {
	runGolden(t, []*Analyzer{BannedCall}, "./bannedcall/...")
}

func TestGoroutineLeakGolden(t *testing.T) {
	runGolden(t, []*Analyzer{GoroutineLeak}, "./goroutineleak/...")
}

func TestScratchCopyGolden(t *testing.T) {
	runGolden(t, []*Analyzer{ScratchCopy}, "./scratchcopy/...")
}

func TestSortStabilityGolden(t *testing.T) {
	runGolden(t, []*Analyzer{SortStability}, "./sortstability/...")
}

func TestPoolEscapeGolden(t *testing.T) {
	runGolden(t, []*Analyzer{PoolEscape}, "./poolescape/...")
}

func TestNarrowIDGolden(t *testing.T) {
	runGolden(t, []*Analyzer{NarrowID}, "./narrowid/...")
}

// TestDetFlowDerivedScope pins the tentpole behavior: with the scope
// derived from EngineRoots, the scoped analyzers flag sites reachable
// from the fixture's core.Synthesize (statically, through an interface
// dispatch, and through a func value) and stay silent on the
// byte-identical shapes in the unreached package.
func TestDetFlowDerivedScope(t *testing.T) {
	runGoldenDerived(t, []*Analyzer{MapRange, WallClock, BannedCall}, "./detflow/...")
}

// TestScopeWhyFixture drives Scope.Why over the detflow fixture: the
// flagged time.Now site in helper must come back with a call chain that
// starts at the core.Synthesize root and ends at helper.stamp.
func TestScopeWhyFixture(t *testing.T) {
	pkgs := loadFixture(t, "./detflow/...")
	scope := DeriveScope(pkgs)
	if missing := scope.Missing(); len(missing) != 3 {
		// Only core.Synthesize exists in the fixture; the other three
		// roots are expected absences in a partial load.
		t.Fatalf("Missing() = %v, want the three non-fixture roots", missing)
	}
	var file string
	var line int
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			pos := pkg.Fset.Position(f.Pos())
			if filepath.Base(pos.Filename) == "helper.go" {
				src, err := os.ReadFile(pos.Filename)
				if err != nil {
					t.Fatal(err)
				}
				for i, l := range strings.Split(string(src), "\n") {
					if strings.Contains(l, "time.Now()") {
						file, line = pos.Filename, i+1
					}
				}
			}
		}
	}
	if file == "" {
		t.Fatal("time.Now site not found in detflow/helper/helper.go")
	}
	chain, known, reachable := scope.Why(file, line, nil)
	if !known || !reachable {
		t.Fatalf("Why(%s:%d) = known=%v reachable=%v, want both true", file, line, known, reachable)
	}
	if !strings.HasPrefix(chain, "core.Synthesize ") {
		t.Errorf("call chain must start at the root, got:\n%s", chain)
	}
	if !strings.Contains(chain, "helper.stamp") {
		t.Errorf("call chain must end at helper.stamp, got:\n%s", chain)
	}

	// A site in the unreached package resolves to a known function that
	// is not reachable.
	for _, pkg := range pkgs {
		if filepath.Base(pkg.Path) != "unreached" {
			continue
		}
		pos := pkg.Fset.Position(pkg.Files[0].Pos())
		src, err := os.ReadFile(pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range strings.Split(string(src), "\n") {
			if strings.Contains(l, "time.Now()") {
				_, known, reachable := scope.Why(pos.Filename, i+1, nil)
				if !known || reachable {
					t.Errorf("unreached site: known=%v reachable=%v, want known and not reachable", known, reachable)
				}
			}
		}
	}
}

// TestMisplacedDirective pins the -unused misplaced report: a directive
// naming floateq on a line whose finding belongs to maprange is
// reported unused with maprange in its Misplaced list, and the maprange
// finding itself survives.
func TestMisplacedDirective(t *testing.T) {
	pkgs := loadFixture(t, "./misplaced/...")
	diags, unused := RunWith(pkgs, []*Analyzer{FloatEq, MapRange}, RunOptions{Scope: FullScope})
	if len(diags) != 1 || diags[0].Analyzer != "maprange" {
		t.Fatalf("expected the maprange finding to survive, got %v", diags)
	}
	if len(unused) != 1 {
		t.Fatalf("expected one unused directive, got %v", unused)
	}
	u := unused[0]
	if u.Analyzer != "floateq" {
		t.Errorf("unused analyzer = %q, want floateq", u.Analyzer)
	}
	if len(u.Misplaced) != 1 || u.Misplaced[0] != "maprange" {
		t.Errorf("Misplaced = %v, want [maprange]", u.Misplaced)
	}
}

// TestRunUnused: a directive that suppresses a live diagnostic is used,
// one that suppresses nothing is reported, and one naming an analyzer
// outside the run set is judged neither way.
func TestRunUnused(t *testing.T) {
	pkgs := loadFixture(t, "./unuseddir/...")
	diags, unused := RunWith(pkgs, []*Analyzer{FloatEq}, RunOptions{Scope: FullScope})
	if len(diags) != 0 {
		t.Fatalf("expected every diagnostic suppressed, got %v", diags)
	}
	if len(unused) != 1 {
		t.Fatalf("expected exactly one unused directive, got %v", unused)
	}
	u := unused[0]
	if u.Analyzer != "floateq" {
		t.Errorf("unused directive analyzer = %q, want floateq", u.Analyzer)
	}
	if filepath.Base(u.Pos.Filename) != "core.go" || u.Pos.Line != 12 {
		t.Errorf("unused directive at %s:%d, want core.go:12", filepath.Base(u.Pos.Filename), u.Pos.Line)
	}
	// With maprange in the run set too, its directive is still used (it
	// suppresses the range-over-map diagnostic), so the report is stable.
	diags, unused = RunWith(pkgs, []*Analyzer{FloatEq, MapRange}, RunOptions{Scope: FullScope})
	if len(diags) != 0 {
		t.Fatalf("expected every diagnostic suppressed, got %v", diags)
	}
	if len(unused) != 1 {
		t.Fatalf("expected one unused directive with maprange selected, got %v", unused)
	}
}

// TestDirectiveValidation runs the full suite so the framework's own
// "noclint" diagnostics for malformed suppressions are exercised.
func TestDirectiveValidation(t *testing.T) {
	runGolden(t, Analyzers, "./directives/...")
}

// TestUnscopedPackageIsExempt runs the full suite under a derived
// scope over a package no engine root reaches; the fixture carries no
// annotations, so any diagnostic fails the test.
func TestUnscopedPackageIsExempt(t *testing.T) {
	runGoldenDerived(t, Analyzers, "./unscoped/...")
}

// repoRoot walks up from the working directory to the enclosing go.mod
// (the real nocvi module).
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// TestSortedKeysExemptionIsLoadBearing pins the acceptance criterion
// that the maprange exemption logic is really what keeps the live tree
// clean: internal/soc produces no maprange findings as-is, and with the
// sorted-keys exemption disabled the collect-then-sort loop in
// usecase.go (the merged-flows key collection) must be flagged.
func TestSortedKeysExemptionIsLoadBearing(t *testing.T) {
	loader, err := NewLoader(repoRoot(t))
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.LoadPatterns("./internal/soc")
	if err != nil {
		t.Fatalf("LoadPatterns: %v", err)
	}
	if diags, _ := RunWith(pkgs, []*Analyzer{MapRange}, RunOptions{Scope: FullScope}); len(diags) != 0 {
		t.Fatalf("internal/soc should be maprange-clean with the exemption enabled, got:\n%v", diags)
	}

	disableSortedKeysExemption = true
	defer func() { disableSortedKeysExemption = false }()
	diags, _ := RunWith(pkgs, []*Analyzer{MapRange}, RunOptions{Scope: FullScope})
	found := false
	for _, d := range diags {
		if filepath.Base(d.Pos.Filename) == "usecase.go" && strings.Contains(d.Message, "range over map merged") {
			found = true
		}
	}
	if !found {
		t.Fatalf("disabling the sorted-keys exemption must flag the merged-flows loop in internal/soc/usecase.go, got:\n%v", diags)
	}
}

// TestDiagnosticsAreSorted pins the deterministic reporting order.
func TestDiagnosticsAreSorted(t *testing.T) {
	pkgs := loadFixture(t, "./maprange/...", "./floateq/...")
	diags, _ := RunWith(pkgs, Analyzers, RunOptions{Scope: FullScope})
	if len(diags) < 2 {
		t.Fatalf("expected several diagnostics, got %d", len(diags))
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Fatalf("diagnostics out of order: %s before %s", a, b)
		}
	}
}

// TestLoaderRejectsMissingDir pins the error path for a bad pattern.
func TestLoaderRejectsMissingDir(t *testing.T) {
	loader, err := NewLoader(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.LoadPatterns("./does-not-exist"); err == nil {
		t.Fatal("expected an error for a pattern with no Go files")
	}
}

// TestWalkSkipsNestedModules: the recursive pattern stops at a
// directory holding its own go.mod, as the go tool's ./... does.
func TestWalkSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	write := func(rel, body string) {
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module outer\n")
	write("a/a.go", "package a\n")
	write("nested/go.mod", "module outer/nested\n")
	write("nested/b.go", "package b\n")
	dirs := map[string]bool{}
	if err := walkGoDirs(root, false, dirs); err != nil {
		t.Fatal(err)
	}
	if !dirs[filepath.Join(root, "a")] || len(dirs) != 1 {
		t.Fatalf("walked %v, want only the outer module's package a", dirs)
	}
}
