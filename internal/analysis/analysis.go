// Package analysis is a minimal static-analysis framework for the
// nocvi tree, built exclusively on the standard library (go/parser,
// go/ast, go/types and the source go/importer — no golang.org/x/tools).
//
// The framework exists to enforce, mechanically, the coding discipline
// the synthesis engine's guarantees rest on: bit-identical parallel
// sweeps, injective cache keys, and the paper's tie-break-sensitive
// argmin over Pareto points. An Analyzer inspects one type-checked
// package at a time through a Pass and reports Diagnostics; the Run
// entry point executes a set of analyzers over loaded packages,
// applies suppression directives, and returns the surviving
// diagnostics in deterministic order.
//
// # Suppression directives
//
// A finding can be silenced with a line comment of the form
//
//	//noclint:ignore <analyzer> <reason...>
//
// either trailing the offending line or standing alone on the line
// directly above it. The analyzer name must be one of the registered
// analyzers and the reason is mandatory; malformed or unknown
// directives are themselves reported (and cannot be suppressed), so a
// typo'd suppression fails loudly instead of silently masking a real
// finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// An Analyzer is one named check. Run inspects a single package via the
// Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	Name string // short lower-case identifier, used in diagnostics and directives
	Doc  string // one-paragraph description of the invariant the check protects
	Run  func(*Pass)
}

// A Diagnostic is one finding at a resolved source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass carries one type-checked package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	PkgPath  string
	Pkg      *types.Package
	Info     *types.Info
	// Scope is the derived hot-path scope consulted by the scoped
	// analyzers (wallclock, maprange, bannedcall); nil means
	// everything is in scope.
	Scope *Scope

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// PkgBase returns the last segment of the package import path. Scoped
// analyzers (maprange, wallclock, bannedcall) match package identity on
// this segment so the same rules apply to the real tree and to golden
// testdata fixtures.
func (p *Pass) PkgBase() string { return path.Base(p.PkgPath) }

// Analyzers is the full registered suite, in reporting order.
var Analyzers = []*Analyzer{MapRange, FloatEq, ErrDrop, WallClock, BannedCall, GoroutineLeak, ScratchCopy, SortStability, DetFlow, PoolEscape, NarrowID}

// UnusedDirective is a well-formed //noclint:ignore directive that
// suppressed nothing: every analyzer it names ran and none of them
// reported a diagnostic on its line. Stale suppressions hide future
// regressions, so noclint -unused surfaces them for removal.
type UnusedDirective struct {
	Pos      token.Position
	Analyzer string
	// Misplaced lists the analyzers that DID report on the directive's
	// target lines. A non-empty list almost always means the author
	// meant to suppress one of those and typo'd or mixed up the name:
	// the directive neither applied nor aged out — it never matched at
	// all.
	Misplaced []string
}

// Run executes every analyzer over every package, filters findings
// through //noclint:ignore directives, and returns the survivors sorted
// by file, line, column, analyzer and message.
//
// Packages are analyzed concurrently by a worker pool bounded at
// GOMAXPROCS: analyzer passes over distinct packages are independent
// (analyzers only read shared tables, token.FileSet position lookups
// are concurrency-safe, and each package's types.Info is immutable
// after loading), and the final total-order sort makes the output
// independent of execution order.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunUnused(pkgs, analyzers)
	return diags
}

// RunUnused is Run plus a report of directives that suppressed nothing.
// Only directives naming analyzers in this run's set are judged: a
// directive for an unselected analyzer cannot prove itself useful here
// and is neither used nor unused.
func RunUnused(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []UnusedDirective) {
	return RunWith(pkgs, analyzers, RunOptions{})
}

// RunOptions configures RunWith.
type RunOptions struct {
	// Workers bounds the analyzer worker pool; <=0 selects GOMAXPROCS.
	// The report is byte-identical at every width — pinned by test —
	// so this is purely a throughput knob.
	Workers int
	// Scope is the hot-path scope for the scoped analyzers. Nil
	// derives it from EngineRoots over pkgs; FullScope puts everything
	// in scope (fixture tests).
	Scope *Scope
}

// RunWith executes analyzers over pkgs under explicit options; see Run
// and RunUnused for the defaults.
func RunWith(pkgs []*Package, analyzers []*Analyzer, opts RunOptions) ([]Diagnostic, []UnusedDirective) {
	// Directives are validated against the full registered suite, not
	// just the analyzers of this run: a directive naming a real but
	// currently-unselected analyzer is fine, a typo never is.
	known := make(map[string]bool, len(Analyzers)+len(analyzers))
	for _, a := range Analyzers {
		known[a.Name] = true
	}
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
		ran[a.Name] = true
	}
	scope := opts.Scope
	if scope == nil {
		scope = DeriveScope(pkgs)
	}
	type pkgResult struct {
		diags  []Diagnostic
		unused []UnusedDirective
	}
	perPkg := make([]pkgResult, len(pkgs))
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	if workers <= 1 {
		for i, pkg := range pkgs {
			perPkg[i].diags, perPkg[i].unused = runPackage(pkg, analyzers, scope, known, ran)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(pkgs) {
						return
					}
					perPkg[i].diags, perPkg[i].unused = runPackage(pkgs[i], analyzers, scope, known, ran)
				}
			}()
		}
		wg.Wait()
	}
	var all []Diagnostic
	var unused []UnusedDirective
	for _, r := range perPkg {
		all = append(all, r.diags...)
		unused = append(unused, r.unused...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	sort.Slice(unused, func(i, j int) bool {
		a, b := unused[i], unused[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return all, unused
}

// runPackage applies every analyzer to one package, filters the
// findings through the package's suppression directives, and reports
// the directives (for analyzers in the run set) that fired on nothing.
// It touches no shared mutable state, which is what lets RunWith fan
// packages out to workers.
func runPackage(pkg *Package, analyzers []*Analyzer, scope *Scope, known, ran map[string]bool) ([]Diagnostic, []UnusedDirective) {
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			PkgPath:  pkg.Path,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Scope:    scope,
			diags:    &diags,
		})
	}
	dirs, bad := parseDirectives(pkg, known)
	out := bad
	for _, d := range diags {
		if !dirs.suppresses(d) {
			out = append(out, d)
		}
	}
	unused := dirs.unused(ran)
	markMisplaced(unused, out)
	return out, unused
}

// markMisplaced annotates unused directives whose target lines carry
// surviving findings from other analyzers: a directive at line L
// suppresses findings on L (trailing form) and L+1 (standalone form),
// so a finding there from a different analyzer means the directive's
// name is wrong, not merely stale.
func markMisplaced(unused []UnusedDirective, surviving []Diagnostic) {
	for i := range unused {
		u := &unused[i]
		seen := map[string]bool{}
		for _, d := range surviving {
			if d.Pos.Filename != u.Pos.Filename || d.Analyzer == u.Analyzer {
				continue
			}
			if d.Pos.Line != u.Pos.Line && d.Pos.Line != u.Pos.Line+1 {
				continue
			}
			if !seen[d.Analyzer] {
				seen[d.Analyzer] = true
				u.Misplaced = append(u.Misplaced, d.Analyzer)
			}
		}
		sort.Strings(u.Misplaced)
	}
}

// directiveKey identifies one source line of one file.
type directiveKey struct {
	file string
	line int
}

// directiveEntry is one analyzer named by one directive, remembering
// where the directive stands and whether it ever suppressed anything.
type directiveEntry struct {
	pos  token.Position
	used bool
}

// directiveIndex maps a source line to the analyzers suppressed there.
type directiveIndex map[directiveKey]map[string]*directiveEntry

// suppresses reports whether a directive on the diagnostic's line (a
// trailing comment) or on the line above (a standalone comment) names
// the diagnostic's analyzer, marking every matching entry as used so a
// duplicated directive is not later reported as stale.
func (idx directiveIndex) suppresses(d Diagnostic) bool {
	hit := false
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		if e := idx[directiveKey{d.Pos.Filename, line}][d.Analyzer]; e != nil {
			e.used = true
			hit = true
		}
	}
	return hit
}

// unused returns the entries for analyzers in ran that never
// suppressed a diagnostic.
func (idx directiveIndex) unused(ran map[string]bool) []UnusedDirective {
	var out []UnusedDirective
	for _, byName := range idx {
		for name, e := range byName {
			if ran[name] && !e.used {
				out = append(out, UnusedDirective{Pos: e.pos, Analyzer: name})
			}
		}
	}
	return out
}

// parseDirectives scans every comment of the package for
// //noclint:ignore directives. Well-formed directives land in the
// returned index; malformed ones (missing analyzer, unknown analyzer,
// or missing reason) are returned as diagnostics from the framework
// itself under the name "noclint".
func parseDirectives(pkg *Package, known map[string]bool) (directiveIndex, []Diagnostic) {
	idx := directiveIndex{}
	var bad []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		bad = append(bad, Diagnostic{
			Pos:      pkg.Fset.Position(pos),
			Analyzer: "noclint",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue // block comments do not carry directives
				}
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "noclint:ignore")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					report(c.Pos(), "malformed directive: //noclint:ignore needs an analyzer name and a reason")
					continue
				}
				name := fields[0]
				if !known[name] {
					report(c.Pos(), "directive names unknown analyzer %q", name)
					continue
				}
				if len(fields) < 2 {
					report(c.Pos(), "directive suppressing %s has no reason; justify the suppression", name)
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := directiveKey{pos.Filename, pos.Line}
				if idx[key] == nil {
					idx[key] = map[string]*directiveEntry{}
				}
				idx[key][name] = &directiveEntry{pos: pos}
			}
		}
	}
	return idx, bad
}
