// Command noclint runs the project's static-analysis suite
// (internal/analysis) over the module: maprange, floateq, errdrop,
// wallclock, bannedcall, goroutineleak, scratchcopy, sortstability,
// detflow and poolescape — the checks that keep the synthesis engine
// deterministic and its hot paths free of known regressions.
//
// Usage:
//
//	noclint [-C dir] [-tests] [-unused] [-list] [-json] [-workers n]
//	        [-why file:line] [-surface check|update] [-surface-file path]
//	        [patterns...]
//
// Patterns follow the go tool's directory forms ("./...", the default,
// or "./internal/core"). Diagnostics print one per line as
//
//	file:line:col: analyzer: message
//
// with paths relative to the module root; -json switches to a
// machine-readable report. The exit status is 0 when the tree is clean,
// 1 when findings were reported, and 2 when the tree could not be
// loaded (parse or type error). Findings are suppressed in source with
// `//noclint:ignore <analyzer> <reason>` on the flagged line or the
// line above; -unused additionally reports suppressions that no longer
// suppress anything, calling out misplaced ones (the line has findings,
// but from a different analyzer) explicitly.
//
// The scoped analyzers (wallclock, maprange, bannedcall) apply only to
// functions reachable from the engine roots (see analysis.EngineRoots),
// derived from the interprocedural call graph; -why file:line prints
// the root→function call chain that put a position in scope.
//
// -surface check recomputes the engine-surface digest — a hash of the
// reachable hot-path source — and compares it against the checked-in
// sum file, demanding a cache.EngineVersion bump when the surface
// moved; -surface update re-records the file.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"nocvi/internal/analysis"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("noclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chdir := fs.String("C", ".", "module root to analyze (directory containing go.mod)")
	tests := fs.Bool("tests", false, "also analyze in-package _test.go files")
	unused := fs.Bool("unused", false, "warn about //noclint:ignore directives that suppress nothing")
	list := fs.Bool("list", false, "list the registered analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit the report as JSON (diagnostics + unused directives)")
	workers := fs.Int("workers", 0, "analyzer worker pool width (0 = GOMAXPROCS); never affects the report")
	why := fs.String("why", "", "explain how the function at file:line is reachable from an engine root, then exit")
	surface := fs.String("surface", "", `engine-surface digest mode: "check" or "update"`)
	surfaceFile := fs.String("surface-file", filepath.Join("artifacts", "engine-surface.sum"), "surface sum file, relative to the module root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var out bytes.Buffer
	if *list {
		for _, a := range analysis.Analyzers {
			fmt.Fprintf(&out, "%s: %s\n", a.Name, a.Doc)
		}
		return emit(stdout, stderr, &out, 0)
	}
	loader, err := analysis.NewLoader(*chdir)
	if err != nil {
		fmt.Fprintf(&out, "noclint: %v\n", err)
		return emit(stderr, stderr, &out, 2)
	}
	loader.IncludeTests = *tests
	rel := func(name string) string {
		if r, err := filepath.Rel(loader.Root, name); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
		return name
	}

	if *why != "" {
		return runWhy(stdout, stderr, &out, loader, rel, *why, fs.Args())
	}
	if *surface != "" {
		return runSurface(stdout, stderr, &out, loader, *surface, filepath.Join(loader.Root, *surfaceFile))
	}

	pkgs, err := loader.LoadPatterns(fs.Args()...)
	if err != nil {
		fmt.Fprintf(&out, "noclint: %v\n", err)
		return emit(stderr, stderr, &out, 2)
	}
	scope := analysis.DeriveScope(pkgs)
	if scope.Empty() {
		// besteffort: an advisory note; a broken stderr has nowhere to complain to.
		fmt.Fprintf(stderr, "noclint: note: no engine root (%s) in the loaded packages; the scoped analyzers (wallclock, maprange, bannedcall) are silent in this run\n",
			strings.Join(analysis.EngineRoots, ", "))
	}
	diags, stale := analysis.RunWith(pkgs, analysis.Analyzers, analysis.RunOptions{Workers: *workers, Scope: scope})
	if *jsonOut {
		writeJSON(&out, rel, diags, stale, *unused)
	} else {
		for _, d := range diags {
			fmt.Fprintf(&out, "%s:%d:%d: %s: %s\n", rel(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
		if *unused {
			for _, u := range stale {
				if len(u.Misplaced) > 0 {
					fmt.Fprintf(&out, "%s:%d: misplaced //noclint:ignore directive for %s (the line's findings belong to %s)\n",
						rel(u.Pos.Filename), u.Pos.Line, u.Analyzer, strings.Join(u.Misplaced, ", "))
					continue
				}
				fmt.Fprintf(&out, "%s:%d: unused //noclint:ignore directive for %s (suppresses nothing; remove it)\n",
					rel(u.Pos.Filename), u.Pos.Line, u.Analyzer)
			}
		}
	}
	code := 0
	if len(diags) > 0 {
		code = 1
	}
	return emit(stdout, stderr, &out, code)
}

// jsonDiagnostic is one finding in -json output.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonUnused is one stale or misplaced suppression in -json output.
type jsonUnused struct {
	File      string   `json:"file"`
	Line      int      `json:"line"`
	Analyzer  string   `json:"analyzer"`
	Misplaced []string `json:"misplaced,omitempty"`
}

// jsonReport is the top-level -json document.
type jsonReport struct {
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
	Unused      []jsonUnused     `json:"unused,omitempty"`
}

func writeJSON(out *bytes.Buffer, rel func(string) string, diags []analysis.Diagnostic, stale []analysis.UnusedDirective, unused bool) {
	report := jsonReport{Diagnostics: []jsonDiagnostic{}}
	for _, d := range diags {
		report.Diagnostics = append(report.Diagnostics, jsonDiagnostic{
			File: rel(d.Pos.Filename), Line: d.Pos.Line, Col: d.Pos.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		})
	}
	if unused {
		for _, u := range stale {
			report.Unused = append(report.Unused, jsonUnused{
				File: rel(u.Pos.Filename), Line: u.Pos.Line, Analyzer: u.Analyzer, Misplaced: u.Misplaced,
			})
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	// besteffort: encoding a plain struct to a bytes.Buffer cannot fail.
	enc.Encode(report)
}

// runWhy loads the patterns, derives the scope and explains the
// position's reachability. Exit codes: 0 reachable (chain printed),
// 1 known but unreachable, 2 unparseable position or no enclosing
// function.
func runWhy(stdout, stderr io.Writer, out *bytes.Buffer, loader *analysis.Loader, rel func(string) string, pos string, patterns []string) int {
	file, lineStr, ok := strings.Cut(pos, ":")
	line, err := strconv.Atoi(strings.TrimSpace(lineStr))
	if !ok || err != nil || line <= 0 {
		fmt.Fprintf(out, "noclint: -why wants file:line, got %q\n", pos)
		return emit(stderr, stderr, out, 2)
	}
	if !filepath.IsAbs(file) {
		file = filepath.Join(loader.Root, file)
	}
	pkgs, err := loader.LoadPatterns(patterns...)
	if err != nil {
		fmt.Fprintf(out, "noclint: %v\n", err)
		return emit(stderr, stderr, out, 2)
	}
	scope := analysis.DeriveScope(pkgs)
	chain, known, reachable := scope.Why(file, line, rel)
	switch {
	case !known:
		fmt.Fprintf(out, "noclint: no analyzed function encloses %s:%d (is the file inside the loaded patterns?)\n", rel(file), line)
		return emit(stderr, stderr, out, 2)
	case !reachable:
		fmt.Fprintf(out, "%s at %s:%d is not reachable from any engine root (%s); the scoped analyzers do not apply there\n",
			chain, rel(file), line, strings.Join(analysis.EngineRoots, ", "))
		return emit(stdout, stderr, out, 1)
	}
	fmt.Fprintf(out, "%s:%d is on the engine hot path:\n%s", rel(file), line, chain)
	return emit(stdout, stderr, out, 0)
}

// runSurface recomputes the engine-surface digest over the whole module
// and checks or updates the sum file. Exit codes: 0 ok/updated, 1 gate
// failure (check mode), 2 load or io error.
func runSurface(stdout, stderr io.Writer, out *bytes.Buffer, loader *analysis.Loader, mode, sumPath string) int {
	if mode != "check" && mode != "update" {
		fmt.Fprintf(out, "noclint: -surface wants \"check\" or \"update\", got %q\n", mode)
		return emit(stderr, stderr, out, 2)
	}
	// The surface is a whole-module property; partial patterns would
	// digest a partial engine.
	pkgs, err := loader.LoadPatterns("./...")
	if err != nil {
		fmt.Fprintf(out, "noclint: %v\n", err)
		return emit(stderr, stderr, out, 2)
	}
	current, err := analysis.ComputeSurface(pkgs)
	if err != nil {
		fmt.Fprintf(out, "noclint: computing engine surface: %v\n", err)
		return emit(stderr, stderr, out, 2)
	}
	if mode == "update" {
		if err := os.MkdirAll(filepath.Dir(sumPath), 0o755); err != nil {
			fmt.Fprintf(out, "noclint: %v\n", err)
			return emit(stderr, stderr, out, 2)
		}
		if err := os.WriteFile(sumPath, []byte(current.Format()), 0o644); err != nil {
			fmt.Fprintf(out, "noclint: %v\n", err)
			return emit(stderr, stderr, out, 2)
		}
		fmt.Fprintf(out, "recorded engine surface: version %d, %d hot-path functions\n", current.EngineVersion, current.Functions)
		return emit(stdout, stderr, out, 0)
	}
	data, err := os.ReadFile(sumPath)
	if err != nil {
		fmt.Fprintf(out, "noclint: engine-surface gate: %v; run noclint -surface update to record the baseline\n", err)
		return emit(stdout, stderr, out, 1)
	}
	recorded, err := analysis.ParseSurfaceFile(data)
	if err != nil {
		fmt.Fprintf(out, "noclint: engine-surface gate: %v; run noclint -surface update to re-record\n", err)
		return emit(stdout, stderr, out, 1)
	}
	if err := analysis.CheckSurface(current, recorded); err != nil {
		fmt.Fprintf(out, "noclint: engine-surface gate: %v\n", err)
		return emit(stdout, stderr, out, 1)
	}
	fmt.Fprintf(out, "engine surface unchanged: version %d, %d hot-path functions\n", current.EngineVersion, current.Functions)
	return emit(stdout, stderr, out, 0)
}

// emit flushes the buffered report to w; a failed flush trumps the
// analysis exit code, since a truncated report must not look clean.
func emit(w, stderr io.Writer, out *bytes.Buffer, code int) int {
	if _, err := w.Write(out.Bytes()); err != nil {
		// besteffort: last-resort note; if stderr is also broken there
		// is nothing left to report to.
		fmt.Fprintf(stderr, "noclint: writing report: %v\n", err)
		return 2
	}
	return code
}
