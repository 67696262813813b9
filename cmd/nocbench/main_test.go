package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nocvi/internal/model"
)

func TestRunSingleExperiments(t *testing.T) {
	lib := model.Default65nm()
	// The cheap experiments run individually; fig2/fig3 and tab1 are
	// covered by the internal/experiments tests and the root benches.
	for _, exp := range []string{"fig4", "fig5", "tab2", "tab3", "cmp-mesh", "abl-mid", "abl-buffer", "abl-dvs"} {
		if err := run(io.Discard, exp, "", lib); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}

func TestRunWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	lib := model.Default65nm()
	if err := run(io.Discard, "fig4", dir, lib); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, "fig5", dir, lib); err != nil {
		t.Fatal(err)
	}
	dot, err := os.ReadFile(filepath.Join(dir, "fig4_topology.dot"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(dot), "digraph") {
		t.Fatal("fig4 artifact not DOT")
	}
	svg, err := os.ReadFile(filepath.Join(dir, "fig5_floorplan.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(svg), "<svg") {
		t.Fatal("fig5 artifact not SVG")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(io.Discard, "bogus", "", model.Default65nm()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestExperimentTableIsTheOnlyIDList pins the table as the single
// source of experiment ids: every id dispatches to the entry that lists
// it, the -exp usage string and the package doc name every id, and an
// unknown id is rejected with the valid ones spelled out.
func TestExperimentTableIsTheOnlyIDList(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "package main")
	flags := "|" + usage() + "|"
	seen := map[string]bool{}
	for _, e := range table {
		for _, id := range e.ids {
			if seen[id] {
				t.Fatalf("id %q listed twice", id)
			}
			seen[id] = true
			sel, err := selectExp(id)
			if err != nil || len(sel) != 1 || !slices.Contains(sel[0].ids, id) {
				t.Fatalf("-exp %s does not dispatch to its entry (err %v)", id, err)
			}
			if !strings.Contains(flags, "|"+id+"|") {
				t.Fatalf("-exp usage %q does not name %q", usage(), id)
			}
			if !strings.Contains(doc, "//\tnocbench -exp "+id+" ") {
				t.Fatalf("package doc does not list -exp %s", id)
			}
		}
	}
	if all, err := selectExp("all"); err != nil || len(all) != len(table) {
		t.Fatalf("-exp all selects %d of %d experiments (err %v)", len(all), len(table), err)
	}
	_, err = selectExp("bogus")
	if err == nil || !strings.Contains(err.Error(), usage()) {
		t.Fatalf("unknown id not rejected with the valid ids: %v", err)
	}
}

// TestAllOutputPinned runs -exp all into a temporary -out directory and
// requires its output and both figure files to match artifacts/ byte
// for byte (`make artifacts` regenerates them). The output names the
// out directory in its "[wrote ...]" lines, which are masked back to
// "artifacts"; main's closing timing line is not part of run's output,
// but the blank line main prints before it is kept in the artifact.
func TestAllOutputPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run(&buf, "all", dir, model.Default65nm()); err != nil {
		t.Fatal(err)
	}
	got := strings.ReplaceAll(buf.String(), "[wrote "+dir+string(filepath.Separator), "[wrote artifacts/") + "\n"
	artifacts := filepath.Join("..", "..", "artifacts")
	pinned(t, "nocbench_all.txt", []byte(got), artifacts)
	for _, name := range []string{"fig4_topology.dot", "fig5_floorplan.svg"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		pinned(t, name, b, artifacts)
	}
}

// pinned fails t unless got equals the file name under dir, naming the
// first line that differs.
func pinned(t *testing.T, name string, got []byte, dir string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("%s differs at line %d:\n got %q\nwant %q", name, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", name, len(g), len(w))
}
