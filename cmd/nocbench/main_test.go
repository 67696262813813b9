package main

import (
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
		if err := run(exp, "", lib); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}

func TestRunWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	lib := model.Default65nm()
	if err := run("fig4", dir, lib); err != nil {
		t.Fatal(err)
	}
	if err := run("fig5", dir, lib); err != nil {
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
	if err := run("bogus", "", model.Default65nm()); err == nil {
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
