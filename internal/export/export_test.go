package export

import (
	"strconv"
	"strings"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/floorplan"
	"nocvi/internal/model"
	"nocvi/internal/topology"
)

func synthExample(t *testing.T) (*topology.Topology, *floorplan.Placement) {
	t.Helper()
	res, err := core.Synthesize(bench.Example(), model.Default65nm(), core.Options{
		AllowIntermediate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best()
	return best.Top, best.Placement
}

func TestTopologyDOT(t *testing.T) {
	top, _ := synthExample(t)
	dot := TopologyDOT(top)
	if !strings.HasPrefix(dot, "digraph") || !strings.HasSuffix(strings.TrimSpace(dot), "}") {
		t.Fatal("not a digraph")
	}
	for c := range top.Spec.Cores {
		if !strings.Contains(dot, top.Spec.Cores[c].Name) {
			t.Fatalf("core %s missing from DOT", top.Spec.Cores[c].Name)
		}
	}
	for i := range top.Switches {
		if !strings.Contains(dot, "sw"+strconv.Itoa(i)) {
			t.Fatalf("switch %d missing", i)
		}
	}
	if strings.Count(dot, "subgraph cluster_") != top.NumIslands() {
		t.Fatal("one cluster per island expected")
	}
	// inter-island links dashed with FIFO label
	hasCross := false
	for _, l := range top.Links {
		if top.CrossesIslands(l.From, l.To) {
			hasCross = true
		}
	}
	if hasCross && !strings.Contains(dot, "FIFO") {
		t.Fatal("crossing links not labelled")
	}
}

func TestTopologyText(t *testing.T) {
	top, _ := synthExample(t)
	txt := TopologyText(top)
	if !strings.Contains(txt, "island 0") || !strings.Contains(txt, "MHz") {
		t.Fatalf("text summary incomplete:\n%s", txt)
	}
	for _, isl := range top.Spec.Islands {
		if !strings.Contains(txt, isl.Name) {
			t.Fatalf("island %s missing", isl.Name)
		}
	}
	if !strings.Contains(txt, "link sw") {
		t.Fatal("links missing")
	}
}

func TestFloorplanSVG(t *testing.T) {
	top, pl := synthExample(t)
	svg := FloorplanSVG(top, pl)
	if !strings.HasPrefix(svg, "<svg") || !strings.Contains(svg, "</svg>") {
		t.Fatal("not an svg")
	}
	if strings.Count(svg, "<circle") != len(top.Switches) {
		t.Fatal("one circle per switch expected")
	}
	for _, c := range top.Spec.Cores {
		if !strings.Contains(svg, ">"+c.Name+"<") {
			t.Fatalf("core %s missing from SVG", c.Name)
		}
	}
}

func TestFloorplanText(t *testing.T) {
	top, pl := synthExample(t)
	txt := FloorplanText(top, pl, 60)
	if !strings.Contains(txt, "floorplan of") {
		t.Fatal("header missing")
	}
	if !strings.Contains(txt, "o") || !strings.Contains(txt, "#") {
		t.Fatal("cores or switches missing from sketch")
	}
	lines := strings.Split(strings.TrimSpace(txt), "\n")
	if len(lines) < 10 {
		t.Fatalf("sketch too small: %d lines", len(lines))
	}
	// tiny cols clamp
	if small := FloorplanText(top, pl, 3); !strings.Contains(small, "floorplan") {
		t.Fatal("cols clamp broken")
	}
}
