// Package export renders synthesized designs for human inspection: a
// Graphviz DOT view and an ASCII summary of the topology (Fig. 4), and
// an SVG plus ASCII sketch of the floorplan (Fig. 5).
package export

import (
	"fmt"
	"strings"

	"nocvi/internal/floorplan"
	"nocvi/internal/soc"
	"nocvi/internal/topology"
)

// islandPalette colors islands in the DOT/SVG output.
var islandPalette = []string{
	"#aecbfa", "#fad2cf", "#ceead6", "#fde293", "#d7aefb",
	"#fdc69c", "#a1e4f2", "#e8aecb", "#c5d1a5", "#d5d5d5",
}

func islandColor(i soc.IslandID) string {
	return islandPalette[int(i)%len(islandPalette)]
}

// TopologyDOT renders the topology as a Graphviz digraph with one
// cluster per voltage island (cores as boxes, switches as ellipses,
// bi-synchronous FIFO crossings as dashed edges).
func TopologyDOT(top *topology.Topology) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", top.Spec.Name)
	b.WriteString("  rankdir=LR;\n  node [fontsize=10];\n")
	for isl := 0; isl < top.NumIslands(); isl++ {
		name := "NoC_VI"
		shut := false
		if isl < len(top.Spec.Islands) {
			name = top.Spec.Islands[isl].Name
			shut = top.Spec.Islands[isl].Shutdownable
		}
		fmt.Fprintf(&b, "  subgraph cluster_isl%d {\n", isl)
		label := name
		if shut {
			label += " (shutdownable)"
		}
		fmt.Fprintf(&b, "    label=%q; style=filled; color=%q;\n",
			fmt.Sprintf("%s @ %.0f MHz", label, top.IslandFreqHz[isl]/1e6), islandColor(soc.IslandID(isl)))
		for i, s := range top.Switches {
			if int(s.Island) != isl {
				continue
			}
			shape := "ellipse"
			if s.Indirect {
				shape = "doublecircle"
			}
			in, out := top.SwitchPorts(topology.SwitchID(i))
			fmt.Fprintf(&b, "    sw%d [label=\"sw%d\\n%dx%d\" shape=%s];\n", i, i, in, out, shape)
		}
		for c, ci := range top.Spec.IslandOf {
			if int(ci) != isl {
				continue
			}
			fmt.Fprintf(&b, "    c%d [label=%q shape=box style=filled fillcolor=white];\n",
				c, top.Spec.Cores[c].Name)
		}
		b.WriteString("  }\n")
	}
	for c, sw := range top.SwitchOf {
		if sw >= 0 {
			fmt.Fprintf(&b, "  c%d -> sw%d [dir=both arrowsize=0.5 color=gray40];\n", c, sw)
		}
	}
	for _, l := range top.Links {
		style := "solid"
		extra := ""
		if top.CrossesIslands(l.From, l.To) {
			style = "dashed"
			extra = " label=\"FIFO\" fontsize=8"
		}
		fmt.Fprintf(&b, "  sw%d -> sw%d [style=%s%s];\n", l.From, l.To, style, extra)
	}
	b.WriteString("}\n")
	return b.String()
}

// TopologyText renders a compact ASCII description: per island, its
// clock, switches with attached cores, and the link list.
func TopologyText(top *topology.Topology) string {
	var b strings.Builder
	fmt.Fprintf(&b, "topology of %s: %d switches (%d indirect), %d links, %d routes\n",
		top.Spec.Name, len(top.Switches), top.IndirectSwitchCount(), len(top.Links), len(top.Routes))
	var ids []soc.CoreID
	for isl := 0; isl < top.NumIslands(); isl++ {
		name := "NoC_VI(always-on)"
		if isl < len(top.Spec.Islands) {
			name = top.Spec.Islands[isl].Name
			if top.Spec.Islands[isl].Shutdownable {
				name += "(shutdownable)"
			}
		}
		fmt.Fprintf(&b, "island %d %-24s @ %4.0f MHz\n", isl, name, top.IslandFreqHz[isl]/1e6)
		for i, s := range top.Switches {
			if int(s.Island) != isl {
				continue
			}
			var cores []string
			ids = top.SwitchCores(topology.SwitchID(i), ids)
			for _, c := range ids {
				cores = append(cores, top.Spec.Cores[c].Name)
			}
			kind := "direct  "
			if s.Indirect {
				kind = "indirect"
			}
			fmt.Fprintf(&b, "  sw%-3d %s size=%d cores=[%s]\n",
				i, kind, top.SwitchSize(topology.SwitchID(i)), strings.Join(cores, " "))
		}
	}
	for _, l := range top.Links {
		cross := ""
		if top.CrossesIslands(l.From, l.To) {
			cross = " [bi-sync FIFO]"
		}
		fmt.Fprintf(&b, "  link sw%d->sw%d %.0f/%.0f MB/s%s\n",
			l.From, l.To, l.TrafficBps/1e6, top.CapacityBps(l.From, l.To)/1e6, cross)
	}
	return b.String()
}

// FloorplanSVG renders the placement: island regions, core cells,
// switch markers, and link spans.
func FloorplanSVG(top *topology.Topology, p *floorplan.Placement) string {
	const scale = 60.0 // pixels per mm
	var b strings.Builder
	w, h := p.Die.W*scale, p.Die.H*scale
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n", w+20, h+20, w+20, h+20)
	fmt.Fprintf(&b, `<rect x="10" y="10" width="%.0f" height="%.0f" fill="none" stroke="black" stroke-width="2"/>`+"\n", w, h)
	// y flips: SVG origin is top-left.
	tx := func(x float64) float64 { return 10 + x*scale }
	ty := func(y float64) float64 { return 10 + (p.Die.H-y)*scale }
	for i, r := range p.IslandRects {
		name := "NoC_VI"
		if i < len(top.Spec.Islands) {
			name = top.Spec.Islands[i].Name
		}
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" stroke="gray"/>`+"\n",
			tx(r.X), ty(r.Y+r.H), r.W*scale, r.H*scale, islandColor(soc.IslandID(i)))
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11">%s</text>`+"\n",
			tx(r.X)+3, ty(r.Y+r.H)+12, name)
	}
	for _, l := range top.Links {
		a, c := p.SwitchPos[l.From], p.SwitchPos[l.To]
		dash := ""
		if top.CrossesIslands(l.From, l.To) {
			dash = ` stroke-dasharray="4,3"`
		}
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black" stroke-width="1"%s/>`+"\n",
			tx(a.X), ty(a.Y), tx(c.X), ty(c.Y), dash)
	}
	for c := range top.Spec.Cores {
		pos := p.CorePos[c]
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="14" height="10" fill="white" stroke="black"/>`+"\n",
			tx(pos.X)-7, ty(pos.Y)-5)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="7" text-anchor="middle">%s</text>`+"\n",
			tx(pos.X), ty(pos.Y)+3, top.Spec.Cores[c].Name)
	}
	for i, s := range top.Switches {
		pos := p.SwitchPos[i]
		fill := "black"
		if s.Indirect {
			fill = "red"
		}
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="4" fill="%s"/>`+"\n", tx(pos.X), ty(pos.Y), fill)
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// FloorplanText renders a coarse character-grid sketch of the die with
// island letters and switch markers.
func FloorplanText(top *topology.Topology, p *floorplan.Placement, cols int) string {
	if cols < 10 {
		cols = 40
	}
	rows := cols / 2
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(".", cols))
	}
	put := func(pt floorplan.Point, ch byte) {
		c := int(pt.X / p.Die.W * float64(cols))
		r := int((p.Die.H - pt.Y) / p.Die.H * float64(rows))
		if c >= cols {
			c = cols - 1
		}
		if r >= rows {
			r = rows - 1
		}
		if c < 0 {
			c = 0
		}
		if r < 0 {
			r = 0
		}
		grid[r][c] = ch
	}
	for i, r := range p.IslandRects {
		ch := byte('A' + i%26)
		steps := 12
		for s := 0; s <= steps; s++ {
			f := float64(s) / float64(steps)
			put(floorplan.Point{X: r.X + f*r.W, Y: r.Y}, ch)
			put(floorplan.Point{X: r.X + f*r.W, Y: r.Y + r.H}, ch)
			put(floorplan.Point{X: r.X, Y: r.Y + f*r.H}, ch)
			put(floorplan.Point{X: r.X + r.W, Y: r.Y + f*r.H}, ch)
		}
	}
	for c := range top.Spec.Cores {
		put(p.CorePos[c], 'o')
	}
	for i, s := range top.Switches {
		ch := byte('#')
		if s.Indirect {
			ch = '%'
		}
		put(p.SwitchPos[i], ch)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "floorplan of %s (%.1f x %.1f mm): o=core #=switch %%=indirect, letters=island borders\n",
		top.Spec.Name, p.Die.W, p.Die.H)
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	for i := 0; i < top.NumIslands(); i++ {
		name := "NoC_VI"
		if i < len(top.Spec.Islands) {
			name = top.Spec.Islands[i].Name
		}
		fmt.Fprintf(&b, "  %c = %s\n", 'A'+i%26, name)
	}
	return b.String()
}
