// Package mesh implements the classic alternative the paper argues
// against: mapping the application onto a regular 2D mesh NoC ([9]-[11]
// in the paper — energy-aware mapping of cores onto mesh tiles with
// dimension-ordered routing). It exists as a baseline: the mesh ignores
// voltage islands, so its XY routes freely traverse tiles that belong
// to shut-downable islands — the experiment quantifies how many flows
// would be severed by island shutdown, which is precisely the problem
// the paper's custom synthesis removes by construction.
//
// The mapper minimizes Σ bandwidth × hop-distance with a greedy
// placement followed by pairwise-swap refinement (the standard NMAP
// recipe); routing is XY (deadlock free on a mesh); only links that
// actually carry traffic are instantiated so the power comparison
// against custom topologies is fair.
package mesh

import (
	"fmt"
	"math"
	"sort"

	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/topology"
)

// Options configures the mesh baseline.
type Options struct {
	// Width/Height of the tile grid; zero derives a near-square grid
	// covering all cores.
	Width, Height int
}

// Result is the mesh baseline outcome with its rule violations — the
// mesh is *expected* to break the properties custom synthesis
// guarantees; the counts quantify by how much.
type Result struct {
	Top *topology.Topology

	// TileOf maps each core to its mesh tile index (y*Width+x).
	TileOf []int
	Width  int
	Height int

	// LatencyViolations counts flows whose zero-load latency exceeds
	// their constraint on the mesh.
	LatencyViolations int

	// ShutdownViolations counts (island, flow) pairs where gating a
	// shut-downable island would sever a flow between two other
	// islands — the paper's core problem.
	ShutdownViolations int

	// OverloadedLinks counts links whose traffic exceeds capacity at
	// the mesh clock.
	OverloadedLinks int
}

// Synthesize maps the spec onto a mesh and routes all flows XY.
func Synthesize(spec *soc.Spec, lib *model.Library, opt Options) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("mesh: %w", err)
	}
	n := len(spec.Cores)
	w, h := opt.Width, opt.Height
	if w <= 0 || h <= 0 {
		w = int(math.Ceil(math.Sqrt(float64(n))))
		h = (n + w - 1) / w
	}
	if w*h < n {
		return nil, fmt.Errorf("mesh: %dx%d grid cannot hold %d cores", w, h, n)
	}

	tileOf := mapCores(spec, w, h)

	// The mesh is one synchronous domain: its clock must sustain the
	// heaviest NI link, like any island; switches are 5-port (4
	// neighbours + NI), which bounds the feasible clock.
	egress, ingress := spec.AggregateCoreBandwidth()
	var peak float64
	for c := range spec.Cores {
		peak = math.Max(peak, math.Max(egress[c], ingress[c]))
	}
	freq := lib.MinFreqForBandwidth(peak)
	if lib.SwitchMaxFreqHz(6) < freq {
		return nil, fmt.Errorf("mesh: %d MHz exceeds a 6-port mesh router's reach", int(freq/1e6))
	}

	top := topology.New(spec, lib)
	for j := range spec.Islands {
		top.SetIslandFreq(soc.IslandID(j), freq)
	}
	// One switch per occupied tile... the mesh also needs switches on
	// pass-through tiles. Instantiate a switch for every tile that
	// hosts a core or relays traffic; to know which, compute XY paths
	// on the grid first.
	type xy struct{ x, y int }
	pos := func(tile int) xy { return xy{tile % w, tile / w} }
	pathTiles := func(a, b int) []int {
		pa, pb := pos(a), pos(b)
		var tiles []int
		x, y := pa.x, pa.y
		tiles = append(tiles, y*w+x)
		for x != pb.x {
			if x < pb.x {
				x++
			} else {
				x--
			}
			tiles = append(tiles, y*w+x)
		}
		for y != pb.y {
			if y < pb.y {
				y++
			} else {
				y--
			}
			tiles = append(tiles, y*w+x)
		}
		return tiles
	}

	needed := make([]bool, w*h)
	for c := range spec.Cores {
		needed[tileOf[c]] = true
	}
	for _, f := range spec.Flows {
		for _, t := range pathTiles(tileOf[f.Src], tileOf[f.Dst]) {
			needed[t] = true
		}
	}

	// A mesh switch inherits the island of its core, or of the nearest
	// core-by-tile for relay-only tiles (the mesh does not respect
	// islands — that is the point — but every switch physically sits in
	// some power domain).
	swAt := make([]topology.SwitchID, w*h)
	for i := range swAt {
		swAt[i] = -1
	}
	islandOfTile := func(tile int) soc.IslandID {
		best, bestD := soc.IslandID(0), math.MaxInt32
		pt := pos(tile)
		for c := range spec.Cores {
			pc := pos(tileOf[c])
			d := abs(pc.x-pt.x) + abs(pc.y-pt.y)
			if d < bestD {
				bestD = d
				best = spec.IslandOf[c]
			}
		}
		return best
	}
	coreAtTile := map[int]soc.CoreID{}
	for c := range spec.Cores {
		coreAtTile[tileOf[c]] = soc.CoreID(c)
	}
	for t := 0; t < w*h; t++ {
		if !needed[t] {
			continue
		}
		var isl soc.IslandID
		if c, ok := coreAtTile[t]; ok {
			isl = spec.IslandOf[c]
		} else {
			isl = islandOfTile(t)
		}
		swAt[t] = top.AddSwitch(isl, false)
	}
	for c := range spec.Cores {
		if err := top.AttachCore(soc.CoreID(c), swAt[tileOf[c]]); err != nil {
			return nil, err
		}
	}

	res := &Result{Top: top, TileOf: tileOf, Width: w, Height: h}
	var links []topology.LinkID
	for fi, f := range spec.Flows {
		tiles := pathTiles(tileOf[f.Src], tileOf[f.Dst])
		links = links[:0]
		for i := 1; i < len(tiles); i++ {
			from, to := swAt[tiles[i-1]], swAt[tiles[i]]
			lid, ok := top.FindLink(from, to)
			if !ok {
				var err error
				lid, err = top.AddLink(from, to)
				if err != nil {
					return nil, err
				}
			}
			links = append(links, lid)
		}
		if err := top.AddRoute(soc.FlowID(fi), links); err != nil {
			return nil, err
		}
		if f.MaxLatencyCycles > 0 && top.ZeroLoadLatencyCycles(&top.Routes[len(top.Routes)-1]) > f.MaxLatencyCycles {
			res.LatencyViolations++
		}
	}

	for _, l := range top.Links {
		if l.TrafficBps > top.CapacityBps(l.From, l.To)*(1+1e-9) {
			res.OverloadedLinks++
		}
	}

	// Count the shutdown-safety violations: for every shut-downable
	// island X, flows between two other islands whose route enters X.
	var walk []topology.SwitchID
	for i, isl := range spec.Islands {
		if !isl.Shutdownable {
			continue
		}
		for ri := range top.Routes {
			r := &top.Routes[ri]
			f := spec.Flows[r.Flow]
			srcI, dstI := spec.IslandOf[f.Src], spec.IslandOf[f.Dst]
			if srcI == soc.IslandID(i) || dstI == soc.IslandID(i) {
				continue
			}
			walk = top.Walk(walk, f, top.PathLinks(r.Links))
			for _, sw := range walk {
				if top.Switches[sw].Island == soc.IslandID(i) {
					res.ShutdownViolations++
					break
				}
			}
		}
	}
	return res, nil
}

// mapCores assigns cores to tiles minimizing Σ bw × Manhattan distance:
// greedy seeding from the heaviest communicator outward, then pairwise
// swap refinement to a local optimum. Deterministic.
func mapCores(spec *soc.Spec, w, h int) []int {
	n := len(spec.Cores)
	bw := make([][]float64, n)
	for i := range bw {
		bw[i] = make([]float64, n)
	}
	total := make([]float64, n)
	for _, f := range spec.Flows {
		bw[f.Src][f.Dst] += f.BandwidthBps
		bw[f.Dst][f.Src] += f.BandwidthBps
		total[f.Src] += f.BandwidthBps
		total[f.Dst] += f.BandwidthBps
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return total[order[a]] > total[order[b]] })

	dist := func(a, b int) int {
		return abs(a%w-b%w) + abs(a/w-b/w)
	}
	tileOf := make([]int, n)
	for i := range tileOf {
		tileOf[i] = -1
	}
	used := make([]bool, w*h)
	// Seed the heaviest core at the grid center.
	center := (h/2)*w + w/2
	tileOf[order[0]] = center
	used[center] = true
	for _, c := range order[1:] {
		bestTile, bestCost := -1, math.Inf(1)
		for t := 0; t < w*h; t++ {
			if used[t] {
				continue
			}
			cost := 0.0
			for o := 0; o < n; o++ {
				if tileOf[o] >= 0 && bw[c][o] > 0 {
					cost += bw[c][o] * float64(dist(t, tileOf[o]))
				}
			}
			if cost < bestCost {
				bestCost = cost
				bestTile = t
			}
		}
		tileOf[c] = bestTile
		used[bestTile] = true
	}

	// Pairwise swap refinement.
	objective := func() float64 {
		var sum float64
		for _, f := range spec.Flows {
			sum += f.BandwidthBps * float64(dist(tileOf[f.Src], tileOf[f.Dst]))
		}
		return sum
	}
	cur := objective()
	for pass := 0; pass < 10; pass++ {
		improved := false
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				tileOf[a], tileOf[b] = tileOf[b], tileOf[a]
				if c := objective(); c < cur-1e-9 {
					cur = c
					improved = true
				} else {
					tileOf[a], tileOf[b] = tileOf[b], tileOf[a]
				}
			}
		}
		if !improved {
			break
		}
	}
	return tileOf
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
