// Package floorplan places a synthesized design on the die: voltage
// islands become contiguous rectangular regions (a slicing floorplan by
// recursive area bisection), cores occupy grid cells inside their
// island's region grouped by the switch they attach to, and switches sit
// at the centroid of their clients. From the placement the package
// derives the wire lengths the paper's step "the NoC components are
// inserted on the floorplan and the wire lengths, wire power and delay
// are calculated" needs: NI↔switch stubs and inter-switch link spans,
// all in Manhattan geometry.
//
// The placement is fully deterministic — identical inputs give identical
// floorplans — which keeps experiment results reproducible.
package floorplan

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"nocvi/internal/soc"
	"nocvi/internal/topology"
)

// Point is a position on the die in millimetres.
type Point struct{ X, Y float64 }

// Rect is an axis-aligned rectangle on the die (origin at lower-left).
type Rect struct{ X, Y, W, H float64 }

// Center returns the rectangle's center point.
func (r Rect) Center() Point { return Point{r.X + r.W/2, r.Y + r.H/2} }

// Area returns the rectangle area in mm².
func (r Rect) Area() float64 { return r.W * r.H }

// Contains reports whether p lies inside r (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X-1e-9 && p.X <= r.X+r.W+1e-9 && p.Y >= r.Y-1e-9 && p.Y <= r.Y+r.H+1e-9
}

// Manhattan returns the L1 distance between two points.
func Manhattan(a, b Point) float64 {
	return math.Abs(a.X-b.X) + math.Abs(a.Y-b.Y)
}

// Options tunes the floorplanner.
type Options struct {
	// WhitespaceFrac is the fractional area added to every island for
	// routing/power-grid whitespace. Zero selects 0.15.
	WhitespaceFrac float64

	// Annotate controls whether Place writes the computed link lengths
	// back into the topology's Link.LengthMM fields. Default true-like:
	// set SkipAnnotate to suppress.
	SkipAnnotate bool
}

func (o Options) whitespace() float64 {
	if o.WhitespaceFrac <= 0 {
		return 0.15
	}
	return o.WhitespaceFrac
}

// Placement is the result of floorplanning one topology.
type Placement struct {
	Die         Rect
	IslandRects []Rect  // indexed by island ID (incl. intermediate island)
	CorePos     []Point // indexed by core ID
	SwitchPos   []Point // indexed by switch ID
	NILengthMM  []float64
	// LinkLengthMM is indexed by link ID, parallel to top.Links.
	LinkLengthMM []float64
}

// Scratch holds the floorplanner's reusable working buffers — island
// areas, the slicing order, the per-island core gather/sort buffer and
// the centroid point accumulator — and the Placement PlaceWith returns,
// held by value and refilled on every call. A zero Scratch is ready to
// use; one Scratch must not be used by two goroutines concurrently.
// Sweeps that floorplan many candidate topologies reuse one Scratch per
// worker, so a warm placement allocates nothing.
type Scratch struct {
	areas []float64
	order []int
	cores []soc.CoreID
	pts   []Point

	// ids and tmp are the recursive bisection's working copies of the
	// island order: sliceRegions partitions ids in place using tmp as
	// the shuttle buffer, leaving the caller's order untouched.
	ids []int
	tmp []int

	// pl is the placement the last call returned.
	pl Placement
}

// Clone returns an exact-size copy of p that shares no storage with it.
func (p *Placement) Clone() *Placement {
	return &Placement{
		Die:          p.Die,
		IslandRects:  slices.Clip(slices.Clone(p.IslandRects)),
		CorePos:      slices.Clip(slices.Clone(p.CorePos)),
		SwitchPos:    slices.Clip(slices.Clone(p.SwitchPos)),
		NILengthMM:   slices.Clip(slices.Clone(p.NILengthMM)),
		LinkLengthMM: slices.Clip(slices.Clone(p.LinkLengthMM)),
	}
}

// zeroed returns buf resized to n zero elements, reusing its storage
// when large enough and otherwise growing it by append's amortized
// rule. The result is never nil, even for n == 0.
func zeroed[T any](buf []T, n int) []T {
	if buf == nil {
		buf = []T{}
	}
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// Place floorplans the topology. Every core must be attached to a
// switch.
func Place(top *topology.Topology, opt Options) (*Placement, error) {
	return placeWithOrder(top, opt, nil, nil)
}

// PlaceWith is Place drawing every buffer from sc, which may be reused
// across calls. The returned Placement belongs to sc: the next call
// through sc refills it, so a caller that keeps it longer takes a
// Clone.
func PlaceWith(top *topology.Topology, opt Options, sc *Scratch) (*Placement, error) {
	return placeWithOrder(top, opt, nil, sc)
}

// placeWithOrder floorplans using the given island slicing order (nil
// selects descending area, the default heuristic), drawing temporaries
// from sc (nil allocates fresh buffers).
func placeWithOrder(top *topology.Topology, opt Options, order []int, sc *Scratch) (*Placement, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	spec := top.Spec
	for c := range spec.Cores {
		if top.SwitchOf[c] < 0 {
			return nil, fmt.Errorf("floorplan: core %d (%s) unattached", c, spec.Cores[c].Name)
		}
	}
	nIsl := top.NumIslands()
	sc.areas = islandAreasInto(sc.areas[:0], top, opt)
	areas := sc.areas

	var total float64
	for _, a := range areas {
		total += a
	}
	die := Rect{X: 0, Y: 0, W: math.Sqrt(total), H: math.Sqrt(total)}

	// Slice the die among islands by recursive area bisection over the
	// island list sorted by descending area (stable on ID) unless the
	// caller supplies an explicit order.
	if order == nil {
		if cap(sc.order) < nIsl {
			sc.order = make([]int, nIsl)
		}
		order = sc.order[:nIsl]
		for i := range order {
			order[i] = i
		}
		// Stable insertion sort by descending area: identical output to
		// sort.SliceStable with the same key, no closure/swapper allocs.
		for i := 1; i < nIsl; i++ {
			for j := i; j > 0 && areas[order[j]] > areas[order[j-1]]; j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
	} else if len(order) != nIsl {
		return nil, fmt.Errorf("floorplan: order has %d entries for %d islands", len(order), nIsl)
	}
	p := &sc.pl
	*p = Placement{
		Die:          die,
		IslandRects:  zeroed(p.IslandRects, nIsl),
		CorePos:      zeroed(p.CorePos, len(spec.Cores)),
		SwitchPos:    zeroed(p.SwitchPos, len(top.Switches)),
		NILengthMM:   zeroed(p.NILengthMM, len(spec.Cores)),
		LinkLengthMM: zeroed(p.LinkLengthMM, len(top.Links)),
	}
	rects := p.IslandRects
	sc.ids = append(sc.ids[:0], order...)
	if cap(sc.tmp) < nIsl {
		sc.tmp = make([]int, nIsl)
	}
	sliceRegions(die, sc.ids, areas, rects, sc.tmp[:nIsl])

	// Place cores per island, grouped by their switch so that a
	// switch's clients sit in adjacent cells.
	for isl := 0; isl < nIsl; isl++ {
		sc.cores = coresGroupedBySwitchInto(sc.cores[:0], top, soc.IslandID(isl))
		placeGrid(rects[isl], sc.cores, p.CorePos)
	}

	// Direct switches at the centroid of their attached cores; indirect
	// switches at the centroid of their link neighbours, clamped into
	// the intermediate island's region. Two passes so indirect switches
	// see placed neighbours. sc.cores, free once the cores are placed,
	// takes each direct switch's cores.
	for pass := 0; pass < 2; pass++ {
		for i := range top.Switches {
			s, sw := &top.Switches[i], topology.SwitchID(i)
			pts := sc.pts[:0]
			if !s.Indirect {
				sc.cores = top.SwitchCores(sw, sc.cores)
				for _, c := range sc.cores {
					pts = append(pts, p.CorePos[c])
				}
			} else {
				for _, l := range top.Links {
					if l.From == sw {
						pts = append(pts, p.SwitchPos[l.To])
					}
					if l.To == sw {
						pts = append(pts, p.SwitchPos[l.From])
					}
				}
			}
			r := rects[s.Island]
			sc.pts = pts // keep the grown capacity for the next switch
			pos := r.Center()
			if len(pts) > 0 {
				var sx, sy float64
				for _, q := range pts {
					sx += q.X
					sy += q.Y
				}
				pos = Point{sx / float64(len(pts)), sy / float64(len(pts))}
				pos = clamp(pos, r)
			}
			// Spread co-located switches of the same island slightly so
			// they do not stack at the exact same point.
			pos.X += float64(i%3) * 0.01
			pos.Y += float64(i/3%3) * 0.01
			p.SwitchPos[i] = clamp(pos, r)
		}
	}

	// Wire lengths.
	for c := range spec.Cores {
		p.NILengthMM[c] = Manhattan(p.CorePos[c], p.SwitchPos[top.SwitchOf[c]])
	}
	for i, l := range top.Links {
		p.LinkLengthMM[i] = Manhattan(p.SwitchPos[l.From], p.SwitchPos[l.To])
	}
	if !opt.SkipAnnotate {
		for i := range top.Links {
			top.Links[i].LengthMM = p.LinkLengthMM[i]
		}
	}
	return p, nil
}

// islandAreas computes the silicon demand of every island: core area
// plus switch and NI area, padded with whitespace. The intermediate NoC
// island (no cores) gets its switches plus a fixed floor so the region
// remains placeable.
func islandAreas(top *topology.Topology, opt Options) []float64 {
	return islandAreasInto(nil, top, opt)
}

// islandAreasInto is islandAreas appending into a reusable buffer.
func islandAreasInto(buf []float64, top *topology.Topology, opt Options) []float64 {
	n := top.NumIslands()
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	areas := buf[:n]
	for i := range areas {
		areas[i] = 0
	}
	for c, isl := range top.Spec.IslandOf {
		areas[isl] += top.Spec.Cores[c].AreaMM2 + top.Lib.NIAreaMM2
	}
	for i, s := range top.Switches {
		areas[s.Island] += top.Lib.SwitchAreaMM2(top.SwitchSize(topology.SwitchID(i)))
	}
	for i := range areas {
		areas[i] *= 1 + opt.whitespace()
		if areas[i] < 0.05 {
			areas[i] = 0.05
		}
	}
	return areas
}

// sliceRegions recursively bisects rect among the islands listed in ids
// (pre-sorted by descending area), splitting along the longer side with
// the area ratio of the two halves.
func sliceRegions(rect Rect, ids []int, areas []float64, out []Rect, tmp []int) {
	if len(ids) == 0 {
		return
	}
	if len(ids) == 1 {
		out[ids[0]] = rect
		return
	}
	// Balanced greedy split of ids into two groups by area. The groups
	// are written into tmp (a-group as a prefix, b-group as a suffix,
	// both in ids order) and copied back, so the split is in place and
	// the recursion allocates nothing.
	var aSum, bSum float64
	na, nb := 0, 0
	for _, id := range ids {
		if aSum <= bSum {
			tmp[na] = id
			na++
			aSum += areas[id]
		} else {
			nb++
			tmp[len(ids)-nb] = id
			bSum += areas[id]
		}
	}
	copy(ids[:na], tmp[:na])
	for i := 0; i < nb; i++ { // un-reverse the suffix
		ids[na+i] = tmp[len(ids)-1-i]
	}
	frac := aSum / (aSum + bSum)
	var ra, rb Rect
	if rect.W >= rect.H {
		ra = Rect{rect.X, rect.Y, rect.W * frac, rect.H}
		rb = Rect{rect.X + rect.W*frac, rect.Y, rect.W * (1 - frac), rect.H}
	} else {
		ra = Rect{rect.X, rect.Y, rect.W, rect.H * frac}
		rb = Rect{rect.X, rect.Y + rect.H*frac, rect.W, rect.H * (1 - frac)}
	}
	sliceRegions(ra, ids[:na], areas, out, tmp[:na])
	sliceRegions(rb, ids[na:], areas, out, tmp[na:])
}

// coresGroupedBySwitchInto appends the island's cores to buf ordered so
// that cores sharing a switch are contiguous (switch ID ascending, core
// ID ascending within a switch). The (switch, core) key is a strict
// total order — core IDs are unique — so the insertion sort produces
// exactly the ordering the previous sort.SliceStable did, without the
// CoresIn copy or the sort closure allocations.
func coresGroupedBySwitchInto(buf []soc.CoreID, top *topology.Topology, isl soc.IslandID) []soc.CoreID {
	for c, id := range top.Spec.IslandOf {
		if id == isl {
			buf = append(buf, soc.CoreID(c))
		}
	}
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0; j-- {
			a, b := buf[j-1], buf[j]
			sa, sb := top.SwitchOf[a], top.SwitchOf[b]
			if sa < sb || (sa == sb && a < b) {
				break
			}
			buf[j-1], buf[j] = buf[j], buf[j-1]
		}
	}
	return buf
}

// placeGrid assigns the cores to cell centers of a row-major grid
// covering the region.
func placeGrid(r Rect, cores []soc.CoreID, pos []Point) {
	n := len(cores)
	if n == 0 {
		return
	}
	cols := int(math.Ceil(math.Sqrt(float64(n) * r.W / math.Max(r.H, 1e-9))))
	if cols < 1 {
		cols = 1
	}
	rows := (n + cols - 1) / cols
	cw := r.W / float64(cols)
	ch := r.H / float64(rows)
	for i, c := range cores {
		col := i % cols
		row := i / cols
		pos[c] = Point{r.X + (float64(col)+0.5)*cw, r.Y + (float64(row)+0.5)*ch}
	}
}

func clamp(p Point, r Rect) Point {
	if p.X < r.X {
		p.X = r.X
	}
	if p.X > r.X+r.W {
		p.X = r.X + r.W
	}
	if p.Y < r.Y {
		p.Y = r.Y
	}
	if p.Y > r.Y+r.H {
		p.Y = r.Y + r.H
	}
	return p
}

// TotalWireLengthMM sums NI stubs and link spans.
func (p *Placement) TotalWireLengthMM() float64 {
	var sum float64
	for _, l := range p.NILengthMM {
		sum += l
	}
	for _, l := range p.LinkLengthMM {
		sum += l
	}
	return sum
}

// WireDelayViolations returns the links whose span exceeds the
// single-cycle wire budget at the link's clock (the slower endpoint).
// The paper uses unpipelined links, so these would require either island
// re-placement or a lower clock; synthesis reports them per design point.
func WireDelayViolations(top *topology.Topology, p *Placement) []topology.LinkID {
	var out []topology.LinkID
	for i, l := range top.Links {
		if p.LinkLengthMM[i] > top.Lib.WireLengthBudgetMM(top.LinkFreqHz(l.From, l.To)) {
			out = append(out, topology.LinkID(i))
		}
	}
	return out
}

// Overlap returns the total pairwise overlap area between island
// rectangles; a correct slicing floorplan has zero.
func (p *Placement) Overlap() float64 {
	var sum float64
	for i := 0; i < len(p.IslandRects); i++ {
		for j := i + 1; j < len(p.IslandRects); j++ {
			sum += rectOverlap(p.IslandRects[i], p.IslandRects[j])
		}
	}
	return sum
}

func rectOverlap(a, b Rect) float64 {
	w := math.Min(a.X+a.W, b.X+b.W) - math.Max(a.X, b.X)
	h := math.Min(a.Y+a.H, b.Y+b.H) - math.Max(a.Y, b.Y)
	if w <= 1e-9 || h <= 1e-9 {
		return 0
	}
	return w * h
}

// WeightedWireCost scores a placement: every link span weighted by the
// traffic it carries, plus NI stubs weighted by their core's aggregate
// bandwidth — the quantity the annealer minimizes (a proxy for wire
// power, which is energy/bit/mm × bits/s × mm).
func WeightedWireCost(top *topology.Topology, p *Placement) float64 {
	var cost float64
	for i, l := range top.Links {
		cost += p.LinkLengthMM[i] * (l.TrafficBps + 1e6)
	}
	egress, ingress := top.Spec.AggregateCoreBandwidth()
	for c := range top.Spec.Cores {
		cost += p.NILengthMM[c] * (egress[c] + ingress[c] + 1e6)
	}
	return cost
}

// PlaceOptimized searches island slicing orders with deterministic
// simulated annealing, minimizing WeightedWireCost: islands that
// exchange heavy traffic end up adjacent, shortening the wires that
// matter. iters <= 0 selects 300. The winning placement annotates the
// topology's link lengths (unless opt.SkipAnnotate).
func PlaceOptimized(top *topology.Topology, opt Options, iters int) (*Placement, error) {
	if iters <= 0 {
		iters = 300
	}
	evalOpt := opt
	evalOpt.SkipAnnotate = true
	sc := &Scratch{}

	best, err := placeWithOrder(top, evalOpt, nil, sc)
	if err != nil {
		return nil, err
	}
	bestCost := WeightedWireCost(top, best)
	nIsl := top.NumIslands()
	if nIsl < 2 {
		return finishOptimized(top, opt, nil)
	}

	// Recover the default order to seed the search.
	order := make([]int, nIsl)
	for i := range order {
		order[i] = i
	}
	areas := islandAreas(top, evalOpt)
	sort.SliceStable(order, func(a, b int) bool { return areas[order[a]] > areas[order[b]] })
	bestOrder := append([]int(nil), order...)

	cur := append([]int(nil), order...)
	curCost := bestCost
	seed := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 11
	}
	for it := 0; it < iters; it++ {
		i := int(next() % uint64(nIsl))
		j := int(next() % uint64(nIsl))
		if i == j {
			continue
		}
		cand := append([]int(nil), cur...)
		cand[i], cand[j] = cand[j], cand[i]
		p, err := placeWithOrder(top, evalOpt, cand, sc)
		if err != nil {
			return nil, err
		}
		c := WeightedWireCost(top, p)
		// Annealing acceptance with a geometric temperature schedule;
		// the "random" draw comes from the deterministic LCG.
		temp := bestCost * 0.10 * math.Pow(0.99, float64(it))
		accept := c < curCost
		if !accept && temp > 0 {
			u := float64(next()%1_000_000) / 1_000_000
			accept = u < math.Exp((curCost-c)/temp)
		}
		if accept {
			cur, curCost = cand, c
			if c < bestCost {
				bestCost = c
				bestOrder = append(bestOrder[:0], cand...)
			}
		}
	}
	return finishOptimized(top, opt, bestOrder)
}

// finishOptimized produces the final placement (with annotation per the
// caller's options) for the chosen order.
func finishOptimized(top *topology.Topology, opt Options, order []int) (*Placement, error) {
	return placeWithOrder(top, opt, order, nil)
}
