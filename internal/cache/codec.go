// Binary codec for cached synthesis results. The cache must return a
// Result that compares byte-identical to a fresh run — the identity
// the engine's tests pin down to float bit patterns — so this codec is
// hand-written and bit-exact: floats round-trip as IEEE bit patterns,
// and topologies are rebuilt by replaying their construction sequence
// (switches, attachments, links, routes in original order), which makes
// the order-dependent accumulated quantities (Link.TrafficBps summed
// route by route) come out bit-for-bit, not merely approximately.
//
// specio's JSON topology format deliberately cannot be reused here: its
// human units (MB/s, MHz) divide through 1e6 and lose low bits.
//
// The codec never encodes Result.CacheStats — cache bookkeeping is
// about a run, not part of the result's identity — which is what lets
// ResultDigest compare cached and fresh results directly.
package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"nocvi/internal/core"
	"nocvi/internal/floorplan"
	"nocvi/internal/model"
	"nocvi/internal/power"
	"nocvi/internal/soc"
	"nocvi/internal/specio"
	"nocvi/internal/topology"
)

// codecVersion participates in every full-result cache key, so a
// layout change invalidates old entries instead of misdecoding them.
// v2: SweepResult.Evaluated became the three-way Explored count when
// the branch-and-bound layer landed.
// v3: routes grew backup paths (topology.Route.Backups) when the
// survivability constraint landed.
const codecVersion = 3

var errCorrupt = errors.New("cache: malformed encoded result")

type enc struct{ b []byte }

func (e *enc) u64(v uint64)  { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) i64(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) int(v int)     { e.i64(int64(v)) }
func (e *enc) f64(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }

func (e *enc) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *enc) str(s string) {
	e.u64(uint64(len(s)))
	e.b = append(e.b, s...)
}

// Slice encoders carry an explicit nil flag: a nil slice and a non-nil
// empty slice are distinct in-memory shapes, and the round-trip must
// preserve the distinction for reflect.DeepEqual-grade fidelity.
func (e *enc) ints(vs []int) {
	e.bool(vs != nil)
	e.u64(uint64(len(vs)))
	for _, v := range vs {
		e.int(v)
	}
}

func (e *enc) f64s(vs []float64) {
	e.bool(vs != nil)
	e.u64(uint64(len(vs)))
	for _, v := range vs {
		e.f64(v)
	}
}

func (e *enc) strs(vs []string) {
	e.bool(vs != nil)
	e.u64(uint64(len(vs)))
	for _, v := range vs {
		e.str(v)
	}
}

// dec is the mirror reader. Every read bounds-checks; the first
// malformation latches err and subsequent reads return zero values, so
// decode paths stay linear and check err once at the end.
type dec struct {
	b   []byte
	err error

	// sws and lks are the unused tails of the current path chunks that
	// switchPath and linkPath carve route paths from.
	sws []topology.SwitchID
	lks []topology.LinkID
}

// pathChunk is the number of entries one path-chunk allocation holds.
const pathChunk = 512

// switchPath returns an n-entry switch path carved out of the current
// chunk, starting a new chunk when it runs short, so a decoded result
// costs a few allocations for its paths instead of one per route. The
// slice is capped at n: an append by its owner reallocates instead of
// overwriting the next path.
func (d *dec) switchPath(n int) []topology.SwitchID {
	if len(d.sws) < n {
		d.sws = make([]topology.SwitchID, max(n, pathChunk))
	}
	p := d.sws[:n:n]
	d.sws = d.sws[n:]
	return p
}

// linkPath is switchPath for link paths. A zero-length path is still
// non-nil: nil links mean something else to the codec.
func (d *dec) linkPath(n int) []topology.LinkID {
	if d.lks == nil || len(d.lks) < n {
		d.lks = make([]topology.LinkID, max(n, pathChunk))
	}
	p := d.lks[:n:n]
	d.lks = d.lks[n:]
	return p
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = errCorrupt
	}
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) int() int { return int(d.i64()) }

func (d *dec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *dec) bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) < 1 {
		d.fail()
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v != 0
}

// length reads a collection length and sanity-bounds it against the
// remaining input (each element costs at least one byte), so a corrupt
// length cannot drive a giant allocation.
func (d *dec) length() int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *dec) str() string {
	n := d.length()
	if d.err != nil {
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *dec) ints() []int {
	notNil := d.bool()
	n := d.length()
	if d.err != nil || !notNil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.int()
	}
	return out
}

func (d *dec) f64s() []float64 {
	notNil := d.bool()
	n := d.length()
	if d.err != nil || !notNil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

func (d *dec) strs() []string {
	notNil := d.bool()
	n := d.length()
	if d.err != nil || !notNil {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

// EncodeResult serializes a synthesis result, except for Spec (the
// caller re-supplies it on decode — the cache key already proves it
// identical) and CacheStats (run bookkeeping, not result identity).
func EncodeResult(res *core.Result) []byte {
	e := &enc{}
	e.u64(codecVersion)
	e.f64s(res.IslandFreqHz)
	e.ints(res.MaxSwitchSize)
	e.ints(res.MinSwitches)
	e.u64(uint64(res.Explored))
	e.u64(uint64(res.Feasible))
	e.bool(res.Truncated)
	e.bool(res.Partial)
	e.str(res.StopReason)
	e.strs(res.Relaxations)
	encodeCandidateErrors(e, res.Errors)
	e.u64(uint64(len(res.Points)))
	for i := range res.Points {
		encodePoint(e, &res.Points[i])
	}
	return e.b
}

// DecodeResult reconstructs a result against the spec and library it
// was synthesized from. Any malformation returns an error — the caller
// treats it as a miss.
func DecodeResult(data []byte, spec *soc.Spec, lib *model.Library) (*core.Result, error) {
	d := &dec{b: data}
	if v := d.u64(); d.err == nil && v != codecVersion {
		return nil, fmt.Errorf("cache: result codec version %d, want %d", v, codecVersion)
	}
	res := &core.Result{Spec: spec}
	res.IslandFreqHz = d.f64s()
	res.MaxSwitchSize = d.ints()
	res.MinSwitches = d.ints()
	res.Explored = int(d.u64())
	res.Feasible = int(d.u64())
	res.Truncated = d.bool()
	res.Partial = d.bool()
	res.StopReason = d.str()
	res.Relaxations = d.strs()
	res.Errors = decodeCandidateErrors(d)
	nPts := d.length()
	res.Points = slices.Grow(res.Points, nPts)
	for i := 0; i < nPts && d.err == nil; i++ {
		dp, err := decodePoint(d, spec, lib)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, *dp)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, errCorrupt
	}
	return res, nil
}

func encodeCandidateErrors(e *enc, errs []core.CandidateError) {
	e.bool(errs != nil)
	e.u64(uint64(len(errs)))
	for i := range errs {
		e.ints(errs[i].SwitchCounts)
		e.int(errs[i].MidSwitches)
		e.str(errs[i].Panic)
		e.str(errs[i].Stack)
	}
}

func decodeCandidateErrors(d *dec) []core.CandidateError {
	notNil := d.bool()
	n := d.length()
	if d.err != nil || !notNil {
		return nil
	}
	out := make([]core.CandidateError, n)
	for i := range out {
		out[i].SwitchCounts = d.ints()
		out[i].MidSwitches = d.int()
		out[i].Panic = d.str()
		out[i].Stack = d.str()
	}
	return out
}

func encodePoint(e *enc, p *core.DesignPoint) {
	e.ints(p.SwitchCounts)
	e.int(p.MidSwitches)
	encodeTopology(e, p.Top)
	encodePlacement(e, p.Placement)
	encodeBreakdown(e, &p.NoCPower)
	e.f64(p.MeanLatencyCycles)
	e.f64(p.NoCAreaMM2)
	e.int(p.WireViolations)
	e.f64(p.FloorplanOpt.WhitespaceFrac)
	e.bool(p.FloorplanOpt.SkipAnnotate)
	e.strs(p.Relaxations)
}

func decodePoint(d *dec, spec *soc.Spec, lib *model.Library) (*core.DesignPoint, error) {
	p := &core.DesignPoint{}
	p.SwitchCounts = d.ints()
	p.MidSwitches = d.int()
	top, err := decodeTopology(d, spec, lib)
	if err != nil {
		return nil, err
	}
	//noclint:ignore poolescape the decoded topology is freshly allocated by decodeTopology, never Reset-recycled
	p.Top = top
	p.Placement = decodePlacement(d)
	decodeBreakdown(d, &p.NoCPower)
	p.MeanLatencyCycles = d.f64()
	p.NoCAreaMM2 = d.f64()
	p.WireViolations = d.int()
	p.FloorplanOpt.WhitespaceFrac = d.f64()
	p.FloorplanOpt.SkipAnnotate = d.bool()
	p.Relaxations = d.strs()
	if d.err != nil {
		return nil, d.err
	}
	return p, nil
}

func encodeBreakdown(e *enc, b *power.Breakdown) {
	e.f64(b.SwitchDynW)
	e.f64(b.SwitchLeakW)
	e.f64(b.LinkDynW)
	e.f64(b.LinkLeakW)
	e.f64(b.NIDynW)
	e.f64(b.NILeakW)
	e.f64(b.FIFODynW)
	e.f64(b.FIFOLeakW)
}

func decodeBreakdown(d *dec, b *power.Breakdown) {
	b.SwitchDynW = d.f64()
	b.SwitchLeakW = d.f64()
	b.LinkDynW = d.f64()
	b.LinkLeakW = d.f64()
	b.NIDynW = d.f64()
	b.NILeakW = d.f64()
	b.FIFODynW = d.f64()
	b.FIFOLeakW = d.f64()
}

// encodeTopology captures the construction-order essentials; derived
// state (link capacities, island-crossing flags, accumulated traffic,
// the link index) is rebuilt by replay on decode.
func encodeTopology(e *enc, t *topology.Topology) {
	e.bool(t.NoCIsland != soc.NoIsland)
	e.f64s(t.IslandFreqHz)
	e.f64s(t.IslandVoltage)
	e.u64(uint64(len(t.Switches)))
	for i := range t.Switches {
		e.int(int(t.Switches[i].Island))
		e.bool(t.Switches[i].Indirect)
	}
	e.u64(uint64(len(t.SwitchOf)))
	for _, sw := range t.SwitchOf {
		e.int(int(sw))
	}
	e.u64(uint64(len(t.Links)))
	for i := range t.Links {
		e.int(int(t.Links[i].From))
		e.int(int(t.Links[i].To))
		e.f64(t.Links[i].LengthMM)
	}
	e.u64(uint64(len(t.Routes)))
	for i := range t.Routes {
		r := &t.Routes[i]
		e.int(int(r.Flow.Src))
		e.int(int(r.Flow.Dst))
		e.f64(r.Flow.BandwidthBps)
		e.f64(r.Flow.MaxLatencyCycles)
		e.u64(uint64(len(r.Switches)))
		for _, sw := range r.Switches {
			e.int(int(sw))
		}
		// Links is derivable (FindLink over consecutive switches) but its
		// nilness is an in-memory shape to preserve: single-switch routes
		// keep a nil Links, multi-hop ones a populated slice.
		e.bool(r.Links != nil)
		// Backup paths of survivable designs: switch walks only — their
		// links re-derive by FindLink on decode, exactly like the
		// primary's, and their links are already in the links section
		// (backups open real links; they just carry no traffic).
		e.bool(r.Backups != nil)
		e.u64(uint64(len(r.Backups)))
		for bi := range r.Backups {
			b := &r.Backups[bi]
			e.u64(uint64(len(b.Switches)))
			for _, sw := range b.Switches {
				e.int(int(sw))
			}
			e.bool(b.Links != nil)
		}
	}
}

// decodeTopology replays the construction sequence against a fresh
// topology: island clocks and supplies first (switches inherit them),
// then switches, core attachments, links (LengthMM restored from the
// floorplan annotation) and finally routes in original order, which
// re-accumulates Link.TrafficBps in the exact addition order of the
// original build — float sums are order-dependent, so replay order is
// what makes the round-trip bit-exact.
func decodeTopology(d *dec, spec *soc.Spec, lib *model.Library) (*topology.Topology, error) {
	hasMid := d.bool()
	freqs := d.f64s()
	volts := d.f64s()
	wantIslands := len(spec.Islands)
	if hasMid {
		wantIslands++
	}
	if d.err != nil || len(freqs) != wantIslands || len(volts) != wantIslands {
		return nil, errCorrupt
	}
	top := topology.New(spec, lib)
	for j := 0; j < len(spec.Islands); j++ {
		top.SetIslandFreq(soc.IslandID(j), freqs[j])
		top.SetIslandVoltage(soc.IslandID(j), volts[j])
	}
	if hasMid {
		top.AddNoCIsland(freqs[len(freqs)-1], volts[len(volts)-1])
	}

	// Each collection is grown to its encoded count up front. length()
	// caps every count at the remaining input, so a corrupt count costs
	// a bounded allocation, and growing a nil slice by zero keeps it nil.
	nSw := d.length()
	top.Switches = slices.Grow(top.Switches, nSw)
	for i := 0; i < nSw && d.err == nil; i++ {
		island := d.int()
		indirect := d.bool()
		if island < 0 || island >= top.NumIslands() {
			return nil, errCorrupt
		}
		top.AddSwitch(soc.IslandID(island), indirect)
	}

	nCores := d.length()
	if d.err != nil || nCores != len(spec.Cores) {
		return nil, errCorrupt
	}
	// Size each switch's core list up front: count the attachments on a
	// look-ahead copy of the reader, then carve the lists from one slab,
	// so AttachCore's appends never reallocate. Switches without cores
	// keep a nil list.
	look := *d
	perSw := make([]int, nSw)
	attached := 0
	for c := 0; c < nCores; c++ {
		if sw := look.int(); sw >= 0 && sw < nSw {
			perSw[sw]++
			attached++
		}
	}
	coreSlab := make([]soc.CoreID, attached)
	for sw, n := range perSw {
		if n > 0 {
			top.Switches[sw].Cores = coreSlab[:0:n]
			coreSlab = coreSlab[n:]
		}
	}
	for c := 0; c < nCores; c++ {
		sw := d.int()
		if d.err != nil {
			return nil, d.err
		}
		if sw < 0 {
			continue // unattached in the encoded design
		}
		if sw >= nSw {
			return nil, errCorrupt
		}
		if err := top.AttachCore(soc.CoreID(c), topology.SwitchID(sw)); err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
	}

	nLinks := d.length()
	top.ReserveLinks(nLinks)
	for i := 0; i < nLinks && d.err == nil; i++ {
		from, to := d.int(), d.int()
		length := d.f64()
		if d.err != nil {
			return nil, d.err
		}
		if from < 0 || from >= nSw || to < 0 || to >= nSw {
			return nil, errCorrupt
		}
		lid, err := top.AddLink(topology.SwitchID(from), topology.SwitchID(to))
		if err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
		top.Links[lid].LengthMM = length
	}

	nRoutes := d.length()
	top.Routes = slices.Grow(top.Routes, nRoutes)
	for i := 0; i < nRoutes && d.err == nil; i++ {
		var flow soc.Flow
		flow.Src = soc.CoreID(d.int())
		flow.Dst = soc.CoreID(d.int())
		if int(flow.Src) < 0 || int(flow.Src) >= len(spec.Cores) ||
			int(flow.Dst) < 0 || int(flow.Dst) >= len(spec.Cores) {
			return nil, errCorrupt
		}
		flow.BandwidthBps = d.f64()
		flow.MaxLatencyCycles = d.f64()
		nPath := d.length()
		if d.err != nil || nPath == 0 {
			return nil, errCorrupt
		}
		sws := d.switchPath(nPath)
		for p := range sws {
			sw := d.int()
			if sw < 0 || sw >= nSw {
				return nil, errCorrupt
			}
			sws[p] = topology.SwitchID(sw)
		}
		linksNotNil := d.bool()
		if d.err != nil {
			return nil, d.err
		}
		var links []topology.LinkID
		if linksNotNil {
			links = d.linkPath(nPath - 1)
			for p := 0; p+1 < nPath; p++ {
				lid, ok := top.FindLink(sws[p], sws[p+1])
				if !ok {
					return nil, errCorrupt
				}
				links[p] = lid
			}
		} else if nPath > 1 {
			return nil, errCorrupt // multi-hop route cannot have nil links
		}
		if err := top.AddRoute(topology.Route{Flow: flow, Switches: sws, Links: links}); err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
		backupsNotNil := d.bool()
		nBackups := d.length()
		if d.err != nil || (!backupsNotNil && nBackups > 0) {
			return nil, errCorrupt
		}
		if backupsNotNil && nBackups == 0 {
			// Non-nil empty is a shape the engine never produces, but the
			// round-trip preserves it for DeepEqual-grade fidelity.
			top.Routes[i].Backups = []topology.Path{}
		}
		for bi := 0; bi < nBackups && d.err == nil; bi++ {
			nbPath := d.length()
			if d.err != nil || nbPath == 0 {
				return nil, errCorrupt
			}
			bsws := d.switchPath(nbPath)
			for p := range bsws {
				sw := d.int()
				if sw < 0 || sw >= nSw {
					return nil, errCorrupt
				}
				bsws[p] = topology.SwitchID(sw)
			}
			bLinksNotNil := d.bool()
			if d.err != nil {
				return nil, d.err
			}
			var bLinks []topology.LinkID
			if bLinksNotNil {
				bLinks = d.linkPath(nbPath - 1)
				for p := 0; p+1 < nbPath; p++ {
					lid, ok := top.FindLink(bsws[p], bsws[p+1])
					if !ok {
						return nil, errCorrupt
					}
					bLinks[p] = lid
				}
			} else if nbPath > 1 {
				return nil, errCorrupt // multi-hop backup cannot have nil links
			}
			if err := top.AddBackup(i, topology.Path{Switches: bsws, Links: bLinks}); err != nil {
				return nil, fmt.Errorf("cache: %w", err)
			}
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return top, nil
}

func encodePlacement(e *enc, p *floorplan.Placement) {
	e.bool(p != nil)
	if p == nil {
		return
	}
	encodeRect(e, p.Die)
	e.bool(p.IslandRects != nil)
	e.u64(uint64(len(p.IslandRects)))
	for _, r := range p.IslandRects {
		encodeRect(e, r)
	}
	e.bool(p.CorePos != nil)
	e.u64(uint64(len(p.CorePos)))
	for _, pt := range p.CorePos {
		e.f64(pt.X)
		e.f64(pt.Y)
	}
	e.bool(p.SwitchPos != nil)
	e.u64(uint64(len(p.SwitchPos)))
	for _, pt := range p.SwitchPos {
		e.f64(pt.X)
		e.f64(pt.Y)
	}
	e.f64s(p.NILengthMM)
	e.f64s(p.LinkLengthMM)
}

func decodePlacement(d *dec) *floorplan.Placement {
	if !d.bool() {
		return nil
	}
	p := &floorplan.Placement{}
	p.Die = decodeRect(d)
	if notNil, nIsl := d.bool(), d.length(); notNil && d.err == nil {
		p.IslandRects = make([]floorplan.Rect, 0, nIsl)
		for i := 0; i < nIsl && d.err == nil; i++ {
			p.IslandRects = append(p.IslandRects, decodeRect(d))
		}
	}
	if notNil, nCores := d.bool(), d.length(); notNil && d.err == nil {
		p.CorePos = make([]floorplan.Point, 0, nCores)
		for i := 0; i < nCores && d.err == nil; i++ {
			p.CorePos = append(p.CorePos, floorplan.Point{X: d.f64(), Y: d.f64()})
		}
	}
	if notNil, nSw := d.bool(), d.length(); notNil && d.err == nil {
		p.SwitchPos = make([]floorplan.Point, 0, nSw)
		for i := 0; i < nSw && d.err == nil; i++ {
			p.SwitchPos = append(p.SwitchPos, floorplan.Point{X: d.f64(), Y: d.f64()})
		}
	}
	p.NILengthMM = d.f64s()
	p.LinkLengthMM = d.f64s()
	return p
}

func encodeRect(e *enc, r floorplan.Rect) {
	e.f64(r.X)
	e.f64(r.Y)
	e.f64(r.W)
	e.f64(r.H)
}

func decodeRect(d *dec) floorplan.Rect {
	return floorplan.Rect{X: d.f64(), Y: d.f64(), W: d.f64(), H: d.f64()}
}

// encodeSweepPoint / decodeSweepPoint handle the streaming sweep's
// compact summaries.
func encodeSweepPoint(e *enc, p *core.SweepPoint) {
	e.bool(p != nil)
	if p == nil {
		return
	}
	e.u64(p.Index)
	e.ints(p.SwitchCounts)
	e.int(p.MidSwitches)
	e.f64(p.PowerW)
	e.f64(p.LatencyCycles)
	e.f64(p.AreaMM2)
	e.int(p.WireViolations)
}

func decodeSweepPoint(d *dec) *core.SweepPoint {
	if !d.bool() {
		return nil
	}
	p := &core.SweepPoint{}
	p.Index = d.u64()
	p.SwitchCounts = d.ints()
	p.MidSwitches = d.int()
	p.PowerW = d.f64()
	p.LatencyCycles = d.f64()
	p.AreaMM2 = d.f64()
	p.WireViolations = d.int()
	return p
}

// EncodeSweepResult serializes a streaming-sweep result (Spec and
// CacheStats excluded, like EncodeResult).
func EncodeSweepResult(res *core.SweepResult) []byte {
	e := &enc{}
	e.u64(codecVersion)
	e.u64(res.Size)
	e.u64(res.Explored)
	e.u64(res.Feasible)
	e.bool(res.Truncated)
	e.bool(res.Partial)
	e.str(res.StopReason)
	encodeSweepPoint(e, res.BestPowerPoint)
	encodeSweepPoint(e, res.BestLatencyPoint)
	e.u64(uint64(len(res.Front)))
	for i := range res.Front {
		encodeSweepPoint(e, &res.Front[i])
	}
	encodeCandidateErrors(e, res.Errors)
	e.u64(res.ErrorCount)
	e.bool(res.BestPower != nil)
	if res.BestPower != nil {
		encodePoint(e, res.BestPower)
	}
	// BestLatency frequently aliases BestPower (same winning index);
	// the aliasing is part of the in-memory shape and is preserved.
	aliased := res.BestLatency != nil && res.BestLatency == res.BestPower
	e.bool(aliased)
	if !aliased {
		e.bool(res.BestLatency != nil)
		if res.BestLatency != nil {
			encodePoint(e, res.BestLatency)
		}
	}
	return e.b
}

// DecodeSweepResult is the inverse of EncodeSweepResult.
func DecodeSweepResult(data []byte, spec *soc.Spec, lib *model.Library) (*core.SweepResult, error) {
	d := &dec{b: data}
	if v := d.u64(); d.err == nil && v != codecVersion {
		return nil, fmt.Errorf("cache: sweep codec version %d, want %d", v, codecVersion)
	}
	res := &core.SweepResult{Spec: spec}
	res.Size = d.u64()
	res.Explored = d.u64()
	res.Feasible = d.u64()
	res.Truncated = d.bool()
	res.Partial = d.bool()
	res.StopReason = d.str()
	res.BestPowerPoint = decodeSweepPoint(d)
	res.BestLatencyPoint = decodeSweepPoint(d)
	nFront := d.length()
	for i := 0; i < nFront && d.err == nil; i++ {
		p := decodeSweepPoint(d)
		if p == nil {
			return nil, errCorrupt
		}
		res.Front = append(res.Front, *p)
	}
	res.Errors = decodeCandidateErrors(d)
	res.ErrorCount = d.u64()
	if d.bool() {
		dp, err := decodePoint(d, spec, lib)
		if err != nil {
			return nil, err
		}
		res.BestPower = dp
	} else if d.err != nil {
		return nil, d.err
	}
	if d.bool() {
		res.BestLatency = res.BestPower
	} else if d.bool() {
		dp, err := decodePoint(d, spec, lib)
		if err != nil {
			return nil, err
		}
		res.BestLatency = dp
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, errCorrupt
	}
	return res, nil
}

// ResultDigest is the identity digest of a synthesis result: SHA-256
// over the canonical encoding, which excludes CacheStats by
// construction. Two results digest equal exactly when every
// caller-visible field — points, topologies, placements, float metrics
// bit patterns, errors, stop metadata — is identical. The identity
// tests use it to prove cached results byte-identical to fresh runs.
func ResultDigest(res *core.Result) specio.Digest {
	return sha256.Sum256(EncodeResult(res))
}

// SweepResultDigest is ResultDigest for streaming-sweep results.
func SweepResultDigest(res *core.SweepResult) specio.Digest {
	return sha256.Sum256(EncodeSweepResult(res))
}
