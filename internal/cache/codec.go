// Binary codec for cached synthesis results. The cache must return a
// Result that compares byte-identical to a fresh run — the identity
// the engine's tests pin down to float bit patterns — so this codec is
// hand-written and bit-exact: floats round-trip as IEEE bit patterns,
// and topologies are stored as their construction essentials (switches,
// attachments, links, routes in original order) and rebuilt by
// topology.Build and AddRoute, which sums the order-dependent
// Link.TrafficBps route by route and so restores it bit-for-bit, not
// merely approximately.
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
	"math/bits"
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

// enc appends the codec's bytes to b. With sizing set it appends
// nothing and only adds each value's encoded length to n, so a first
// pass over the same encode functions measures the buffer the second
// pass writes: every encoding a caller keeps is one allocation of
// exactly its size. An encoding that is only written to the store is
// appended into a pooled buffer instead (Store.putResult).
type enc struct {
	b      []byte
	n      int
	sizing bool
}

// encodeExact encodes v with body twice: a sizing pass, then a writing
// pass into a buffer of exactly the counted length. It inlines, so body
// is called directly and both encoders stay on the stack: the buffer is
// the only allocation (TestEncodeSizedExactly pins it).
func encodeExact[T any](v T, body func(*enc, T)) []byte {
	s := enc{sizing: true}
	body(&s, v)
	e := enc{b: make([]byte, 0, s.n)}
	body(&e, v)
	return e.b
}

func (e *enc) u64(v uint64) {
	if e.sizing {
		e.n += (bits.Len64(v|1) + 6) / 7 // uvarint: 7 bits a byte
		return
	}
	e.b = binary.AppendUvarint(e.b, v)
}

// i64 zigzag-encodes v as a uvarint, exactly as binary.AppendVarint.
func (e *enc) i64(v int64) {
	ux := uint64(v) << 1
	if v < 0 {
		ux = ^ux
	}
	e.u64(ux)
}

func (e *enc) int(v int) { e.i64(int64(v)) }

func (e *enc) f64(v float64) {
	if e.sizing {
		e.n += 8
		return
	}
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}

func (e *enc) bool(v bool) {
	if e.sizing {
		e.n++
		return
	}
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *enc) str(s string) {
	e.u64(uint64(len(s)))
	if e.sizing {
		e.n += len(s)
		return
	}
	e.b = append(e.b, s...)
}

// raw appends p as is, for fixed-size fields such as 32-byte digests.
func (e *enc) raw(p []byte) {
	if e.sizing {
		e.n += len(p)
		return
	}
	e.b = append(e.b, p...)
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

	// lks is the unused tail of the current link chunk that carve cuts
	// route and backup links from; walk is the scratch each stored
	// switch walk narrows into before it resolves into links.
	lks  []topology.LinkID
	walk []topology.SwitchID
}

// pathChunk is the number of entries one link-chunk allocation holds.
const pathChunk = 512

// carve returns an n-entry path cut from the chunk *tail, starting a new
// chunk when it runs short, so a decoded result costs a few allocations
// for its paths instead of one per route. The path is capped at n, so an
// append by its owner reallocates instead of overwriting the next path,
// and is non-nil even when empty: nil links mean something else to the
// codec.
func carve[T any](tail *[]T, n int) []T {
	if *tail == nil || len(*tail) < n {
		*tail = make([]T, max(n, pathChunk))
	}
	p := (*tail)[:n:n]
	*tail = (*tail)[n:]
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

// id reads one ID for field and narrows it into T through soc.NarrowID;
// a value outside the 32-bit range latches the *soc.IDRangeError.
func id[T ~int32](d *dec, field string) T {
	v, err := soc.NarrowID[T](field, d.i64())
	if err != nil && d.err == nil {
		d.err = fmt.Errorf("cache: %w", err)
	}
	return v
}

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

// slice reads a slice the way the enc slice encoders write it — the
// nil flag, the length, then each element by read — so the round-trip
// keeps nil and empty apart.
func slice[T any](d *dec, read func(*dec) T) []T {
	notNil := d.bool()
	n := d.length()
	if d.err != nil || !notNil {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = read(d)
	}
	return out
}

// EncodeResult serializes a synthesis result, except for Spec (the
// caller re-supplies it on decode — the cache key already proves it
// identical) and CacheStats (run bookkeeping, not result identity).
// The returned slice is the one allocation, and its capacity is its
// length.
func EncodeResult(res *core.Result) []byte { return encodeExact(res, encodeResult) }

func encodeResult(e *enc, res *core.Result) {
	e.u64(codecVersion)
	e.f64s(res.IslandFreqHz)
	e.ints(res.MaxSwitchSize)
	e.ints(res.MinSwitches)
	e.u64(uint64(res.Explored))
	e.u64(uint64(res.Feasible))
	e.bool(false) // the deleted Result.Truncated: kept so encodings and digests stay fixed
	e.bool(res.Partial)
	e.str(res.StopReason)
	e.strs(res.Relaxations)
	encodeCandidateErrors(e, res.Errors)
	e.u64(uint64(len(res.Points)))
	for i := range res.Points {
		encodePoint(e, &res.Points[i])
	}
}

// DecodeResult reconstructs a result against the spec and library it
// was synthesized from. Any malformation returns an error — the caller
// treats it as a miss. The result never aliases data: strings are
// copied out by string(...) and every slice is allocated afresh. That is
// a requirement, not a detail: Synthesize decodes straight from the
// store's pooled read buffer, which the next read overwrites.
func DecodeResult(data []byte, spec *soc.Spec, lib *model.Library) (*core.Result, error) {
	d := &dec{b: data}
	if v := d.u64(); d.err == nil && v != codecVersion {
		return nil, fmt.Errorf("cache: result codec version %d, want %d", v, codecVersion)
	}
	res := &core.Result{Spec: spec}
	res.IslandFreqHz = slice(d, (*dec).f64)
	res.MaxSwitchSize = slice(d, (*dec).int)
	res.MinSwitches = slice(d, (*dec).int)
	res.Explored = int(d.u64())
	res.Feasible = int(d.u64())
	if d.bool() {
		return nil, errCorrupt // EncodeResult never sets the old Truncated byte
	}
	res.Partial = d.bool()
	res.StopReason = d.str()
	res.Relaxations = slice(d, (*dec).str)
	res.Errors = slice(d, decodeCandidateError)
	res.Points = grown(res.Points, d.length())
	for i := 0; i < len(res.Points) && d.err == nil; i++ {
		if err := decodePoint(d, &res.Points[i], spec, lib); err != nil {
			return nil, err
		}
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

func decodeCandidateError(d *dec) core.CandidateError {
	return core.CandidateError{
		SwitchCounts: slice(d, (*dec).int),
		MidSwitches:  d.int(),
		Panic:        d.str(),
		Stack:        d.str(),
	}
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

// decodePoint decodes one design point into p, in place.
func decodePoint(d *dec, p *core.DesignPoint, spec *soc.Spec, lib *model.Library) error {
	p.SwitchCounts = slice(d, (*dec).int)
	p.MidSwitches = d.int()
	top, err := decodeTopology(d, spec, lib)
	if err != nil {
		return err
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
	p.Relaxations = slice(d, (*dec).str)
	return d.err
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

// encodeTopology captures the construction essentials topology.Build
// reads, plus each route's walk; on decode Build rebuilds the core lists
// and the link index, and AddRoute the accumulated traffic. Link
// clocks, capacities and crossings are never stored: the topology
// derives them from the island tables.
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
		e.walk(t, r.Flow, r.Links)
		// Backup paths of survivable designs: switch walks too — their
		// links re-derive by FindLink on decode, exactly like the
		// primary's, and their links are already in the links section
		// (backups open real links; they just carry no traffic).
		e.bool(r.Backups != nil)
		e.u64(uint64(len(r.Backups)))
		for bi := range r.Backups {
			e.walk(t, r.Flow, r.Backups[bi].Links)
		}
	}
}

// walk writes the switch walk of a route or backup of flow f over links
// (t.Walk, one more switch than links) and whether links is non-nil:
// the links are derivable (FindLink over consecutive switches) but
// their nilness is an in-memory shape to preserve, as single-switch
// routes keep a nil Links and multi-hop ones a populated slice.
func (e *enc) walk(t *topology.Topology, f soc.Flow, links []topology.LinkID) {
	e.u64(uint64(len(links) + 1))
	for i := 0; i <= len(links); i++ {
		e.int(int(t.WalkSwitch(f, links, i)))
	}
	e.bool(links != nil)
}

// decodeTopology decodes the construction essentials into a fresh
// topology and lets topology.Build check them and derive the rest, then
// adds the routes in stored order: each walk narrows into the decoder's
// scratch, resolves into carved link storage through WalkLinks, and
// AddRoute (AddBackup for a backup) checks it and sums Link.TrafficBps
// route by route, the addition order of the original build — float
// sums are order-dependent, so that order is what makes the round-trip
// bit-exact. Each collection is sized to its encoded count, which
// length() caps at the remaining input, so a corrupt count costs a
// bounded allocation; a zero count leaves it nil. Every ID narrows
// through id before the builder sees it, so a stored 2^32+5 is an
// error, not switch 5.
func decodeTopology(d *dec, spec *soc.Spec, lib *model.Library) (*topology.Topology, error) {
	top := &topology.Topology{Spec: spec, Lib: lib, NoCIsland: soc.NoIsland}
	if d.bool() {
		top.NoCIsland = soc.IslandID(len(spec.Islands))
	}
	top.IslandFreqHz = slice(d, (*dec).f64)
	top.IslandVoltage = slice(d, (*dec).f64)
	top.Switches = grown(top.Switches, d.length())
	for i := range top.Switches {
		top.Switches[i].Island = id[soc.IslandID](d, "switch island")
		top.Switches[i].Indirect = d.bool()
	}
	top.SwitchOf = grown(top.SwitchOf, d.length())
	for c := range top.SwitchOf {
		top.SwitchOf[c] = id[topology.SwitchID](d, "NI switch")
	}
	top.Links = grown(top.Links, d.length())
	for i := range top.Links {
		l := &top.Links[i]
		l.From = id[topology.SwitchID](d, "link from")
		l.To = id[topology.SwitchID](d, "link to")
		l.LengthMM = d.f64()
	}
	nRoutes := d.length()
	if d.err != nil {
		return nil, d.err
	}
	if err := top.Build(); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	top.Routes = slices.Grow(top.Routes, nRoutes)
	for ri := range nRoutes {
		var r topology.Route
		r.Flow.Src = id[soc.CoreID](d, "flow src")
		r.Flow.Dst = id[soc.CoreID](d, "flow dst")
		r.Flow.BandwidthBps = d.f64()
		r.Flow.MaxLatencyCycles = d.f64()
		var err error
		if r.Links, err = d.path(top, r.Flow, "route switch"); err != nil {
			return nil, err
		}
		backupsNotNil := d.bool()
		nBackups := d.length()
		if d.err != nil {
			return nil, d.err
		}
		if !backupsNotNil && nBackups > 0 {
			return nil, errCorrupt
		}
		if backupsNotNil {
			// Non-nil empty is a shape the engine never produces, but the
			// round-trip preserves it for DeepEqual-grade fidelity.
			r.Backups = make([]topology.Path, 0, nBackups)
		}
		if err := top.AddRoute(r); err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
		for range nBackups {
			links, err := d.path(top, r.Flow, "backup switch")
			if err != nil {
				return nil, err
			}
			if err := top.AddBackup(ri, topology.Path{Links: links}); err != nil {
				return nil, fmt.Errorf("cache: %w", err)
			}
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return top, nil
}

// grown returns s grown to length n, nil when s is nil and n is 0.
func grown[T any](s []T, n int) []T { return slices.Grow(s, n)[:n] }

// path reads one encoded walk of a route of flow f, its primary or a
// backup, into the built top: the switch count, the switches (narrowed
// as field into the reused scratch d.walk) and whether its links are
// non-nil. The links are carved from the decoder's link chunk, and
// top.WalkLinks resolves the walk into them. A decode error comes back
// as it is, a walk the topology rejects wrapped as a cache error.
func (d *dec) path(top *topology.Topology, f soc.Flow, field string) ([]topology.LinkID, error) {
	n := d.length()
	walk := d.walk[:0]
	for range n {
		walk = append(walk, id[topology.SwitchID](d, field))
	}
	d.walk = walk
	var links []topology.LinkID
	if d.bool() && n > 0 {
		links = carve(&d.lks, n-1)
	}
	if d.err != nil {
		return nil, d.err
	}
	links, err := top.WalkLinks(f, walk, links)
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return links, nil
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
	p.IslandRects = slice(d, decodeRect)
	p.CorePos = slice(d, decodePos)
	p.SwitchPos = slice(d, decodePos)
	p.NILengthMM = slice(d, (*dec).f64)
	p.LinkLengthMM = slice(d, (*dec).f64)
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

func decodePos(d *dec) floorplan.Point { return floorplan.Point{X: d.f64(), Y: d.f64()} }

// encodeSweepPoint encodes one of the streaming sweep's compact
// summaries.
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

// EncodeSweepResult serializes a streaming-sweep result, Spec and
// PruneStats excluded, into one exact-size allocation. Nothing decodes
// it: it exists to be digested.
func EncodeSweepResult(res *core.SweepResult) []byte {
	return encodeExact(res, encodeSweepResult)
}

func encodeSweepResult(e *enc, res *core.SweepResult) {
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
