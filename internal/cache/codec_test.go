package cache

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/floorplan"
	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/specgen"
)

func testOptions() core.Options {
	return core.Options{AllowIntermediate: true, MaxIntermediateSwitches: 2}
}

func smallSpec(t testing.TB) *soc.Spec {
	t.Helper()
	return specgen.Random(3, specgen.Options{MaxCores: 12, MaxIslands: 4})
}

// sameResult asserts a decoded result is indistinguishable from the
// original in every exported field, CacheStats aside.
func sameResult(t *testing.T, label string, want, got *core.Result) {
	t.Helper()
	a, b := *want, *got
	a.CacheStats, b.CacheStats = core.CacheStats{}, core.CacheStats{}
	// Topologies carry unexported incremental indexes that reflect build
	// history; compare their exported identity via the codec digest and
	// the exported fields via reflect on the rest.
	if ResultDigest(&a) != ResultDigest(&b) {
		t.Fatalf("%s: digests differ", label)
	}
	if a.Explored != b.Explored || a.Feasible != b.Feasible ||
		a.Partial != b.Partial || a.StopReason != b.StopReason {
		t.Fatalf("%s: accounting differs: %+v vs %+v", label, a, b)
	}
	if !reflect.DeepEqual(a.IslandFreqHz, b.IslandFreqHz) ||
		!reflect.DeepEqual(a.MaxSwitchSize, b.MaxSwitchSize) ||
		!reflect.DeepEqual(a.MinSwitches, b.MinSwitches) ||
		!reflect.DeepEqual(a.Relaxations, b.Relaxations) ||
		!reflect.DeepEqual(a.Errors, b.Errors) {
		t.Fatalf("%s: step-1/2 or error fields differ", label)
	}
	if len(a.Points) != len(b.Points) {
		t.Fatalf("%s: %d vs %d points", label, len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		p, q := &a.Points[i], &b.Points[i]
		if p.NoCPower != q.NoCPower || p.MeanLatencyCycles != q.MeanLatencyCycles ||
			p.NoCAreaMM2 != q.NoCAreaMM2 || p.WireViolations != q.WireViolations ||
			p.MidSwitches != q.MidSwitches ||
			!reflect.DeepEqual(p.SwitchCounts, q.SwitchCounts) ||
			p.FloorplanOpt != q.FloorplanOpt ||
			!reflect.DeepEqual(p.Relaxations, q.Relaxations) {
			t.Fatalf("%s: point %d differs", label, i)
		}
		if !reflect.DeepEqual(p.Placement, q.Placement) {
			t.Fatalf("%s: point %d placement differs", label, i)
		}
		sameTopology(t, label, i, p, q)
	}
}

func sameTopology(t *testing.T, label string, i int, p, q *core.DesignPoint) {
	t.Helper()
	a, b := p.Top, q.Top
	if a.NoCIsland != b.NoCIsland ||
		!reflect.DeepEqual(a.IslandFreqHz, b.IslandFreqHz) ||
		!reflect.DeepEqual(a.IslandVoltage, b.IslandVoltage) ||
		!reflect.DeepEqual(a.Switches, b.Switches) ||
		!reflect.DeepEqual(a.SwitchOf, b.SwitchOf) ||
		!reflect.DeepEqual(a.Routes, b.Routes) {
		t.Fatalf("%s: point %d topology differs", label, i)
	}
	// Links carry the order-dependent float accumulations (TrafficBps)
	// and recomputed capacities: require bit equality.
	if !reflect.DeepEqual(a.Links, b.Links) {
		t.Fatalf("%s: point %d links differ (traffic/capacity replay not bit-exact?)", label, i)
	}
}

func TestResultCodecRoundTrip(t *testing.T) {
	lib := model.Default65nm()
	specs := []*soc.Spec{bench.D26(), smallSpec(t)}
	for _, spec := range specs {
		res, err := core.Synthesize(spec, lib, testOptions())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		blob := EncodeResult(res)
		dec, err := DecodeResult(blob, spec, lib)
		if err != nil {
			t.Fatalf("%s: decode: %v", spec.Name, err)
		}
		sameResult(t, spec.Name, res, dec)
		if dec.Spec != spec {
			t.Fatalf("%s: decoded Spec not the caller's", spec.Name)
		}
		// Re-encoding the decoded result must be byte-identical: the
		// canonical form is a fixed point.
		if ResultDigest(res) != ResultDigest(dec) {
			t.Fatalf("%s: digest not a fixed point", spec.Name)
		}
	}
}

// TestSweepResultDigestSensitivity pins SweepResultDigest as an identity
// over a real sweep: changing any field EncodeSweepResult writes —
// accounting, stop metadata, either summary, the front, the errors, the
// rebuilt winners and their aliasing — must change the digest.
func TestSweepResultDigestSensitivity(t *testing.T) {
	lib := model.Default65nm()
	spec := smallSpec(t)
	res, err := core.SynthesizeSweep(context.Background(), spec, lib, testOptions(), core.SweepOptions{WidthPerIsland: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestPower == nil || res.BestLatency == nil || len(res.Front) == 0 {
		t.Fatal("sweep found no winners: the mutations below would test nothing")
	}
	base := SweepResultDigest(res)
	point := func(p *core.SweepPoint, edit func(*core.SweepPoint)) *core.SweepPoint {
		q := *p
		q.SwitchCounts = append([]int(nil), p.SwitchCounts...)
		edit(&q)
		return &q
	}
	design := func(r *core.SweepResult, edit func(*core.DesignPoint)) {
		dp := *r.BestPower
		edit(&dp)
		if r.BestLatency == r.BestPower {
			r.BestLatency = &dp
		}
		r.BestPower = &dp
	}
	mutations := []struct {
		name string
		edit func(r *core.SweepResult)
	}{
		{"Size", func(r *core.SweepResult) { r.Size++ }},
		{"Explored", func(r *core.SweepResult) { r.Explored-- }},
		{"Feasible", func(r *core.SweepResult) { r.Feasible++ }},
		{"Truncated", func(r *core.SweepResult) { r.Truncated = !r.Truncated }},
		{"Partial", func(r *core.SweepResult) { r.Partial = !r.Partial }},
		{"StopReason", func(r *core.SweepResult) { r.StopReason = core.StopCanceled }},
		{"BestPowerPoint.Index", func(r *core.SweepResult) {
			r.BestPowerPoint = point(r.BestPowerPoint, func(p *core.SweepPoint) { p.Index++ })
		}},
		{"BestPowerPoint.SwitchCounts", func(r *core.SweepResult) {
			r.BestPowerPoint = point(r.BestPowerPoint, func(p *core.SweepPoint) { p.SwitchCounts[0]++ })
		}},
		{"BestPowerPoint.MidSwitches", func(r *core.SweepResult) {
			r.BestPowerPoint = point(r.BestPowerPoint, func(p *core.SweepPoint) { p.MidSwitches++ })
		}},
		{"BestPowerPoint.PowerW", func(r *core.SweepResult) {
			r.BestPowerPoint = point(r.BestPowerPoint, func(p *core.SweepPoint) { p.PowerW *= 2 })
		}},
		{"BestPowerPoint.AreaMM2", func(r *core.SweepResult) {
			r.BestPowerPoint = point(r.BestPowerPoint, func(p *core.SweepPoint) { p.AreaMM2 *= 2 })
		}},
		{"BestPowerPoint.WireViolations", func(r *core.SweepResult) {
			r.BestPowerPoint = point(r.BestPowerPoint, func(p *core.SweepPoint) { p.WireViolations++ })
		}},
		{"BestPowerPoint nil", func(r *core.SweepResult) { r.BestPowerPoint = nil }},
		{"BestLatencyPoint.LatencyCycles", func(r *core.SweepResult) {
			r.BestLatencyPoint = point(r.BestLatencyPoint, func(p *core.SweepPoint) { p.LatencyCycles *= 2 })
		}},
		{"Front length", func(r *core.SweepResult) { r.Front = r.Front[:len(r.Front)-1] }},
		{"Front point", func(r *core.SweepResult) {
			r.Front = append([]core.SweepPoint(nil), r.Front...)
			r.Front[0] = *point(&r.Front[0], func(p *core.SweepPoint) { p.PowerW *= 2 })
		}},
		{"Errors", func(r *core.SweepResult) {
			r.Errors = append(r.Errors, core.CandidateError{SwitchCounts: []int{1}, Panic: "boom"})
		}},
		{"ErrorCount", func(r *core.SweepResult) { r.ErrorCount++ }},
		{"BestPower metric", func(r *core.SweepResult) {
			design(r, func(dp *core.DesignPoint) { dp.MeanLatencyCycles *= 2 })
		}},
		{"BestPower switch counts", func(r *core.SweepResult) {
			design(r, func(dp *core.DesignPoint) { dp.SwitchCounts = append([]int{99}, dp.SwitchCounts[1:]...) })
		}},
		{"BestPower nil", func(r *core.SweepResult) { r.BestPower = nil }},
		{"BestLatency aliasing", func(r *core.SweepResult) {
			if r.BestLatency == r.BestPower {
				dp := *r.BestPower
				r.BestLatency = &dp
			} else {
				r.BestLatency = r.BestPower
			}
		}},
	}
	for _, m := range mutations {
		r := *res
		m.edit(&r)
		if SweepResultDigest(&r) == base {
			t.Errorf("changing %s left the sweep digest unchanged", m.name)
		}
	}
	if SweepResultDigest(res) != base {
		t.Fatal("a mutation leaked into the original sweep result")
	}
}

// TestDecodeResultRejectsTruncatedByte pins the slot the deleted
// Result.Truncated flag left in the encoding: EncodeResult always writes
// false there, and DecodeResult refuses a set byte, so every blob that
// decodes re-encodes to itself.
func TestDecodeResultRejectsTruncatedByte(t *testing.T) {
	lib := model.Default65nm()
	spec := smallSpec(t)
	res, err := core.Synthesize(spec, lib, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*core.Result{{}, res} {
		// The flag follows the version, the step-1/2 slices and the two
		// counts.
		e := &enc{}
		e.u64(codecVersion)
		e.f64s(r.IslandFreqHz)
		e.ints(r.MaxSwitchSize)
		e.ints(r.MinSwitches)
		e.u64(uint64(r.Explored))
		e.u64(uint64(r.Feasible))
		pos := len(e.b)
		blob := EncodeResult(r)
		if blob[pos] != 0 {
			t.Fatalf("EncodeResult wrote %#x in the truncation slot, want 0", blob[pos])
		}
		if _, err := DecodeResult(blob, spec, lib); err != nil {
			t.Fatalf("unmodified encoding does not decode: %v", err)
		}
		blob[pos] = 1
		if _, err := DecodeResult(blob, spec, lib); !errors.Is(err, errCorrupt) {
			t.Fatalf("a set truncation byte decoded with err=%v, want errCorrupt", err)
		}
	}
}

// TestDecodeNeverPanics drives the decoder over truncations and bit
// flips of a real encoding: every malformation must surface as an
// error (treated as a miss upstream), never a panic or a silent
// success.
func TestDecodeNeverPanics(t *testing.T) {
	lib := model.Default65nm()
	spec := smallSpec(t)
	res, err := core.Synthesize(spec, lib, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	blob := EncodeResult(res)

	for cut := 0; cut < len(blob); cut += 7 {
		if _, err := DecodeResult(blob[:cut], spec, lib); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
	for pos := 0; pos < len(blob); pos += 11 {
		mut := append([]byte(nil), blob...)
		mut[pos] ^= 0x40
		dec, err := DecodeResult(mut, spec, lib)
		// A bit flip in a float payload legitimately decodes (the CRC
		// layer, not the codec, guards integrity); it must just never
		// panic. A flip in structure must error, not misdecode into a
		// result claiming to be the original.
		if err == nil && dec == nil {
			t.Fatalf("flip at %d: nil result without error", pos)
		}
	}
}

// TestResultCodecRoundTripSurvivable extends the round-trip proof to
// topologies carrying backup routes: the Backups arrays (covered by the
// Routes DeepEqual in sameTopology) must survive the codec bit-exactly,
// and the decoded topologies must still prove the survivability
// contract from their reconstructed state.
func TestResultCodecRoundTripSurvivable(t *testing.T) {
	lib := model.Default65nm()
	spec := bench.D26()
	opt := testOptions()
	opt.Survivability = 1
	res, err := core.Synthesize(spec, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	backups := 0
	for i := range res.Points {
		top := res.Points[i].Top
		for ri := range top.Routes {
			backups += len(top.Routes[ri].Backups)
		}
	}
	if backups == 0 {
		t.Fatal("k=1 synthesis produced no backups — round trip asserts nothing")
	}
	blob := EncodeResult(res)
	dec, err := DecodeResult(blob, spec, lib)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	sameResult(t, "d26 k=1", res, dec)
	for i := range dec.Points {
		if err := dec.Points[i].Top.ValidateSurvivable(1); err != nil {
			t.Fatalf("decoded point %d lost the survivability contract: %v", i, err)
		}
	}
	if ResultDigest(res) != ResultDigest(dec) {
		t.Fatal("digest not a fixed point for a survivable result")
	}
}

// checkSized asserts the exact-size contract for one encoding: got, the
// encoder's output, is as long as the sizing pass of body counts and
// has no spare capacity, and entry, the public entry point, makes
// exactly one allocation.
func checkSized(t *testing.T, label string, body func(*enc), got []byte, entry func()) {
	t.Helper()
	s := enc{sizing: true}
	body(&s)
	if len(got) != s.n || cap(got) != len(got) {
		t.Errorf("%s: encoding has len %d cap %d, sizing pass counted %d", label, len(got), cap(got), s.n)
	}
	if allocs := testing.AllocsPerRun(2, entry); allocs != 1 {
		t.Errorf("%s: %v allocations per encode, want 1", label, allocs)
	}
}

// TestEncodeSizedExactly pins every encoding as one allocation of
// exactly its final size, over the bundled suite at survivability 0 and
// 1, a random spec, a 104-core streaming sweep and a topology digest.
func TestEncodeSizedExactly(t *testing.T) {
	lib := model.Default65nm()
	result := func(label string, res *core.Result) {
		checkSized(t, label, func(e *enc) { encodeResult(e, res) }, EncodeResult(res), func() { EncodeResult(res) })
	}
	var d26 *core.Result
	for _, name := range bench.Names() {
		spec, err := bench.Islanded(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1} {
			opt := testOptions()
			opt.Survivability = k
			res, err := core.Synthesize(spec, lib, opt)
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			result(fmt.Sprintf("%s k=%d", name, k), res)
			if name == "d26_media" && k == 1 {
				d26 = res
			}
		}
	}
	if d26 == nil {
		t.Fatal("d26_media is not in the bundled suite")
	}

	spec := smallSpec(t)
	res, err := core.Synthesize(spec, lib, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	result("specgen", res)

	sweep, err := core.SynthesizeSweep(context.Background(), specgen.Large(7, 104, 10), lib,
		core.Options{Floorplan: floorplan.Options{SkipAnnotate: true}}, core.SweepOptions{WidthPerIsland: 4, Limit: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.BestPower == nil {
		t.Fatal("d104 sweep found no winner: its encoding would carry no design")
	}
	checkSized(t, "d104 sweep", func(e *enc) { encodeSweepResult(e, sweep) },
		EncodeSweepResult(sweep), func() { EncodeSweepResult(sweep) })

	top := d26.Best().Top
	encoded := encodeExact(top, encodeTopology)
	checkSized(t, "d26 k=1 topology", func(e *enc) { encodeTopology(e, top) },
		encoded, func() { TopologyDigest(top) })
	if TopologyDigest(top) != sha256.Sum256(encoded) {
		t.Fatal("TopologyDigest is not the digest of the topology encoding")
	}
}

// TestResultDigestGolden pins the codec's bytes to the digests the
// repository's benchmark records for D26 (benchmark/testdata/golden.json,
// seed 0), so a change to the encoding fails here and not only in the
// benchmark's own module.
func TestResultDigestGolden(t *testing.T) {
	lib := model.Default65nm()
	spec, err := bench.Islanded("d26_media")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opt  core.Options
		want string
	}{
		{"mid3", core.Options{AllowIntermediate: true, MaxIntermediateSwitches: 3},
			"470137ed30156f1ebf26c43c99b23e2f964688354f1f859318d0dc6c8871068d"},
		{"k0", core.Options{AllowIntermediate: true, Survivability: 0},
			"73f82fab528980f175cbc211b2de1d9eba8a2ad6341b98a95d60028797a7a0e8"},
		{"k1", core.Options{AllowIntermediate: true, Survivability: 1},
			"5dd9b2a114cfa5a5586753b1a41a521a7f347b3021bcfa35b3ef83fa611713dc"},
	}
	for _, c := range cases {
		c.opt.Workers = 1
		res, err := core.Synthesize(spec, lib, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := ResultDigest(res).String(); got != c.want {
			t.Errorf("%s: ResultDigest = %s, want %s", c.name, got, c.want)
		}
	}
}
