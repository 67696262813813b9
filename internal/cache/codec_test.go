package cache

import (
	"context"
	"reflect"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
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
		a.Truncated != b.Truncated || a.Partial != b.Partial ||
		a.StopReason != b.StopReason {
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

func TestSweepResultCodecRoundTrip(t *testing.T) {
	lib := model.Default65nm()
	spec := smallSpec(t)
	res, err := core.SynthesizeSweep(context.Background(), spec, lib, testOptions(), core.SweepOptions{WidthPerIsland: 2})
	if err != nil {
		t.Fatal(err)
	}
	blob := EncodeSweepResult(res)
	dec, err := DecodeSweepResult(blob, spec, lib)
	if err != nil {
		t.Fatal(err)
	}
	if SweepResultDigest(res) != SweepResultDigest(dec) {
		t.Fatal("sweep digests differ after round trip")
	}
	if res.Size != dec.Size || res.Explored != dec.Explored || res.Feasible != dec.Feasible ||
		res.StopReason != dec.StopReason || res.ErrorCount != dec.ErrorCount {
		t.Fatalf("accounting differs: %+v vs %+v", res, dec)
	}
	if !reflect.DeepEqual(res.Front, dec.Front) ||
		!reflect.DeepEqual(res.BestPowerPoint, dec.BestPowerPoint) ||
		!reflect.DeepEqual(res.BestLatencyPoint, dec.BestLatencyPoint) {
		t.Fatal("summaries differ")
	}
	// The BestLatency-aliases-BestPower in-memory shape must survive.
	if (res.BestLatency == res.BestPower) != (dec.BestLatency == dec.BestPower) {
		t.Fatal("best-point aliasing not preserved")
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
