package nocvi_test

import (
	"context"
	"strings"
	"testing"

	"nocvi"
)

// TestPublicAPIQuickstart walks the README's quickstart path through the
// public facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	spec, err := nocvi.BenchmarkD26(nocvi.Logical, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nocvi.Synthesize(spec, nocvi.DefaultLibrary(), nocvi.Options{
		AllowIntermediate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best()
	if best == nil || best.NoCPower.DynW() <= 0 {
		t.Fatal("no usable design point")
	}
	if txt := nocvi.TopologyText(best.Top); !strings.Contains(txt, "island") {
		t.Fatal("TopologyText broken")
	}
	if dot := nocvi.TopologyDOT(best.Top); !strings.HasPrefix(dot, "digraph") {
		t.Fatal("TopologyDOT broken")
	}
	if svg := nocvi.FloorplanSVG(best.Top, best.Placement); !strings.HasPrefix(svg, "<svg") {
		t.Fatal("FloorplanSVG broken")
	}
	if txt := nocvi.FloorplanText(best.Top, best.Placement, 50); !strings.Contains(txt, "floorplan") {
		t.Fatal("FloorplanText broken")
	}
}

func TestPublicAPIPartitionAndPareto(t *testing.T) {
	flat, err := nocvi.BenchmarkFlat("d16_industrial")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := nocvi.PartitionIslands(flat, nocvi.Communication, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := nocvi.IntraIslandBandwidth(spec); got <= 0 || got > 1 {
		t.Fatalf("intra bandwidth fraction = %g", got)
	}
	res, err := nocvi.Synthesize(spec, nocvi.DefaultLibrary(), nocvi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	front := nocvi.ParetoFront(res)
	if len(front) == 0 || len(front) > len(res.Points) {
		t.Fatalf("front size %d of %d points", len(front), len(res.Points))
	}
	for i := 1; i < len(front); i++ {
		if front[i].X < front[i-1].X || front[i].Y > front[i-1].Y {
			t.Fatal("front not monotone")
		}
	}
}

func TestPublicAPISimulationAndShutdown(t *testing.T) {
	spec := nocvi.ExampleSoC()
	res, err := nocvi.Synthesize(spec, nocvi.DefaultLibrary(), nocvi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	top := res.Best().Top
	simRes, err := nocvi.Simulate(top, nocvi.SimConfig{DurationNs: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if simRes.Deliver != simRes.Sent || simRes.Sent == 0 {
		t.Fatalf("delivery %d/%d", simRes.Deliver, simRes.Sent)
	}
	// Gate each shutdownable island and verify both power accounting
	// and delivery.
	for i, isl := range spec.Islands {
		if !isl.Shutdownable {
			continue
		}
		off := make([]bool, len(spec.Islands))
		off[i] = true
		if err := nocvi.VerifyShutdown(top, off); err != nil {
			t.Fatal(err)
		}
		onW, offW, frac, err := nocvi.ShutdownSavings(top, isl.Name, off)
		if err != nil {
			t.Fatal(err)
		}
		if offW >= onW || frac <= 0 {
			t.Fatalf("island %s: no savings (%g -> %g)", isl.Name, onW, offW)
		}
		sp := nocvi.ShutdownPower(top, off)
		if sp.TotalW() >= nocvi.ShutdownPower(top, nil).TotalW() {
			t.Fatal("ShutdownPower mask ineffective")
		}
	}
	if b := nocvi.NoCPower(top); b.DynW() <= 0 {
		t.Fatal("NoCPower broken")
	}
}

func TestPublicAPIBenchmarks(t *testing.T) {
	names := nocvi.Benchmarks()
	if len(names) != 8 {
		t.Fatalf("benchmarks = %v", names)
	}
	for _, n := range names {
		if _, err := nocvi.Benchmark(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nocvi.Benchmark("missing"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestVerifyShutdownRejectsUnsafeMesh runs the public shutdown proof
// over the mesh baseline of every bundled benchmark. A mesh ignores the
// islands when it routes, so it may cross a gateable island: the proof
// must accept the all-on mask, and reject some single-island mask
// exactly when the mesh's own violation count is nonzero.
func TestVerifyShutdownRejectsUnsafeMesh(t *testing.T) {
	unsafe := 0
	for _, name := range nocvi.Benchmarks() {
		spec, err := nocvi.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		mr, err := nocvi.SynthesizeMesh(spec, nocvi.DefaultLibrary(), nocvi.MeshOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := nocvi.VerifyShutdown(mr.Top, make([]bool, len(spec.Islands))); err != nil {
			t.Fatalf("%s: all-on mask rejected: %v", name, err)
		}
		rejected := false
		for i, isl := range spec.Islands {
			if !isl.Shutdownable {
				continue
			}
			off := make([]bool, len(spec.Islands))
			off[i] = true
			if nocvi.VerifyShutdown(mr.Top, off) != nil {
				rejected = true
			}
		}
		if rejected != (mr.ShutdownViolations > 0) {
			t.Fatalf("%s: proof rejects a single-island mask = %v, mesh counts %d violations",
				name, rejected, mr.ShutdownViolations)
		}
		if rejected {
			unsafe++
		}
	}
	if unsafe == 0 {
		t.Fatal("no mesh baseline crosses a gateable island: the rejection path went untested")
	}
}

func TestPublicAPIUseCases(t *testing.T) {
	base, cases := nocvi.BenchmarkD26UseCases()
	if len(cases) != 3 {
		t.Fatalf("modes = %d", len(cases))
	}
	merged, err := nocvi.MergeUseCases(base, cases...)
	if err != nil {
		t.Fatal(err)
	}
	// Worst case covers every mode's pairs.
	for _, uc := range cases {
		for _, f := range uc.Flows {
			m, ok := merged.FlowBetween(f.Src, f.Dst)
			if !ok {
				t.Fatalf("mode %s flow %d->%d missing from merge", uc.Name, f.Src, f.Dst)
			}
			if m.BandwidthBps < f.BandwidthBps {
				t.Fatalf("merged bandwidth below mode %s demand", uc.Name)
			}
		}
	}
	spec, err := nocvi.PartitionIslands(merged, nocvi.Logical, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nocvi.Synthesize(spec, nocvi.DefaultLibrary(), nocvi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	top := res.Best().Top
	var prevDyn float64
	for i, uc := range cases {
		off := nocvi.IdleIslands(spec, uc)
		if err := nocvi.VerifyShutdown(top, off); err != nil {
			t.Fatalf("mode %s: %v", uc.Name, err)
		}
		sp, err := nocvi.ModePower(top, uc, off)
		if err != nil {
			t.Fatalf("mode %s: %v", uc.Name, err)
		}
		if sp.NoC.DynW() <= 0 {
			t.Fatalf("mode %s has no NoC power", uc.Name)
		}
		if i == 0 {
			prevDyn = sp.NoC.DynW()
			continue
		}
		// Modes are ordered from heaviest to lightest traffic.
		if sp.NoC.DynW() >= prevDyn {
			t.Fatalf("mode %s not lighter than its predecessor", uc.Name)
		}
		prevDyn = sp.NoC.DynW()
	}
}

// TestPublicAPIParallelSynthesis exercises the Workers option and the
// context-aware entry point through the facade.
func TestPublicAPIParallelSynthesis(t *testing.T) {
	spec := nocvi.ExampleSoC()
	lib := nocvi.DefaultLibrary()
	serial, err := nocvi.Synthesize(spec, lib, nocvi.Options{AllowIntermediate: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := nocvi.SynthesizeContext(context.Background(), spec, lib,
		nocvi.Options{AllowIntermediate: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Points) != len(parallel.Points) || serial.Explored != parallel.Explored {
		t.Fatalf("worker count changed the result: %d/%d vs %d/%d points",
			len(serial.Points), serial.Explored, len(parallel.Points), parallel.Explored)
	}
	if serial.StopReason != nocvi.StopComplete || parallel.StopReason != nocvi.StopComplete {
		t.Fatalf("exhaustive sweep stopped early: %q/%q", serial.StopReason, parallel.StopReason)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := nocvi.SynthesizeContext(ctx, spec, lib, nocvi.Options{})
	if err != nil {
		t.Fatalf("canceled sweep errored instead of degrading: %v", err)
	}
	if !res.Partial || res.StopReason != nocvi.StopCanceled {
		t.Fatalf("want Partial/%s, got Partial=%v StopReason=%q", nocvi.StopCanceled, res.Partial, res.StopReason)
	}
}
