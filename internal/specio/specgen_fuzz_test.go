package specio_test

import (
	"bytes"
	"testing"

	"nocvi/internal/cache"
	"nocvi/internal/core"
	"nocvi/internal/model"
	"nocvi/internal/specgen"
	"nocvi/internal/specio"
	"nocvi/internal/verify"
)

// Option bits of FuzzSpecgenSynthesize: each set bit turns one engine
// or generator option on.
const (
	bitIntermediate = 1 << iota // AllowIntermediate, at most 2 indirect switches
	bitSurvive                  // Survivability 1
	bitSkipAnnotate             // Floorplan.SkipAnnotate
	bitNoPrune                  // NoPrune
	bitAutoVoltage              // AutoVoltage
	bitRelax                    // Relax
	bitLightFlows               // flows of at most 80 MB/s instead of 300
)

// FuzzSpecgenSynthesize drives generated SoCs through the spec
// boundary into the engine. The fuzzer picks a specgen seed, the core
// and island counts (4-19 cores, 1-6 islands) and the option bits
// above; the spec is written with WriteSpec and read back with
// ReadSpec, which must accept it, then synthesized at one worker and at
// two. Both runs must fail alike or give results with equal
// cache.ResultDigest, and a best point must pass the verify sign-off.
// Unlike FuzzSpecSynthesize's byte-mutated JSON, which almost never
// gets past ReadSpec, every input reaches the engine, and each feeds
// it a differently shaped spec through the pooled worker arenas.
// Run with
//
//	go test -run '^$' -fuzz FuzzSpecgenSynthesize -fuzztime 10s ./internal/specio
func FuzzSpecgenSynthesize(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(2), uint8(0))
	f.Add(int64(2), uint8(12), uint8(3), uint8(bitIntermediate|bitSurvive))
	f.Add(int64(3), uint8(15), uint8(4), uint8(bitSkipAnnotate|bitNoPrune|bitLightFlows))
	f.Add(int64(4), uint8(6), uint8(5), uint8(bitAutoVoltage|bitRelax|bitIntermediate))
	lib := model.Default65nm()
	f.Fuzz(func(t *testing.T, seed int64, cores, islands, bits uint8) {
		n, k := 4+int(cores%16), 1+int(islands%6)
		gen := specgen.Options{MinCores: n, MaxCores: n, MinIslands: k, MaxIslands: k}
		if bits&bitLightFlows != 0 {
			gen.MaxFlowMBps = 80
		}
		var buf bytes.Buffer
		if err := specio.WriteSpec(&buf, specgen.Random(seed, gen)); err != nil {
			t.Fatal(err)
		}
		spec, err := specio.ReadSpec(&buf)
		if err != nil {
			t.Fatalf("ReadSpec rejected a generated spec: %v", err)
		}
		var opt core.Options
		if bits&bitIntermediate != 0 {
			opt.AllowIntermediate, opt.MaxIntermediateSwitches = true, 2
		}
		if bits&bitSurvive != 0 {
			opt.Survivability = 1
		}
		opt.Floorplan.SkipAnnotate = bits&bitSkipAnnotate != 0
		opt.NoPrune = bits&bitNoPrune != 0
		opt.AutoVoltage = bits&bitAutoVoltage != 0
		opt.Relax = bits&bitRelax != 0

		opt.Workers = 1
		serial, serr := core.Synthesize(spec, lib, opt)
		opt.Workers = 2
		parallel, perr := core.Synthesize(spec, lib, opt)
		if (serr == nil) != (perr == nil) || serr != nil && serr.Error() != perr.Error() {
			t.Fatalf("workers=1 and workers=2 disagree: %v vs %v", serr, perr)
		}
		if serr != nil {
			return
		}
		if cache.ResultDigest(serial) != cache.ResultDigest(parallel) {
			t.Fatal("workers=1 and workers=2 results differ")
		}
		best := serial.Best()
		if best == nil {
			t.Fatal("synthesis succeeded without a design point")
		}
		if rep := verify.Run(best.Top, best.Placement); !rep.OK() {
			t.Fatalf("best point fails sign-off:\n%s", rep.Format())
		}
	})
}
