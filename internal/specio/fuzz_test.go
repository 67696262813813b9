package specio

import (
	"bytes"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/verify"
)

// FuzzSpecSynthesize drives arbitrary bytes through the spec boundary
// into the engine: ReadSpec, Validate, then the full Synthesize sweep.
// Every input must end in an error or in a best point that the full
// sign-off (verify.Run: structure, shutdown matrix, deadlock freedom,
// capacity) passes — never in a panic.
//
// Seeds are the bundled benchmarks as JSON; testdata/fuzz/
// FuzzSpecSynthesize holds small hand-made specs for the decoder's and
// the validator's edge cases. Run with
//
//	go test -run '^$' -fuzz FuzzSpecSynthesize -fuzztime 10s ./internal/specio
func FuzzSpecSynthesize(f *testing.F) {
	for _, name := range bench.Names() {
		spec, err := bench.Islanded(name)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteSpec(&buf, spec); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	lib := model.Default65nm()
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ReadSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ReadSpec accepted a spec that does not validate: %v", err)
		}
		res, err := core.Synthesize(spec, lib, core.Options{Workers: 1})
		if err != nil {
			return
		}
		best := res.Best()
		if best == nil {
			t.Fatal("synthesis succeeded without a design point")
		}
		if rep := verify.Run(best.Top, best.Placement); !rep.OK() {
			t.Fatalf("best point fails sign-off:\n%s", rep.Format())
		}
	})
}

// FuzzReadTopology drives arbitrary bytes through the topology JSON
// boundary (ReadTopology, behind nocvi.ReadTopologyJSON) against the
// example SoC and the registry's D26. Every input must end in an error
// or in a topology that passes Validate — never in a panic — and an
// accepted topology must serialize to a WriteTopology/ReadTopology
// fixed point.
//
// testdata/fuzz/FuzzReadTopology holds WriteTopology output for the
// example SoC and for a survivable (k=1) D26 design, the malformed
// inputs that once panicked, and that D26 output with two route entries
// overwritten by the first (flow-routed-thrice: as many routes as flows,
// yet one flow routed three times and two never), which Validate once
// accepted, and the wrapped-* inputs: the D26 winner with one ID field
// raised by 2^32 (TestReadTopologyRejectsWrappedIDs). Run with
//
//	go test -run '^$' -fuzz FuzzReadTopology -fuzztime 10s ./internal/specio
func FuzzReadTopology(f *testing.F) {
	d26, err := bench.Islanded("d26_media")
	if err != nil {
		f.Fatal(err)
	}
	specs := []*soc.Spec{bench.Example(), d26}
	lib := model.Default65nm()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, spec := range specs {
			top, err := ReadTopology(bytes.NewReader(data), spec, lib)
			if err != nil {
				continue
			}
			if err := top.Validate(); err != nil {
				t.Fatalf("ReadTopology accepted a topology that does not validate: %v", err)
			}
			var once, twice bytes.Buffer
			if err := WriteTopology(&once, top); err != nil {
				t.Fatal(err)
			}
			back, err := ReadTopology(bytes.NewReader(once.Bytes()), spec, lib)
			if err != nil {
				t.Fatalf("re-reading an accepted topology failed: %v", err)
			}
			if err := WriteTopology(&twice, back); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(once.Bytes(), twice.Bytes()) {
				t.Fatal("WriteTopology output is not a round-trip fixed point")
			}
		}
	})
}
