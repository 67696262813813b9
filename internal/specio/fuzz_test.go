package specio

import (
	"bytes"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/deadlock"
	"nocvi/internal/model"
)

// FuzzSpecSynthesize drives arbitrary bytes through the spec boundary
// into the engine: ReadSpec, Validate, then the full Synthesize sweep.
// Every input must end in an error or in a
// best point whose topology validates (shutdown invariant included)
// and is deadlock-free — never in a panic.
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
		if err := best.Top.Validate(); err != nil {
			t.Fatalf("best point does not validate: %v", err)
		}
		if err := deadlock.Check(best.Top); err != nil {
			t.Fatalf("best point is not deadlock-free: %v", err)
		}
	})
}
