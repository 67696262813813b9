package cache

import (
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/model"
)

// FuzzDecodeResult feeds arbitrary bytes to the result decoder against
// the D26 spec. The decoder sizes its slices from encoded counts, so
// the contract under test is the cache's trust boundary: bad bytes
// yield an error (a miss upstream), never a panic or an unbounded
// allocation, and anything that does decode is a codec fixed point —
// re-encoding it and decoding again gives the same result digest.
//
// Seeds are the D26 encodings at survivability 0 and 1 (the latter
// carries backup routes); testdata/fuzz/FuzzDecodeResult holds small
// hand-made inputs for the header and the count caps. Run with
//
//	go test -run '^$' -fuzz FuzzDecodeResult -fuzztime 10s ./internal/cache
func FuzzDecodeResult(f *testing.F) {
	lib := model.Default65nm()
	spec := bench.D26()
	for _, survive := range []int{0, 1} {
		opt := testOptions()
		opt.Survivability = survive
		res, err := core.Synthesize(spec, lib, opt)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(EncodeResult(res))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		res, err := DecodeResult(blob, spec, lib)
		if err != nil {
			return
		}
		if res == nil {
			t.Fatal("nil result without error")
		}
		again, err := DecodeResult(EncodeResult(res), spec, lib)
		if err != nil {
			t.Fatalf("re-encoded result does not decode: %v", err)
		}
		if ResultDigest(again) != ResultDigest(res) {
			t.Fatal("decoded result is not a codec fixed point")
		}
	})
}
