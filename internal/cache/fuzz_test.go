package cache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
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
// hand-made inputs for the header, the count caps and the set
// truncation byte EncodeResult never writes, and the wrapped-* payloads:
// one D26 point with one ID field raised by 2^32
// (TestDecodeRejectsWrappedIDs). Run with
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

// FuzzDecodeBlob feeds arbitrary bytes to the store's entry framing,
// the first thing Get does with a file read back from disk. The
// contract: a blob either decodes to a payload whose CRC-64 matches the
// header — and which frames back to exactly the same bytes — or is a
// miss; a read error is always a miss. Never a panic.
//
// Seeds are framed payloads; testdata/fuzz/FuzzDecodeBlob holds small
// hand-made inputs for the header, the magic and the checksum. Run with
//
//	go test -run '^$' -fuzz FuzzDecodeBlob -fuzztime 10s ./internal/cache
func FuzzDecodeBlob(f *testing.F) {
	frame := func(payload []byte) []byte {
		hdr := blobHeader(payload)
		return append(hdr[:], payload...)
	}
	f.Add(frame(nil))
	f.Add(frame([]byte("a framed payload")))
	f.Fuzz(func(t *testing.T, blob []byte) {
		if _, ok := decodeBlob(blob, errors.New("read failed")); ok {
			t.Fatal("a read error decoded as a hit")
		}
		payload, ok := decodeBlob(blob, nil)
		if !ok {
			if payload != nil {
				t.Fatal("a miss returned a payload")
			}
			return
		}
		if len(blob) < blobHeaderLen || !bytes.Equal(blob[:len(blobMagic)], blobMagic) {
			t.Fatal("a blob without the header decoded as a hit")
		}
		if binary.BigEndian.Uint64(blob[len(blobMagic):blobHeaderLen]) != crc64.Checksum(payload, crcTable) {
			t.Fatal("a payload decoded whose checksum does not match the header")
		}
		if !bytes.Equal(frame(payload), blob) {
			t.Fatal("decoded payload does not frame back to the same blob")
		}
	})
}
