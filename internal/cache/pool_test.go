package cache

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/specio"
)

// suiteSpecs returns the bundled specs and the digest of a fresh
// Workers: 1 run of each under testOptions.
func suiteSpecs(t *testing.T, lib *model.Library) ([]*soc.Spec, []specio.Digest) {
	t.Helper()
	names := bench.Names()
	specs := make([]*soc.Spec, len(names))
	want := make([]specio.Digest, len(names))
	for i, name := range names {
		spec, err := bench.Islanded(name)
		if err != nil {
			t.Fatal(err)
		}
		opt := testOptions()
		opt.Workers = 1
		fresh, err := core.Synthesize(spec, lib, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		specs[i], want[i] = spec, ResultDigest(fresh)
	}
	return specs, want
}

// TestPooledBuffersInvisibleInResults serves the bundled specs
// concurrently, at one and two workers, from one store: each goroutine
// misses or hits its spec, then hits it twice more, reading filler
// entries of other sizes in between, so the pooled read and encode
// buffers pass between goroutines and shrink and grow under them. Every
// result must digest as a fresh run, the calls after the entry is stored
// must be hits (a payload clobbered while it is decoded fails the decode
// and reads as a miss), and every result must still digest the same once
// all of them are done: none aliases a pooled buffer.
func TestPooledBuffersInvisibleInResults(t *testing.T) {
	lib := model.Default65nm()
	ctx := context.Background()
	specs, want := suiteSpecs(t, lib)
	s := openTest(t, StoreOptions{})

	fillers := make([][]byte, 3)
	for i, n := range []int{1, 3 << 10, 300 << 10} {
		fillers[i] = bytes.Repeat([]byte{byte(i + 1)}, n)
		if err := s.Put(ClassResult, keyOf(fmt.Sprint("filler", i)), fillers[i]); err != nil {
			t.Fatal(err)
		}
	}

	type served struct {
		spec int
		res  *core.Result
	}
	var (
		mu   sync.Mutex
		kept []served
		wg   sync.WaitGroup
	)
	for i := range specs {
		for _, workers := range []int{1, 2} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				opt := testOptions()
				opt.Workers = workers
				for round := 0; round < 3; round++ {
					res, err := Synthesize(ctx, s, specs[i], lib, opt)
					if err != nil {
						t.Errorf("spec %d workers %d: %v", i, workers, err)
						return
					}
					if round > 0 && res.CacheStats != (core.CacheStats{Hits: 1}) {
						t.Errorf("spec %d workers %d round %d: %+v on a stored entry, want a hit", i, workers, round, res.CacheStats)
					}
					if ResultDigest(res) != want[i] {
						t.Errorf("spec %d workers %d round %d: result differs from a fresh run", i, workers, round)
					}
					mu.Lock()
					kept = append(kept, served{i, res})
					mu.Unlock()

					f := (i + round) % len(fillers)
					if got, ok := s.Get(ClassResult, keyOf(fmt.Sprint("filler", f))); !ok || !bytes.Equal(got, fillers[f]) {
						t.Errorf("filler %d read back wrong (hit %v)", f, ok)
					}
				}
			}()
		}
	}
	wg.Wait()
	for _, k := range kept {
		if ResultDigest(k.res) != want[k.spec] {
			t.Fatalf("spec %d: a served result changed after later reads reused the buffers", k.spec)
		}
	}
}

// TestHitResultOutlivesBufferReuse decodes a hit and then has later
// hits and misses of other entries reuse the store's buffers: the first
// result must digest the same afterwards.
func TestHitResultOutlivesBufferReuse(t *testing.T) {
	lib := model.Default65nm()
	ctx := context.Background()
	opt := testOptions()
	spec := bench.D26()
	others := []*soc.Spec{smallSpec(t), editIsland(t, spec, 0)}
	s := openTest(t, StoreOptions{})
	if _, err := Synthesize(ctx, s, spec, lib, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := Synthesize(ctx, s, others[0], lib, opt); err != nil {
		t.Fatal(err)
	}

	hit, err := Synthesize(ctx, s, spec, lib, opt)
	if err != nil || hit.CacheStats.Hits != 1 {
		t.Fatalf("D26 was not a hit: %+v, %v", hit, err)
	}
	want := ResultDigest(hit)
	for _, o := range others { // a hit, then a miss that publishes
		if _, err := Synthesize(ctx, s, o, lib, opt); err != nil {
			t.Fatal(err)
		}
	}
	if ResultDigest(hit) != want {
		t.Fatal("a decoded hit changed after later reads and publishes reused the buffers")
	}
}

// TestStaleCodecEntryIsRepublished pins the branch of an entry whose
// checksum is valid but whose payload the decoder rejects, here one
// written by a later codec version: the store counts the read as a hit,
// Synthesize runs the engine and reports a miss with the fresh result,
// and publishes over the entry so that the next call is a full hit.
func TestStaleCodecEntryIsRepublished(t *testing.T) {
	lib := model.Default65nm()
	ctx := context.Background()
	spec, opt := bench.D26(), testOptions()
	fresh, err := Synthesize(ctx, nil, spec, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := ResultDigest(fresh)
	payload := EncodeResult(fresh)
	_, n := binary.Uvarint(payload)
	stale := append(binary.AppendUvarint(nil, codecVersion+1), payload[n:]...)

	s := openTest(t, StoreOptions{})
	key := ResultKey(spec, lib, opt)
	if err := s.Put(ClassResult, key, stale); err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(ctx, s, spec, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheStats != (core.CacheStats{Misses: 1}) || ResultDigest(res) != want {
		t.Fatalf("stale entry: stats %+v, digest equal %v; want a miss equal to a fresh run",
			res.CacheStats, ResultDigest(res) == want)
	}
	if st := s.StoreStats(); st != (Stats{Hits: 1, Puts: 2, Entries: 1, Bytes: int64(blobHeaderLen + len(payload))}) {
		t.Fatalf("after the stale read: %+v", st)
	}
	hdr := blobHeader(payload)
	if file, err := os.ReadFile(filepath.Join(s.Dir(), ClassResult, key.String())); err != nil ||
		!bytes.Equal(file, append(hdr[:], payload...)) {
		t.Fatalf("stale entry not overwritten by the fresh encoding (%v)", err)
	}

	res, err = Synthesize(ctx, s, spec, lib, opt)
	if err != nil || res.CacheStats != (core.CacheStats{Hits: 1}) || ResultDigest(res) != want {
		t.Fatalf("call after the republish: %+v, %v; want a full hit equal to a fresh run", res.CacheStats, err)
	}
	if st := s.StoreStats(); st.Hits != 2 || st.Misses != 0 || st.Corrupt != 0 || st.Puts != 2 {
		t.Fatalf("after the full hit: %+v", st)
	}
}

// bytesPerCall returns the bytes f allocates per call, averaged over
// calls calls with the collector off, so pooled buffers stay pooled.
func bytesPerCall(calls int, f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(calls)
}

// warmD26 returns a store holding the D26 entry, its key and its
// payload, after one hit has warmed the buffer pool.
func warmD26(t *testing.T, lib *model.Library, opt core.Options) (*Store, specio.Digest, []byte) {
	t.Helper()
	s := openTest(t, StoreOptions{MaxBytes: -1})
	for _, want := range []core.CacheStats{{Misses: 1}, {Hits: 1}} {
		res, err := Synthesize(context.Background(), s, bench.D26(), lib, opt)
		if err != nil || res.CacheStats != want {
			t.Fatalf("warm-up: %+v, %v; want %+v", res, err, want)
		}
	}
	key := ResultKey(bench.D26(), lib, opt)
	payload, ok := s.Get(ClassResult, key)
	if !ok {
		t.Fatal("D26 entry missing after warm-up")
	}
	return s, key, payload
}

// TestHitAllocatesOnlyTheResult pins the hit's allocation budget: a
// full D26 hit allocates at most what decoding its payload and keying
// its inputs allocate, plus 2 KiB for opening and stating the file. The
// entry file itself (~77 KB) is read into a pooled buffer.
func TestHitAllocatesOnlyTheResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocations and drops pooled buffers")
	}
	lib, opt := model.Default65nm(), testOptions()
	spec := bench.D26()
	s, _, payload := warmD26(t, lib, opt)
	const calls = 50
	decode := bytesPerCall(calls, func() {
		if _, err := DecodeResult(payload, spec, lib); err != nil {
			t.Fatal(err)
		}
	})
	key := bytesPerCall(calls, func() { ResultKey(spec, lib, opt) })
	hit := bytesPerCall(calls, func() {
		if res, err := Synthesize(context.Background(), s, spec, lib, opt); err != nil || res.CacheStats.Hits != 1 {
			t.Fatalf("not a hit: %v", err)
		}
	})
	if limit := decode + key + 2<<10; hit > limit {
		t.Fatalf("a full hit allocates %d B, want at most %d B (decode %d + key %d + 2 KiB); entry payload %d B",
			hit, limit, decode, key, len(payload))
	}
	t.Logf("a full hit allocates %d B: decode %d B, key %d B, payload %d B", hit, decode, key, len(payload))
}

// TestPublishAllocatesNoEntryBuffer pins the miss's publish step: on a
// warm pool, encoding a D26 result and putting it allocates far less
// than the payload, which is encoded into a pooled buffer.
func TestPublishAllocatesNoEntryBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocations and drops pooled buffers")
	}
	lib, opt := model.Default65nm(), testOptions()
	s, key, payload := warmD26(t, lib, opt)
	res, err := DecodeResult(payload, bench.D26(), lib)
	if err != nil {
		t.Fatal(err)
	}
	publish := bytesPerCall(50, func() {
		if err := s.putResult(key, res); err != nil {
			t.Fatal(err)
		}
	})
	if limit := uint64(len(payload) / 8); publish >= limit {
		t.Fatalf("publishing a %d B payload allocates %d B, want under %d B", len(payload), publish, limit)
	}
	t.Logf("publishing a %d B payload allocates %d B", len(payload), publish)
}
