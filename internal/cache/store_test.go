package cache

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"nocvi/internal/specio"
)

func keyOf(s string) specio.Digest { return sha256.Sum256([]byte(s)) }

func openTest(t *testing.T, opt StoreOptions) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	s := openTest(t, StoreOptions{})
	k := keyOf("a")
	payload := []byte("hello cache")
	if _, ok := s.Get(ClassResult, k); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(ClassResult, k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(ClassResult, k)
	if !ok || string(got) != string(payload) {
		t.Fatalf("got %q, %v; want %q", got, ok, payload)
	}
	// Same key in a different class is a distinct entry.
	if _, ok := s.Get(ClassSweep, k); ok {
		t.Fatal("class collision")
	}
	st := s.StoreStats()
	if st.Hits != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf("persist")
	if err := s.Put(ClassCampaign, k, []byte("vec")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(ClassCampaign, k)
	if !ok || string(got) != "vec" {
		t.Fatalf("reopen lost entry: %q, %v", got, ok)
	}
}

// TestStoreCorruptEntryIsMiss covers the corruption-tolerance contract:
// truncated files, flipped payload bytes, wrong magic and empty files
// are all misses (never errors), counted as corrupt, and unlinked so
// the next probe is a plain miss.
func TestStoreCorruptEntryIsMiss(t *testing.T) {
	corruptions := []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"truncated-header", func(b []byte) []byte { return b[:blobHeaderLen-3] }},
		{"truncated-payload", func(b []byte) []byte { return b[:len(b)-1] }},
		{"flipped-payload-bit", func(b []byte) []byte { b[blobHeaderLen] ^= 1; return b }},
		{"flipped-crc-bit", func(b []byte) []byte { b[4] ^= 1; return b }},
		{"wrong-magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"empty", func(b []byte) []byte { return nil }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			s := openTest(t, StoreOptions{})
			k := keyOf(tc.name)
			if err := s.Put(ClassResult, k, []byte("payload under test")); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(s.Dir(), ClassResult, k.String())
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mangle(blob), 0o666); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(ClassResult, k); ok {
				t.Fatalf("corrupt entry served as hit: %q", got)
			}
			st := s.StoreStats()
			if st.Corrupt != 1 {
				t.Fatalf("corrupt count = %d, want 1; stats %+v", st.Corrupt, st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt file not unlinked: %v", err)
			}
			// The slot is reusable.
			if err := s.Put(ClassResult, k, []byte("fresh")); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(ClassResult, k); !ok || string(got) != "fresh" {
				t.Fatalf("re-put after corruption: %q, %v", got, ok)
			}
		})
	}
}

// TestStoreConcurrentSameKeyWriters races many writers and readers on
// one key under -race: every read must observe some writer's complete
// payload — never a torn or interleaved file — and after the dust
// settles exactly one complete payload is the winner.
func TestStoreConcurrentSameKeyWriters(t *testing.T) {
	s := openTest(t, StoreOptions{})
	k := keyOf("contended")
	const writers = 8
	const rounds = 25

	valid := make(map[string]bool)
	for w := 0; w < writers; w++ {
		valid[fmt.Sprintf("payload-from-writer-%d", w)] = true
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		payload := []byte(fmt.Sprintf("payload-from-writer-%d", w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := s.Put(ClassResult, k, payload); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if got, ok := s.Get(ClassResult, k); ok && !valid[string(got)] {
					t.Errorf("torn read: %q", got)
					return
				}
			}
		}()
	}
	wg.Wait()

	got, ok := s.Get(ClassResult, k)
	if !ok || !valid[string(got)] {
		t.Fatalf("final state: %q, %v", got, ok)
	}
	if st := s.StoreStats(); st.Corrupt != 0 {
		t.Fatalf("corruption under contention: %+v", st)
	}
}

// TestStoreEviction fills a tightly bounded store and checks the LRU
// discipline: total stays under the bound and the least-recently-used
// entry goes first.
func TestStoreEviction(t *testing.T) {
	payload := make([]byte, 100)
	entrySize := int64(blobHeaderLen + len(payload))
	s := openTest(t, StoreOptions{MaxBytes: 3 * entrySize})

	for i := 0; i < 3; i++ {
		if err := s.Put(ClassResult, keyOf(fmt.Sprint(i)), payload); err != nil {
			t.Fatal(err)
		}
	}
	// Touch entry 0 so entry 1 is now the LRU.
	if _, ok := s.Get(ClassResult, keyOf("0")); !ok {
		t.Fatal("entry 0 missing before eviction")
	}
	if err := s.Put(ClassResult, keyOf("3"), payload); err != nil {
		t.Fatal(err)
	}

	st := s.StoreStats()
	if st.Bytes > 3*entrySize {
		t.Fatalf("bound exceeded: %d > %d", st.Bytes, 3*entrySize)
	}
	if st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats %+v", st)
	}
	if _, ok := s.Get(ClassResult, keyOf("1")); ok {
		t.Fatal("LRU entry 1 survived")
	}
	for _, want := range []string{"0", "2", "3"} {
		if _, ok := s.Get(ClassResult, keyOf(want)); !ok {
			t.Fatalf("entry %s evicted out of LRU order", want)
		}
	}
}

// TestStoreEvictionSparesInFlightRead forces an eviction pass into the
// window between a Get registering its read and opening the file (via
// the test hook) and asserts the in-flight entry survives — eviction
// falls through to the next victim or overflows temporarily, but never
// yanks a file out from under a reader.
func TestStoreEvictionSparesInFlightRead(t *testing.T) {
	payload := make([]byte, 100)
	entrySize := int64(blobHeaderLen + len(payload))
	s := openTest(t, StoreOptions{MaxBytes: entrySize})

	hot := keyOf("hot")
	if err := s.Put(ClassResult, hot, payload); err != nil {
		t.Fatal(err)
	}

	defer func() { testHookBeforeRead = nil }()
	testHookBeforeRead = func(class string, key specio.Digest) {
		testHookBeforeRead = nil // run once; Puts below must not recurse
		// This Put exceeds the bound, forcing an eviction pass while the
		// outer Get holds its ref on "hot". The only unpinned victim is
		// the new entry itself (justPut), so the pass overflows rather
		// than evicting either.
		if err := s.Put(ClassResult, keyOf("cold"), payload); err != nil {
			t.Errorf("put during read: %v", err)
		}
	}
	if got, ok := s.Get(ClassResult, hot); !ok || len(got) != len(payload) {
		t.Fatalf("in-flight read lost its entry: %v", ok)
	}
	// Once the read completes, the next Put's eviction pass may evict
	// normally again.
	if err := s.Put(ClassResult, keyOf("later"), payload); err != nil {
		t.Fatal(err)
	}
	if st := s.StoreStats(); st.Bytes > entrySize {
		t.Fatalf("bound not restored after read finished: %+v", st)
	}
}

func TestResolve(t *testing.T) {
	if s, err := Resolve("", true); s != nil || err != nil {
		t.Fatalf("disabled: %v, %v", s, err)
	}
	if s, err := Resolve("", false); s != nil || err != nil {
		t.Fatalf("unconfigured: %v, %v", s, err)
	}
	dir := t.TempDir()
	s, err := Resolve(dir, false)
	if err != nil || s == nil || s.Dir() != dir {
		t.Fatalf("flag dir: %v, %v", s, err)
	}
	t.Setenv(EnvDir, dir)
	if s, err := Resolve("", false); err != nil || s == nil || s.Dir() != dir {
		t.Fatalf("env dir: %v, %v", s, err)
	}
	if s, err := Resolve("", true); s != nil || err != nil {
		t.Fatalf("-no-cache beats env: %v, %v", s, err)
	}
}

func TestNilStoreIsTransparent(t *testing.T) {
	var s *Store
	if _, ok := s.Get(ClassResult, keyOf("x")); ok {
		t.Fatal("nil store hit")
	}
	if err := s.Put(ClassResult, keyOf("x"), []byte("y")); err != nil {
		t.Fatal(err)
	}
	if st := s.StoreStats(); st != (Stats{}) {
		t.Fatalf("nil stats %+v", st)
	}
	if s.Dir() != "" {
		t.Fatal("nil dir")
	}
}

func TestScanSkipsOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, ClassResult), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ClassResult, ".tmp-orphan"), []byte("junk"), 0o666); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.StoreStats(); st.Entries != 0 {
		t.Fatalf("orphan indexed: %+v", st)
	}
}
