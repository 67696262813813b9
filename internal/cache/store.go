// Package cache is the content-addressed, on-disk result cache of the
// synthesis engine. The engine's bit-identical-results guarantee —
// identical (spec, options, library) provably produce identical output,
// enforced by the noclint determinism analyzers and pinned by the
// serial-vs-parallel identity tests — turns caching from a heuristic
// into a theorem: a hit keyed by the canonical input digests
// (digest.go) plus the engine version IS the result a fresh run would
// compute, byte for byte.
//
// Two artifact kinds are cached: full synthesis results (Synthesize)
// and fault-campaign reports. A miss runs the
// engine in full. No intermediate engine state (such as per-island
// partitions) is persisted: min-cutting the islands is about 1.4% of a
// D26 miss, less than reading and writing an entry per cut costs.
// Entries are published atomically (write to a temp file, then rename),
// reads verify a payload checksum so a truncated or corrupted entry
// degrades to a miss rather than an error, and the store evicts
// least-recently-used entries once a size bound is exceeded — never an
// entry a reader currently has in flight.
package cache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"nocvi/internal/specio"
)

// EngineVersion names the semantic version of the synthesis engine for
// cache-key purposes. It participates in every cache key, so bumping it
// invalidates the entire store at once. Bump it whenever a change
// alters what the engine computes for some input — a new cost term, a
// different partition refinement order, a routing tie-break change —
// even when the change is "better": a stale hit would otherwise be
// served as current engine output. `make surface` also demands a bump
// whenever the source of a hot-path function moves, bit-neutral or
// not, and `noclint -surface update` re-records the surface after it.
// CHANGES.md records what each version changed.
const EngineVersion = 26

// Entry classes: the subdirectory an artifact kind lives under. Keys
// are only unique within a class.
const (
	ClassResult   = "result"
	ClassCampaign = "campaign"
)

// EnvDir is the environment variable consulted for a cache directory
// when a CLI's -cache-dir flag is empty. With neither set, caching is
// off — tests and scripted runs stay hermetic by default.
const EnvDir = "NOCVI_CACHE_DIR"

// DefaultMaxBytes bounds the store at 1 GiB unless configured.
const DefaultMaxBytes = 1 << 30

// StoreOptions configures Open.
type StoreOptions struct {
	// MaxBytes bounds the total size of cached entries; exceeding it
	// evicts least-recently-used entries. Zero selects DefaultMaxBytes;
	// negative disables eviction.
	MaxBytes int64
}

// Stats is a point-in-time snapshot of store activity since Open.
type Stats struct {
	Hits      int64 // reads that found a valid entry
	Misses    int64 // reads that found nothing usable
	Corrupt   int64 // subset of Misses caused by checksum/format failures
	Puts      int64 // entries published
	Evictions int64 // entries removed by the size bound
	Entries   int   // entries currently indexed
	Bytes     int64 // total size currently indexed
}

// Store is an on-disk content-addressed cache. Entries live at
// <dir>/<class>/<hex key>; the file format is a magic header, a CRC-64
// payload checksum and the payload. Safe for concurrent use by any
// number of goroutines; concurrent same-key writers are resolved by
// atomic rename (one complete file wins, readers never observe a torn
// entry).
//
// Recency is tracked with an in-process logical clock, seeded from file
// modification times at Open — approximate across processes, exact
// within one, and never a wall-clock read on the synthesis path.
type Store struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*entry // keyed by "<class>/<hex>"
	classes map[string]bool   // class dirs known to exist
	clock   int64
	total   int64
	stats   Stats
}

type entry struct {
	size int64
	last int64 // logical-clock time of last touch
	refs int   // in-flight readers; pinned against eviction
}

// testHookBeforeRead, when non-nil, runs after a read has registered
// itself in flight but before the file is opened. The eviction tests use
// it to force an eviction pass into that window. Always nil in
// production.
var testHookBeforeRead func(class string, key specio.Digest)

// blob framing: magic, 8-byte big-endian CRC-64/ECMA of the payload,
// payload. CRC-64 is integrity against torn or bit-rotten files — the
// content addressing itself is SHA-256 in the key.
var blobMagic = []byte("nvc1")

var crcTable = crc64.MakeTable(crc64.ECMA)

const blobHeaderLen = 4 + 8

// Open opens (creating if needed) a cache store rooted at dir and
// indexes the entries already present. Files that do not look like
// cache entries are ignored; validation happens on read.
func Open(dir string, opt StoreOptions) (*Store, error) {
	if dir == "" {
		return nil, errors.New("cache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: opt.MaxBytes,
		entries:  make(map[string]*entry),
		classes:  make(map[string]bool),
	}
	if s.maxBytes == 0 {
		s.maxBytes = DefaultMaxBytes
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// Resolve is the CLI flag helper: it returns the store selected by a
// -cache-dir flag value and a -no-cache switch, consulting EnvDir when
// the flag is empty. A nil store (with nil error) means caching is off;
// every cached entry point treats a nil *Store as a transparent
// pass-through to the engine.
func Resolve(dir string, disable bool) (*Store, error) {
	if disable {
		return nil, nil
	}
	if dir == "" {
		dir = os.Getenv(EnvDir)
	}
	if dir == "" {
		return nil, nil
	}
	return Open(dir, StoreOptions{})
}

// scan indexes pre-existing entries, seeding recency from mtime order
// so cross-process LRU is at least approximate.
func (s *Store) scan() error {
	type seen struct {
		name string
		size int64
		mod  int64
	}
	var found []seen
	classDirs, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	for _, cd := range classDirs {
		if !cd.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, cd.Name()))
		if err != nil {
			continue // racing cleanup; entries validate on read anyway
		}
		s.classes[cd.Name()] = true
		for _, f := range files {
			// Skip directories and orphaned temp files (a crash between
			// CreateTemp and Rename leaves ".tmp-*" behind).
			if f.IsDir() || len(f.Name()) > 0 && f.Name()[0] == '.' {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			found = append(found, seen{
				name: cd.Name() + "/" + f.Name(),
				size: info.Size(),
				mod:  info.ModTime().UnixNano(),
			})
		}
	}
	sort.Slice(found, func(i, j int) bool {
		if found[i].mod != found[j].mod {
			return found[i].mod < found[j].mod
		}
		return found[i].name < found[j].name
	})
	for _, f := range found {
		s.clock++
		s.entries[f.name] = &entry{size: f.size, last: s.clock}
		s.total += f.size
	}
	return nil
}

func (s *Store) path(name string) string {
	return filepath.Join(s.dir, filepath.FromSlash(name))
}

// Get returns a copy of the payload stored under (class, key), or false
// on a miss. A missing, truncated or corrupted entry is a miss —
// corruption additionally unlinks the bad file — never an error: the
// caller's fallback is recomputation, which the determinism guarantee
// makes equivalent. The returned bytes are the caller's; readers that
// only decode the payload use view, which lends it without the copy.
func (s *Store) Get(class string, key specio.Digest) ([]byte, bool) {
	var payload []byte
	ok := s.view(class, key, func(p []byte) bool {
		payload = bytes.Clone(p)
		return true
	})
	return payload, ok
}

// bufPool holds the store's I/O buffers, as *[]byte: the entry files
// view reads and the encodings putResult publishes. A buffer is lent
// for one read or one publish and then handed back, so repeated hits
// and misses reuse the buffer the largest entry grew instead of
// allocating one per call; nothing a caller keeps points into it.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// view is the store's one read path. It reads the entry stored under
// (class, key) into a pooled buffer, validates its framing and checksum
// (decodeBlob), and calls use on the payload while the entry is still
// pinned against eviction. The payload is valid only until use returns
// — the buffer then goes back to the pool — so use must copy whatever
// it keeps. view reports whether the entry was valid and use accepted
// it; the store counts a valid entry as a hit whatever use makes of it.
func (s *Store) view(class string, key specio.Digest, use func(payload []byte) bool) bool {
	if s == nil {
		return false
	}
	name := class + "/" + key.String()
	s.mu.Lock()
	e := s.entries[name]
	if e == nil {
		// Probe entries cover files another process published after our
		// scan; refs pins them against a racing eviction either way.
		e = &entry{}
		s.entries[name] = e
	}
	e.refs++
	s.clock++
	e.last = s.clock
	s.mu.Unlock()

	if testHookBeforeRead != nil {
		testHookBeforeRead(class, key)
	}
	buf := bufPool.Get().(*[]byte)
	defer bufPool.Put(buf)
	blob, readErr := readFile(s.path(name), *buf)
	*buf = blob
	payload, ok := decodeBlob(blob, readErr)
	accepted := ok && use(payload)

	s.mu.Lock()
	e.refs--
	if !ok {
		corrupt := readErr == nil // file existed but failed validation
		if s.entries[name] == e && e.refs == 0 {
			s.total -= e.size
			delete(s.entries, name)
		}
		s.stats.Misses++
		if corrupt {
			s.stats.Corrupt++
		}
		s.mu.Unlock()
		if corrupt {
			// Unlink so the next Get does not re-read a known-bad file.
			// Best effort: a concurrent re-Put wins the rename race at
			// worst once.
			os.Remove(s.path(name)) //noclint:ignore errdrop besteffort: removing a corrupt entry; a failed unlink just means one more miss
		}
		return false
	}
	if e.size != int64(len(blob)) {
		s.total += int64(len(blob)) - e.size
		e.size = int64(len(blob))
	}
	s.stats.Hits++
	s.mu.Unlock()
	return accepted
}

// readFile reads the file at path into buf, grown to the file's size,
// and returns the bytes read. Entries are published by rename and never
// rewritten in place, so the size the open file reports is the size
// read.
func readFile(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf[:0], err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return buf[:0], err
	}
	n := int(info.Size())
	buf = slices.Grow(buf[:0], n)[:n]
	_, err = io.ReadFull(f, buf)
	return buf, err
}

// Put publishes payload under (class, key) atomically: the entry is
// written to a temp file in the same directory and renamed into place,
// so concurrent readers see either the previous complete entry or the
// new complete entry, never a prefix. Concurrent same-key writers race
// benignly — every writer's file is complete, the last rename wins.
func (s *Store) Put(class string, key specio.Digest, payload []byte) error {
	if s == nil {
		return nil
	}
	classDir := filepath.Join(s.dir, class)
	s.mu.Lock()
	known := s.classes[class]
	s.mu.Unlock()
	if !known {
		if err := os.MkdirAll(classDir, 0o777); err != nil {
			return fmt.Errorf("cache: %w", err)
		}
		s.mu.Lock()
		s.classes[class] = true
		s.mu.Unlock()
	}

	// The header and the payload go to the file as two writes, so the
	// payload is never copied into a framed blob.
	hdr := blobHeader(payload)
	tmp, err := os.CreateTemp(classDir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	tmpName := tmp.Name()
	_, err = tmp.Write(hdr[:])
	if err == nil {
		_, err = tmp.Write(payload)
	}
	if err != nil {
		tmp.Close()        //noclint:ignore errdrop besteffort: cleanup after a failed write; the write error is what matters
		os.Remove(tmpName) //noclint:ignore errdrop besteffort: cleanup after a failed write
		return fmt.Errorf("cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName) //noclint:ignore errdrop besteffort: cleanup after a failed close
		return fmt.Errorf("cache: %w", err)
	}
	name := class + "/" + key.String()
	if err := os.Rename(tmpName, s.path(name)); err != nil {
		os.Remove(tmpName) //noclint:ignore errdrop besteffort: cleanup after a failed rename
		return fmt.Errorf("cache: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[name]
	if e == nil {
		e = &entry{}
		s.entries[name] = e
	}
	size := int64(blobHeaderLen + len(payload))
	s.total += size - e.size
	e.size = size
	s.clock++
	e.last = s.clock
	s.stats.Puts++
	s.evictLocked(name)
	return nil
}

// evictLocked removes least-recently-used entries until the store fits
// its size bound. Entries with in-flight readers (refs > 0) are never
// victims — a reader holding an entry keeps it alive — and the entry
// just published (justPut) is only evicted as a last resort, when it
// alone exceeds the bound. Called with s.mu held.
func (s *Store) evictLocked(justPut string) {
	if s.maxBytes < 0 {
		return
	}
	for s.total > s.maxBytes {
		victim := ""
		var ve *entry
		//noclint:ignore maprange victim selection is an argmin with a total (last, name) tie-break; visit order cannot change the winner
		for name, e := range s.entries {
			if e.refs > 0 || name == justPut {
				continue
			}
			if ve == nil || e.last < ve.last || (e.last == ve.last && name < victim) {
				victim, ve = name, e
			}
		}
		if ve == nil {
			return // everything else is pinned; allow temporary overflow
		}
		os.Remove(s.path(victim)) //noclint:ignore errdrop besteffort: a failed unlink leaves an orphan file the next scan re-indexes
		s.total -= ve.size
		delete(s.entries, victim)
		s.stats.Evictions++
	}
}

// StoreStats snapshots the store's counters.
func (s *Store) StoreStats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Bytes = s.total
	return st
}

// Dir returns the store's root directory.
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// blobHeader is the header an entry file of payload starts with: the
// magic and the payload's CRC-64. The payload follows it.
func blobHeader(payload []byte) [blobHeaderLen]byte {
	var h [blobHeaderLen]byte
	copy(h[:], blobMagic)
	binary.BigEndian.PutUint64(h[len(blobMagic):], crc64.Checksum(payload, crcTable))
	return h
}

// decodeBlob validates a raw entry file and returns its payload.
func decodeBlob(blob []byte, readErr error) ([]byte, bool) {
	if readErr != nil || len(blob) < blobHeaderLen {
		return nil, false
	}
	for i, b := range blobMagic {
		if blob[i] != b {
			return nil, false
		}
	}
	want := binary.BigEndian.Uint64(blob[4:blobHeaderLen])
	payload := blob[blobHeaderLen:]
	if crc64.Checksum(payload, crcTable) != want {
		return nil, false
	}
	return payload, true
}
