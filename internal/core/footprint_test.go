package core

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"nocvi/internal/bench"
	"nocvi/internal/model"
)

// publishedD26Bytes is what one published() of the D26 k=0 winner
// allocates on 64-bit targets: its switch counts, the topology's
// exact-size copy (Compact) and the placement's (Clone). It was 12,256
// bytes while design IDs were 64-bit, 9,744 while every route and
// backup also stored its switch walk, 8,400 while every switch kept its
// ID and a copy of its island's clock and supply, and every link its
// ID, capacity and crossing flag, 7,504 while every switch also kept a
// list of its cores, and 6,832 while every route kept a copy of its
// flow and its own link slice.
const publishedD26Bytes = 5552

// publishedD26K1Bytes is the same count for the survivable D26 winner
// (Survivability 1), whose routes carry backup paths, so the layout of
// a backup Path is pinned here too. It was 8,592 bytes while every
// route kept a copy of its flow and every path its own link slice.
const publishedD26K1Bytes = 6704

// TestPublishedFootprintPinned pins the bytes one published point of
// the D26 winner allocates, at k=0 and at k=1, so a field or a width
// that grows every kept point of a sweep fails here and not only in a
// benchmark lane. The count is exact. It is the least of several
// measured calls, because TotalAlloc is process-wide and a runtime or
// test goroutine may allocate during one of them.
func TestPublishedFootprintPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the pinned count is for 64-bit targets")
	}
	spec, err := bench.Islanded("d26_media")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		k    int
		want uint64
	}{{0, publishedD26Bytes}, {1, publishedD26K1Bytes}} {
		res, err := Synthesize(spec, model.Default65nm(), Options{AllowIntermediate: true, Survivability: c.k})
		if err != nil {
			t.Fatal(err)
		}
		if got := publishedBytes(res.Best()); got != c.want {
			t.Errorf("one published D26 k=%d winner allocates %d bytes, want %d", c.k, got, c.want)
		}
	}
}

// publishedBytes is the least TotalAlloc of ten published() calls on
// best, measured with the collector off.
func publishedBytes(best *DesignPoint) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := uint64(math.MaxUint64)
	for range 10 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dp := best.published()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(dp)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
