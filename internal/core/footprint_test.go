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
// ID, capacity and crossing flag, and 7,504 while every switch also
// kept a list of its cores.
const publishedD26Bytes = 6832

// TestPublishedFootprintPinned pins the bytes one published point of
// the D26 k=0 winner allocates, so a field or a width that grows every
// kept point of a sweep fails here and not only in a benchmark lane.
// The count is exact. It is the least of several measured calls,
// because TotalAlloc is process-wide and a runtime or test goroutine
// may allocate during one of them.
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
	res, err := Synthesize(spec, model.Default65nm(), Options{AllowIntermediate: true})
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best()
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
	if least != publishedD26Bytes {
		t.Fatalf("one published D26 winner allocates %d bytes, want %d", least, publishedD26Bytes)
	}
}
