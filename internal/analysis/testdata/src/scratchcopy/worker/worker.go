// Package worker exercises the scratchcopy analyzer: by-value copies
// of the scratch arenas are flagged, pointer plumbing and fresh
// composite-literal initialization are not.
package worker

import (
	"fixture/scratchcopy/deadlock"
	"fixture/scratchcopy/graph"
	"fixture/scratchcopy/power"
)

// workerCtx embeds a scratch by value, so copying the context copies
// the arena: containment is transitive.
type workerCtx struct {
	id int
	sc graph.Scratch
}

// arenaCtx holds the deadlock and power scratch by value, like the
// sweep's buildContext: copying it copies both arenas.
type arenaCtx struct {
	dl deadlock.Scratch
	pw *power.Scratch
}

// refCtx holds the arena by pointer; copying it shares, not copies.
type refCtx struct {
	id int
	s  *graph.Scratch
}

func use(s graph.Scratch) { // want scratchcopy "parameter takes graph.Scratch by value"
	_ = s
}

func usePtr(s *graph.Scratch) { s.Reset() }

func check(sc deadlock.Scratch) { // want scratchcopy "parameter takes deadlock.Scratch by value"
	_ = sc
}

func checkPtr(sc *deadlock.Scratch) { _ = sc }

func cost() power.Scratch { // want scratchcopy "result returns power.Scratch by value"
	return power.Scratch{}
}

func arenas(a *arenaCtx) {
	checkPtr(&a.dl)
	dl := a.dl // want scratchcopy "assignment copies deadlock.Scratch"
	_ = dl
	pw := *a.pw // want scratchcopy "assignment copies power.Scratch"
	_ = pw
	dup := *a // want scratchcopy "assignment copies worker.arenaCtx"
	_ = dup
	*a = arenaCtx{} // zero reset through a composite literal: clean
}

func produce() graph.Scratch { // want scratchcopy "result returns graph.Scratch by value"
	var s graph.Scratch
	return s
}

func (w workerCtx) byValueMethod() int { // want scratchcopy "receiver takes worker.workerCtx by value"
	return w.id
}

func (w *workerCtx) byPtrMethod() int { return w.id }

func copies(box any) {
	sc := graph.Scratch{} // fresh initialization: clean
	p := &sc
	usePtr(p)
	usePtr(&sc)

	dup := sc // want scratchcopy "assignment copies graph.Scratch"
	_ = dup
	deref := *p // want scratchcopy "assignment copies graph.Scratch"
	_ = deref
	var decl = sc // want scratchcopy "declaration copies graph.Scratch"
	_ = decl
	use(sc) // want scratchcopy "call passes graph.Scratch by value"

	asserted := box.(graph.Scratch) // want scratchcopy "assignment copies graph.Scratch"
	_ = asserted

	ctx := workerCtx{sc: sc} // want scratchcopy "composite literal copies graph.Scratch"
	ctx2 := ctx              // want scratchcopy "assignment copies worker.workerCtx"
	_ = ctx2

	ref := refCtx{s: &sc}
	ref2 := ref // pointer field breaks containment: clean
	_ = ref2

	var arr [2]graph.Scratch
	for _, s := range arr { // want scratchcopy "range clause copies graph.Scratch per iteration"
		_ = s
	}
	for i := range arr { // ranging by index: clean
		arr[i].Reset()
	}
	_ = len(arr) // builtin inspects without copying: clean

	ctx = workerCtx{} // zero reset through a composite literal: clean

	suppressed := sc //noclint:ignore scratchcopy fixture demonstrates a justified copy
	_ = suppressed

	fn := func(inner graph.Scratch) { // want scratchcopy "parameter takes graph.Scratch by value"
		_ = inner
	}
	_ = fn
}
