package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; Parent
// is the enclosing span's ID (0 at the top). The benchmark records spans
// only around its own calls into the modules' public functions — the
// engine itself is never instrumented.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer accumulates, per span name, self and total time and counts for
// the whole run, and keeps every span in memory only when they are to be
// written out. A nil *tracer records nothing, so untraced ops pass nil
// and pay one branch per call site. Spans are opened and closed on one
// goroutine, strictly nested, so a parent's child coverage is the sum of
// its children.
type tracer struct {
	t0     time.Time
	op     int // the op new spans belong to
	lastID int
	stack  []frame
	keep   bool // keep every span for writeSpans
	spans  []span
	self   map[string]int64 // span duration minus its children's, ns
	total  map[string]int64 // span duration, ns
	counts map[string]float64
}

// frame is an open span.
type frame struct {
	id      int
	start   int64
	childNs int64 // covered by the span's closed children
}

func newTracer(keep bool) *tracer {
	return &tracer{t0: time.Now(), keep: keep, self: map[string]int64{}, total: map[string]int64{}, counts: map[string]float64{}}
}

// start opens a span; its name is given when it is stopped, so a call
// can be labelled by its outcome (a cache hit or miss).
func (t *tracer) start() {
	if t == nil {
		return
	}
	t.lastID++
	t.stack = append(t.stack, frame{id: t.lastID, start: int64(time.Since(t.t0))})
}

// stop closes the innermost open span.
func (t *tracer) stop(name string) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.t0))
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := end - f.start
	t.self[name] += d - f.childNs
	t.total[name] += d
	parent := 0
	if n > 0 {
		t.stack[n-1].childNs += d
		parent = t.stack[n-1].id
	}
	if t.keep {
		t.spans = append(t.spans, span{ID: f.id, Parent: parent, Op: t.op, Name: name, StartNs: f.start, EndNs: end})
	}
}

// timed runs f inside a span called name.
func (t *tracer) timed(name string, f func() error) error {
	t.start()
	err := f()
	t.stop(name)
	return err
}

// engine is timed for a call into the engine, which also counts the
// process CPU time the call used as core.engine_cpu_ns.
func (t *tracer) engine(name string, f func() error) error {
	if t == nil {
		return f()
	}
	c0 := cpuNs()
	err := t.timed(name, f)
	t.add("core.engine_cpu_ns", float64(cpuNs()-c0))
	return err
}

// do is timed for calls that cannot fail.
func (t *tracer) do(name string, f func()) {
	t.start()
	f()
	t.stop(name)
}

// add accumulates a count recorded at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close() //noclint:ignore errdrop besteffort: the encode error is the one reported
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close() //noclint:ignore errdrop besteffort: the flush error is the one reported
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
