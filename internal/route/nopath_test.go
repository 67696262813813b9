package route

import (
	"errors"
	"testing"

	"nocvi/internal/soc"
)

// rejectCases are two unroutable instances on threeIslandSpec's
// one-switch-per-island topology with no intermediate island: a
// primary that no link can carry, and (at k=1) a flow between two
// islands whose only legal path is their direct link, so no disjoint
// backup exists. want is the router's message for each, as it read
// when every reject allocated its own error.
var rejectCases = []struct {
	name string
	flow soc.Flow
	opt  Options
	want string
}{
	{"primary", soc.Flow{Src: 2, Dst: 5, BandwidthBps: 5e9}, Options{},
		"route: no feasible path for flow 2->5 (5000 MB/s, unconstrained)"},
	{"backup", soc.Flow{Src: 0, Dst: 2, BandwidthBps: 100e6}, Options{Survivability: 1},
		"route: no disjoint backup 1/1 for flow 0->2 (survivability 1)"},
}

// TestWarmRejectAllocatesNothing: once the router and topology are
// warm, rebuilding the candidate and routing it to a reject allocates
// nothing, for a primary and for a k=1 backup: the *NoPathError is
// the router's own.
func TestWarmRejectAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, c := range rejectCases {
		spec := threeIslandSpec()
		spec.Flows = []soc.Flow{c.flow}
		top := build(t, spec, false)
		r := New(top, c.opt)
		var err error
		n := testing.AllocsPerRun(20, func() {
			top.Reset()
			fill(t, top, false)
			r.Reset(top, c.opt)
			err = r.RouteFlows(spec.Flows)
		})
		var npe *NoPathError
		if !errors.As(err, &npe) {
			t.Fatalf("%s: want a *NoPathError, got %v", c.name, err)
		}
		if n != 0 {
			t.Errorf("%s: a warm reject allocates %v times, want 0", c.name, n)
		}
	}
}

// TestNoPathErrorLifetime pins the router-owned error's contract: its
// text is the message each reject always had, errors.As still finds
// it, the router's next Route overwrites it in place (so a caller that
// keeps it copies the value first), and Reset clears it.
func TestNoPathErrorLifetime(t *testing.T) {
	// A second unroutable flow, routed after the first reject.
	next := soc.Flow{Src: 3, Dst: 4, BandwidthBps: 6e9}
	for _, c := range rejectCases {
		spec := threeIslandSpec()
		spec.Flows = []soc.Flow{c.flow, next}
		top := build(t, spec, false)
		r := New(top, c.opt)
		err := r.RouteFlows(spec.Flows[:1])
		var npe *NoPathError
		if !errors.As(err, &npe) {
			t.Fatalf("%s: want a *NoPathError, got %v", c.name, err)
		}
		if got := err.Error(); got != c.want {
			t.Fatalf("%s: Error() = %q, want %q", c.name, got, c.want)
		}
		kept := *npe

		// The second unroutable flow reuses the same error.
		err2 := r.Route(next)
		var npe2 *NoPathError
		if !errors.As(err2, &npe2) || npe2 != npe {
			t.Fatalf("%s: the next reject returned %#v, want the router's error %p", c.name, err2, npe)
		}
		const nextMsg = "route: no feasible path for flow 3->4 (6000 MB/s, unconstrained)"
		if got := err.Error(); got != nextMsg {
			t.Fatalf("%s: after the next Route the first error reads %q, want %q", c.name, got, nextMsg)
		}
		if got := kept.Error(); got != c.want {
			t.Fatalf("%s: the copied error reads %q, want %q", c.name, got, c.want)
		}

		r.Reset(top, c.opt)
		if *npe != (NoPathError{}) {
			t.Fatalf("%s: Reset left the error as %+v", c.name, *npe)
		}
	}
}
