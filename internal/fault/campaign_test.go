package fault

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/model"
	"nocvi/internal/route"
	"nocvi/internal/topology"
)

func synthBench(t *testing.T, name string) *topology.Topology {
	t.Helper()
	spec, err := bench.Islanded(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Synthesize(spec, model.Default65nm(), core.Options{
		AllowIntermediate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Best().Top
}

// TestCampaignD26ZeroViolations is the acceptance criterion on the
// paper's own case study: a synthesized design must uphold the shutdown
// invariant in every enumerated power state.
func TestCampaignD26ZeroViolations(t *testing.T) {
	top := synthBench(t, "d26_media")
	c, err := RunCampaign(top, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !c.OK() || c.InvariantViolations != 0 {
		t.Fatalf("synthesized design violated the shutdown invariant:\n%s", c.Format())
	}
	if c.Sampled {
		t.Fatalf("d26's %d-island state space should enumerate exhaustively", c.Shutdownable)
	}
	if int64(len(c.States)) != c.StateSpace {
		t.Fatalf("evaluated %d of %d states without sampling", len(c.States), c.StateSpace)
	}
	for i := range c.States {
		s := &c.States[i]
		if !s.InvariantOK {
			t.Fatalf("state %s: %s", s.State, s.InvariantErr)
		}
		if s.Recoverable > s.Links {
			t.Fatalf("state %s: recovered %d of %d links", s.State, s.Recoverable, s.Links)
		}
	}
	// The all-on state must be first (mask ascending) and subject every
	// link to failure.
	if c.States[0].Mask != 0 || c.States[0].State != "all-on" {
		t.Fatalf("first state is %q (mask %d), want all-on", c.States[0].State, c.States[0].Mask)
	}
	if c.States[0].Links != len(top.Links) {
		t.Fatalf("all-on state tested %d of %d links", c.States[0].Links, len(top.Links))
	}
	if !strings.Contains(c.Format(), "power-state fault campaign") {
		t.Fatal("format broken")
	}
}

// TestCampaignD48ZeroViolations covers the larger benchmark of the
// acceptance criteria with the structural invariant check.
func TestCampaignD48ZeroViolations(t *testing.T) {
	top := synthBench(t, "d48_network")
	c, err := RunCampaign(top, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !c.OK() {
		t.Fatalf("d48 violated the shutdown invariant:\n%s", c.Format())
	}
	for i := range c.States {
		if !c.States[i].InvariantOK {
			t.Fatalf("state %s: %s", c.States[i].State, c.States[i].InvariantErr)
		}
	}
}

// TestCampaignDeterministicAcrossWorkers pins the report contract: the
// campaign must be byte-identical at any worker count.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	top := synthBench(t, "d26_media")
	serial, err := RunCampaign(top, CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunCampaign(top, CampaignOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("worker count changed the campaign report")
	}
	if serial.Format() != parallel.Format() {
		t.Fatal("worker count changed the formatted report")
	}
}

// TestCampaignSampling forces the state cap below the full space and
// checks the deterministic-sampling contract: the all-on and
// single-island states always survive, masks are unique and ascending,
// and two runs sample identically.
func TestCampaignSampling(t *testing.T) {
	top := synthBench(t, "d26_media")
	k := len(shutdownableIslands(top))
	if k < 3 {
		t.Skipf("need >=3 shutdownable islands to sample, have %d", k)
	}
	limit := k + 2 // all-on + singles + one sampled multi-island state
	a, err := RunCampaign(top, CampaignOptions{MaxStates: limit})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Sampled || len(a.States) != limit {
		t.Fatalf("want %d sampled states, got %d (sampled=%v)", limit, len(a.States), a.Sampled)
	}
	singles := 0
	for i := range a.States {
		m := a.States[i].Mask
		if i > 0 && m <= a.States[i-1].Mask {
			t.Fatal("states not in ascending unique mask order")
		}
		if m != 0 && m&(m-1) == 0 {
			singles++
		}
	}
	if a.States[0].Mask != 0 || singles != k {
		t.Fatalf("sampling dropped a guaranteed state: mask0=%d singles=%d/%d",
			a.States[0].Mask, singles, k)
	}
	b, err := RunCampaign(top, CampaignOptions{MaxStates: limit})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical campaigns sampled different states")
	}
}

// synthSurvivable synthesizes a benchmark at survivability k.
func synthSurvivable(t *testing.T, name string, k int) *topology.Topology {
	t.Helper()
	spec, err := bench.Islanded(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Synthesize(spec, model.Default65nm(), core.Options{
		AllowIntermediate: true, Survivability: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Best().Top
}

// TestCampaignZeroRerouteAtK1 is the campaign half of the survivability
// contract: a k=1 design must absorb every single-link fault in every
// legal power state purely via its pre-synthesized backups — zero
// re-routed flows — and the report must be byte-identical at any worker
// count.
func TestCampaignZeroRerouteAtK1(t *testing.T) {
	top := synthSurvivable(t, "d26_media", 1)
	opt := CampaignOptions{Survivability: 1, Workers: 1}
	rep, err := RunCampaign(top, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("k=1 design violated the shutdown invariant:\n%s", rep.Format())
	}
	if rep.Survivability != 1 {
		t.Fatalf("report does not echo the asserted level: %d", rep.Survivability)
	}
	if rep.LinkFaults == 0 {
		t.Fatal("campaign composed no link faults — nothing asserted")
	}
	if rep.Recovered != rep.LinkFaults || rep.ZeroReroute != rep.LinkFaults {
		t.Fatalf("zero-reroute recovery broken: %d faults, %d recovered, %d zero-reroute\n%s",
			rep.LinkFaults, rep.Recovered, rep.ZeroReroute, rep.Format())
	}
	for i := range rep.States {
		s := &rep.States[i]
		if s.ZeroReroute != s.Links {
			t.Fatalf("state %s: %d of %d faults zero-reroute", s.State, s.ZeroReroute, s.Links)
		}
	}
	if !strings.Contains(rep.Format(), "zero re-routing") {
		t.Fatal("formatted report does not surface the zero re-routing line")
	}
	for _, workers := range []int{4, 13} {
		opt.Workers = workers
		again, err := RunCampaign(top, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, again) {
			t.Fatalf("workers=%d changed the k=1 campaign report", workers)
		}
	}
}

// TestCampaignK0ReportUnchangedByContract: on a k=0 design the new
// fields must stay zero — the serialized report is byte-identical to
// builds that predate survivability (both fields marshal omitempty).
func TestCampaignK0ReportUnchangedByContract(t *testing.T) {
	top := synthBench(t, "d26_media")
	rep, err := RunCampaign(top, CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Survivability != 0 || rep.ZeroReroute != 0 {
		t.Fatalf("k=0 report grew survivability fields: k=%d zr=%d", rep.Survivability, rep.ZeroReroute)
	}
	for i := range rep.States {
		if rep.States[i].ZeroReroute != 0 {
			t.Fatalf("state %s stamped ZeroReroute on a k=0 run", rep.States[i].State)
		}
	}
	if strings.Contains(rep.Format(), "zero re-routing") {
		t.Fatal("k=0 formatted report mentions zero re-routing")
	}
}

// TestRunStatesRecoversPanic is the campaign's panic boundary: a panic
// while evaluating a power state comes back as an error naming that
// state's mask instead of killing the process, the lowest failing index
// wins, and the error is the same at any worker count.
func TestRunStatesRecoversPanic(t *testing.T) {
	masks := []uint64{0, 1, 2, 3, 5, 6, 7, 9}
	for _, workers := range []int{1, 4} {
		err := runStates(masks, workers, func(w, i int) error {
			if w < 0 || w >= workers {
				t.Errorf("worker index %d outside [0, %d)", w, workers)
			}
			if masks[i] == 5 || masks[i] == 9 {
				panic("boom")
			}
			return nil
		})
		var pe *StatePanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: want a *StatePanicError, got %v", workers, err)
		}
		if pe.Mask != 5 || len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: recovered mask %#x with %d stack bytes, want mask 0x5 and a stack", workers, pe.Mask, len(pe.Stack))
		}
		if want := "fault: power state mask 0x5 panicked: boom"; err.Error() != want {
			t.Fatalf("workers=%d: error %q, want %q", workers, err, want)
		}
	}
}

// TestRunStatesLowestErrorWins: an ordinary error at a lower index is
// reported ahead of a panic at a higher one, on any worker count.
func TestRunStatesLowestErrorWins(t *testing.T) {
	masks := []uint64{0, 1, 2, 3, 4, 5}
	sentinel := errors.New("state 2 failed")
	for _, workers := range []int{1, 4} {
		err := runStates(masks, workers, func(w, i int) error {
			switch i {
			case 2:
				return sentinel
			case 4:
				panic("boom")
			}
			return nil
		})
		if err != sentinel {
			t.Fatalf("workers=%d: got %v, want the index-2 error", workers, err)
		}
	}
}

// TestCampaignAllocCeiling guards the arena: the d26 k=0 campaign
// re-routes every link fault of every power state in one recycled
// topology and router, so its allocations stay near the per-state
// report storage (about 2,000). A fresh topology and router per fault
// costs over 37,000, so the ceiling catches any per-fault allocation
// creeping back.
func TestCampaignAllocCeiling(t *testing.T) {
	top := synthBench(t, "d26_media")
	var err error
	allocs := testing.AllocsPerRun(3, func() {
		_, err = RunCampaign(top, CampaignOptions{Workers: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("d26 k=0 campaign: %.0f allocs", allocs)
	if allocs > 4000 {
		t.Fatalf("d26 k=0 campaign made %.0f allocations, ceiling 4000", allocs)
	}
}

// TestCampaignReasonsOwnTheirText guards the campaign against the
// router's reused *route.NoPathError: a worker's router overwrites its
// error on the next fault's routing, so the campaign must render each
// reason before that. On the D26 k=0 winner, a power state in which
// several link faults fail to re-route must report, for each one, the
// text a fresh router returns for that fault alone, and the report
// must encode to the same bytes at one worker and two.
func TestCampaignReasonsOwnTheirText(t *testing.T) {
	top := synthBench(t, "d26_media")
	c, err := RunCampaign(top, CampaignOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sorted := top.Spec.SortFlowsByBandwidth()
	most := 0
	for si := range c.States {
		s := &c.States[si]
		active := activeFlows(top.Spec, sorted, s.Off, nil)
		noPath := 0
		for _, o := range s.Unrecovered {
			fresh, err := refRebuildWithout(top, o.Link)
			if err != nil {
				t.Fatal(err)
			}
			rerr := route.New(fresh, route.Options{NoNewLinks: true}).RouteFlows(active)
			var npe *route.NoPathError
			if !errors.As(rerr, &npe) {
				continue // unrecovered for a reason other than routing
			}
			noPath++
			if want := stableReason(rerr); o.Reason != want {
				t.Errorf("state %s, link %d: reason %q, a fresh router says %q", s.State, o.Link, o.Reason, want)
			}
		}
		most = max(most, noPath)
	}
	if most < 2 {
		t.Fatalf("no power state has two link faults that fail to re-route (most: %d); the guard needs a new design", most)
	}
	two, err := RunCampaign(top, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, c), mustJSON(t, two); string(a) != string(b) {
		t.Fatalf("campaign JSON differs between 1 and 2 workers:\n%s\n%s", a, b)
	}
}
