package fault

// Identity proof for the arena fault path: campaigns and single-link
// sweeps that rebuild every fault into a worker's recycled topology and
// router must produce reports byte-identical to the allocating path the
// arena replaced. refCampaign and refAnalyze below are that path,
// frozen: a freshly allocated rebuild and a new router per fault, and
// the spec's flows copied and sorted per power state. Do not "improve"
// them: their value is that they evaluate faults the way the original
// code did. The pure lookups the arena did not change (state
// enumeration, labels, backup recovery) are shared.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/mesh"
	"nocvi/internal/model"
	"nocvi/internal/route"
	"nocvi/internal/soc"
	"nocvi/internal/topology"
	"nocvi/internal/viplace"
)

// synthMesh maps spec onto the regular-mesh baseline.
func synthMesh(t *testing.T, spec *soc.Spec) *topology.Topology {
	t.Helper()
	m, err := mesh.Synthesize(spec, model.Default65nm(), mesh.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m.Top
}

// refRebuildWithout reconstructs the design without the failed link on
// a freshly allocated topology.
func refRebuildWithout(orig *topology.Topology, failed topology.LinkID) (*topology.Topology, error) {
	top := topology.New(orig.Spec, orig.Lib)
	for i := 0; i < len(orig.Spec.Islands); i++ {
		top.SetIslandFreq(soc.IslandID(i), orig.IslandFreqHz[i])
		top.SetIslandVoltage(soc.IslandID(i), orig.IslandVoltage[i])
	}
	if orig.NoCIsland != soc.NoIsland {
		top.AddNoCIsland(orig.IslandFreqHz[orig.NoCIsland], orig.IslandVoltage[orig.NoCIsland])
	}
	for i, s := range orig.Switches {
		if id := top.AddSwitch(s.Island, s.Indirect); id != topology.SwitchID(i) {
			return nil, fmt.Errorf("fault: switch renumbering (%d vs %d)", id, i)
		}
	}
	for c, sw := range orig.SwitchOf {
		if sw < 0 {
			continue
		}
		if err := top.AttachCore(soc.CoreID(c), sw); err != nil {
			return nil, err
		}
	}
	for i, l := range orig.Links {
		if topology.LinkID(i) == failed {
			continue
		}
		if _, err := top.AddLink(l.From, l.To); err != nil {
			return nil, err
		}
	}
	return top, nil
}

func refAnalyze(top *topology.Topology) (*Report, error) {
	rep := &Report{Links: len(top.Links)}
	for i := range top.Links {
		id := topology.LinkID(i)
		out := LinkOutcome{Link: id}
		for ri := range top.Routes {
			for _, lid := range top.Routes[ri].Links {
				if lid == id {
					out.AffectedFlows++
					break
				}
			}
		}
		rebuilt, err := refRebuildWithout(top, id)
		if err != nil {
			return nil, err
		}
		r := route.New(rebuilt, route.Options{NoNewLinks: true})
		if err := r.RouteAll(); err != nil {
			out.Reason = stableReason(err)
		} else if err := rebuilt.Validate(); err != nil {
			out.Reason = stableReason(err)
		} else {
			out.Recovered = true
		}
		if out.Recovered {
			rep.Recoverable++
		}
		rep.Outcomes = append(rep.Outcomes, out)
	}
	sortOutcomes(rep.Outcomes)
	return rep, nil
}

func refCampaign(top *topology.Topology, opt CampaignOptions) (*Campaign, error) {
	shutdownable := shutdownableIslands(top)
	k := len(shutdownable)
	c := &Campaign{
		Design:        top.Spec.Name,
		Islands:       len(top.Spec.Islands),
		Shutdownable:  k,
		StateSpace:    stateSpaceSize(k),
		Survivability: opt.Survivability,
	}
	masks := enumerateStates(k, opt.maxStates())
	c.Sampled = int64(len(masks)) < c.StateSpace
	c.States = make([]StateOutcome, len(masks))
	for i, mask := range masks {
		s, err := refEvalState(top, shutdownable, mask, opt)
		if err != nil {
			return nil, err
		}
		c.States[i] = s
		if !s.InvariantOK {
			c.InvariantViolations++
		}
		c.LinkFaults += s.Links
		c.Recovered += s.Recoverable
		c.ZeroReroute += s.ZeroReroute
	}
	return c, nil
}

func refEvalState(top *topology.Topology, shutdownable []soc.IslandID, mask uint64, opt CampaignOptions) (StateOutcome, error) {
	off := make([]bool, len(top.Spec.Islands))
	for i, isl := range shutdownable {
		if mask&(1<<uint(i)) != 0 {
			off[isl] = true
		}
	}
	s := StateOutcome{Mask: mask, State: stateLabel(top.Spec, off), Off: off, InvariantOK: true}
	if err := top.ValidateShutdownSafeMask(off); err != nil {
		s.InvariantOK = false
		s.InvariantErr = stableReason(err)
	}
	var active []soc.Flow
	for _, f := range top.Spec.SortFlowsByBandwidth() {
		if !off[top.Spec.IslandOf[f.Src]] && !off[top.Spec.IslandOf[f.Dst]] {
			active = append(active, f)
		}
	}
	s.ActiveFlows = len(active)
	for i, l := range top.Links {
		if linkGated(top, l, off) {
			continue
		}
		out, err := refTryWithoutUnderState(top, topology.LinkID(i), off, active, opt.Survivability)
		if err != nil {
			return s, err
		}
		s.Links++
		if out.Recovered {
			s.Recoverable++
			if out.ZeroReroute {
				s.ZeroReroute++
			}
		} else {
			s.Unrecovered = append(s.Unrecovered, out)
		}
	}
	sortOutcomes(s.Unrecovered)
	return s, nil
}

func refTryWithoutUnderState(orig *topology.Topology, failed topology.LinkID, off []bool, active []soc.Flow, survivability int) (LinkOutcome, error) {
	out := LinkOutcome{Link: failed}
	for ri := range orig.Routes {
		r := &orig.Routes[ri]
		if off[orig.Spec.IslandOf[r.Flow.Src]] || off[orig.Spec.IslandOf[r.Flow.Dst]] {
			continue
		}
		for _, lid := range r.Links {
			if lid == failed {
				out.AffectedFlows++
				break
			}
		}
	}
	if out.AffectedFlows == 0 {
		out.Recovered = true
		out.ZeroReroute = survivability >= 1
		return out, nil
	}
	if survivability >= 1 {
		return recoverViaBackups(orig, failed, off, out), nil
	}
	top, err := refRebuildWithout(orig, failed)
	if err != nil {
		return out, err
	}
	r := route.New(top, route.Options{NoNewLinks: true})
	if err := r.RouteFlows(active); err != nil {
		out.Reason = stableReason(err)
		return out, nil
	}
	if err := top.ValidateRouted(); err != nil {
		out.Reason = stableReason(err)
		return out, nil
	}
	if err := top.ValidateShutdownSafeMask(off); err != nil {
		out.Reason = stableReason(err)
		return out, nil
	}
	out.Recovered = true
	return out, nil
}

// mustJSON encodes v, failing the test on error.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkAnalyze fails the test unless Analyze's report of top encodes
// to the same bytes as the frozen reference's, and returns it.
func checkAnalyze(t *testing.T, top *topology.Topology) *Report {
	t.Helper()
	want, err := refAnalyze(top)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Analyze(top)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) || got.Format() != want.Format() {
		t.Fatalf("Analyze report differs from the reference:\n got %s\nwant %s", got.Format(), want.Format())
	}
	return got
}

// TestArenaMatchesFrozenReference pins the arena's identity contract:
// on d26 and d48, for k=0 and k=1 designs, campaigns asserting
// survivability 0 and the design's k at 1, 2 and 4 workers encode to
// the same bytes as the frozen allocating path, and so does Analyze.
// The k=1 design under a k=0 campaign is the mixed case: it re-routes
// on a topology that has redundant links to find. Analyze is also
// pinned on the mesh baselines the cmp-fault experiment sweeps: the
// d16 mesh, whose redundant links let some faults recover, and the
// D26 6-island logical mesh.
func TestArenaMatchesFrozenReference(t *testing.T) {
	t.Run("mesh/d16_industrial", func(t *testing.T) {
		spec, err := bench.Islanded("d16_industrial")
		if err != nil {
			t.Fatal(err)
		}
		if rep := checkAnalyze(t, synthMesh(t, spec)); rep.Recoverable == 0 {
			t.Fatal("no d16 mesh fault recovers: the re-routed path is not exercised")
		}
	})
	t.Run("mesh/d26_logical6", func(t *testing.T) {
		spec, err := bench.D26Islands(viplace.MethodLogical, 6)
		if err != nil {
			t.Fatal(err)
		}
		checkAnalyze(t, synthMesh(t, spec))
	})
	for _, name := range []string{"d26_media", "d48_network"} {
		for _, k := range []int{0, 1} {
			top := synthSurvivable(t, name, k)
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				checkAnalyze(t, top)

				survs := []int{0}
				if k > 0 {
					survs = append(survs, k)
				}
				for _, surv := range survs {
					ref, err := refCampaign(top, CampaignOptions{Survivability: surv})
					if err != nil {
						t.Fatal(err)
					}
					wantJSON := mustJSON(t, ref)
					for _, workers := range []int{1, 2, 4} {
						c, err := RunCampaign(top, CampaignOptions{Survivability: surv, Workers: workers})
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(mustJSON(t, c), wantJSON) || c.Format() != ref.Format() {
							t.Fatalf("campaign survivability=%d workers=%d differs from the reference:\n got %s\nwant %s",
								surv, workers, c.Format(), ref.Format())
						}
					}
				}
			})
		}
	}
}
