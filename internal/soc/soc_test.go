package soc

import (
	"math"
	"testing"
	"testing/quick"
)

// testSpec builds a small 3-island, 4-core spec used across the tests.
func testSpec() *Spec {
	return &Spec{
		Name: "t4",
		Cores: []Core{
			{ID: 0, Name: "cpu", Class: ClassCPU, AreaMM2: 2, DynPowerW: 0.2, LeakPowerW: 0.02},
			{ID: 1, Name: "mem", Class: ClassMemory, AreaMM2: 4, DynPowerW: 0.1, LeakPowerW: 0.04},
			{ID: 2, Name: "dsp", Class: ClassDSP, AreaMM2: 3, DynPowerW: 0.3, LeakPowerW: 0.03},
			{ID: 3, Name: "usb", Class: ClassIO, AreaMM2: 1, DynPowerW: 0.05, LeakPowerW: 0.01},
		},
		Flows: []Flow{
			{Src: 0, Dst: 1, BandwidthBps: 800e6, MaxLatencyCycles: 10},
			{Src: 1, Dst: 0, BandwidthBps: 800e6, MaxLatencyCycles: 10},
			{Src: 2, Dst: 1, BandwidthBps: 400e6, MaxLatencyCycles: 20},
			{Src: 3, Dst: 2, BandwidthBps: 20e6},
		},
		Islands: []Island{
			{ID: 0, Name: "cpu_isl", VoltageV: 1.1, Shutdownable: false},
			{ID: 1, Name: "mem_isl", VoltageV: 1.0, Shutdownable: false},
			{ID: 2, Name: "media_isl", VoltageV: 0.9, Shutdownable: true},
		},
		IslandOf: []IslandID{0, 1, 2, 2},
	}
}

func TestValidateOK(t *testing.T) {
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no cores", func(s *Spec) { s.Cores = nil; s.IslandOf = nil }},
		{"no islands", func(s *Spec) { s.Islands = nil }},
		{"islandof length", func(s *Spec) { s.IslandOf = s.IslandOf[:2] }},
		{"non dense core id", func(s *Spec) { s.Cores[2].ID = 7 }},
		{"empty core name", func(s *Spec) { s.Cores[0].Name = "" }},
		{"negative area", func(s *Spec) { s.Cores[1].AreaMM2 = -1 }},
		{"non dense island id", func(s *Spec) { s.Islands[1].ID = 5 }},
		{"island out of range", func(s *Spec) { s.IslandOf[0] = 9 }},
		{"island negative", func(s *Spec) { s.IslandOf[3] = NoIsland }},
		{"flow endpoint range", func(s *Spec) { s.Flows[0].Dst = 99 }},
		{"flow self loop", func(s *Spec) { s.Flows[0].Dst = s.Flows[0].Src }},
		{"flow zero bandwidth", func(s *Spec) { s.Flows[1].BandwidthBps = 0 }},
		{"flow negative latency", func(s *Spec) { s.Flows[2].MaxLatencyCycles = -4 }},
		{"duplicate flow", func(s *Spec) { s.Flows = append(s.Flows, Flow{Src: 0, Dst: 1, BandwidthBps: 1}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := testSpec()
			tc.mutate(s)
			if err := s.Validate(); err == nil {
				t.Fatalf("mutation %q not caught by Validate", tc.name)
			}
		})
	}
}

func TestCoresIn(t *testing.T) {
	s := testSpec()
	got := s.CoresIn(2)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("CoresIn(2) = %v, want [2 3]", got)
	}
	if got := s.CoresIn(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("CoresIn(0) = %v, want [0]", got)
	}
}

func TestAggregateCoreBandwidth(t *testing.T) {
	s := testSpec()
	eg, in := s.AggregateCoreBandwidth()
	if eg[0] != 800e6 || in[0] != 800e6 {
		t.Fatalf("cpu egress/ingress = %g/%g", eg[0], in[0])
	}
	if in[1] != 1200e6 {
		t.Fatalf("mem ingress = %g, want 1.2e9", in[1])
	}
	if eg[3] != 20e6 || in[3] != 0 {
		t.Fatalf("usb egress/ingress = %g/%g", eg[3], in[3])
	}
}

func TestExtremaHelpers(t *testing.T) {
	s := testSpec()
	if got := s.MaxFlowBandwidth(); got != 800e6 {
		t.Fatalf("MaxFlowBandwidth = %g", got)
	}
	if got := s.MinLatencyConstraint(); got != 10 {
		t.Fatalf("MinLatencyConstraint = %g", got)
	}
	empty := &Spec{Name: "e", Cores: s.Cores, Islands: s.Islands, IslandOf: s.IslandOf}
	if empty.MaxFlowBandwidth() != 0 || empty.MinLatencyConstraint() != 0 {
		t.Fatal("extrema of flow-less spec should be 0")
	}
}

func TestTotals(t *testing.T) {
	s := testSpec()
	if got := s.TotalCoreDynPowerW(); math.Abs(got-0.65) > 1e-12 {
		t.Fatalf("TotalCoreDynPowerW = %g", got)
	}
	if got := s.TotalCoreAreaMM2(); got != 10 {
		t.Fatalf("TotalCoreAreaMM2 = %g", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := testSpec()
	c := s.Clone()
	c.Cores[0].Name = "changed"
	c.IslandOf[0] = 2
	c.Flows[0].BandwidthBps = 1
	c.Islands[0].Shutdownable = true
	if s.Cores[0].Name != "cpu" || s.IslandOf[0] != 0 || s.Flows[0].BandwidthBps != 800e6 || s.Islands[0].Shutdownable {
		t.Fatal("Clone shares state with the original")
	}
}

func TestMergedSingleIsland(t *testing.T) {
	m := testSpec().MergedSingleIsland()
	if err := m.Validate(); err != nil {
		t.Fatalf("merged spec invalid: %v", err)
	}
	if len(m.Islands) != 1 || m.Islands[0].Shutdownable {
		t.Fatalf("merged islands = %+v", m.Islands)
	}
	for c, id := range m.IslandOf {
		if id != 0 {
			t.Fatalf("core %d not in island 0", c)
		}
	}
	if len(m.Flows) != 4 {
		t.Fatalf("merged spec has %d flows, want all 4", len(m.Flows))
	}
}

func TestReassignIslands(t *testing.T) {
	s := testSpec()
	isl := []Island{{ID: 0, Name: "a", VoltageV: 1}, {ID: 1, Name: "b", VoltageV: 1, Shutdownable: true}}
	re, err := s.ReassignIslands(isl, []IslandID{0, 0, 1, 1})
	if err != nil {
		t.Fatalf("ReassignIslands: %v", err)
	}
	if len(re.Islands) != 2 || re.IslandOf[2] != 1 {
		t.Fatalf("reassignment not applied: %+v", re.IslandOf)
	}
	if _, err := s.ReassignIslands(isl, []IslandID{0, 0, 1, 5}); err == nil {
		t.Fatal("invalid reassignment accepted")
	}
	// original untouched
	if len(s.Islands) != 3 {
		t.Fatal("ReassignIslands mutated the receiver")
	}
}

func TestSortFlowsByBandwidth(t *testing.T) {
	s := testSpec()
	fl := s.SortFlowsByBandwidth()
	for i := 1; i < len(fl); i++ {
		if fl[i].BandwidthBps > fl[i-1].BandwidthBps {
			t.Fatalf("flows not sorted at %d", i)
		}
	}
	// tie between the two 800e6 flows broken by src asc
	if fl[0].Src != 0 || fl[1].Src != 1 {
		t.Fatalf("tie-break wrong: %+v %+v", fl[0], fl[1])
	}
	// receiver's slice unmodified
	if s.Flows[3].BandwidthBps != 20e6 {
		t.Fatal("SortFlowsByBandwidth mutated the spec")
	}
}

func TestLookups(t *testing.T) {
	s := testSpec()
	c, ok := s.CoreByName("dsp")
	if !ok || c.ID != 2 {
		t.Fatalf("CoreByName(dsp) = %+v, %v", c, ok)
	}
	if _, ok := s.CoreByName("nope"); ok {
		t.Fatal("CoreByName found a ghost")
	}
	f, ok := s.FlowBetween(2, 1)
	if !ok || f.BandwidthBps != 400e6 {
		t.Fatalf("FlowBetween(2,1) = %+v, %v", f, ok)
	}
	if _, ok := s.FlowBetween(1, 2); ok {
		t.Fatal("FlowBetween found a reverse ghost")
	}
}

// TestFlowIndex: every flow is found at its index in Spec.Flows, a pair
// the spec lacks and the zero value find nothing, and flows appended in
// place are found after the next Reset.
func TestFlowIndex(t *testing.T) {
	s := testSpec()
	var x FlowIndex
	if _, ok := x.Find(0, 1); ok || x.Spec() != nil {
		t.Fatal("the zero FlowIndex found a flow")
	}
	x.Reset(s)
	for i, f := range s.Flows {
		if fi, ok := x.Find(f.Src, f.Dst); !ok || fi != FlowID(i) {
			t.Fatalf("Find(%d,%d) = %d, %v, want %d", f.Src, f.Dst, fi, ok, i)
		}
	}
	for _, pair := range [][2]CoreID{{1, 2}, {0, 3}, {-1, 0}, {3, 4}} {
		if fi, ok := x.Find(pair[0], pair[1]); ok {
			t.Fatalf("Find(%d,%d) found flow %d the spec lacks", pair[0], pair[1], fi)
		}
	}
	s.Flows = append(s.Flows, Flow{Src: 0, Dst: 3, BandwidthBps: 1e6})
	if _, ok := x.Find(0, 3); ok {
		t.Fatal("Find used an index built before the flows grew")
	}
	x.Reset(s)
	if fi, ok := x.Find(0, 3); !ok || fi != 4 {
		t.Fatalf("after Reset, Find(0,3) = %d, %v, want 4", fi, ok)
	}
}

func TestCoreClassString(t *testing.T) {
	if ClassDSP.String() != "dsp" || ClassMemCtrl.String() != "memctrl" {
		t.Fatal("class names wrong")
	}
	if CoreClass(99).String() != "class(99)" {
		t.Fatal("out of range class name wrong")
	}
}

// Property: for any set of flows, aggregate egress and ingress bandwidth
// sums both equal the total flow bandwidth.
func TestAggregateBandwidthConservation(t *testing.T) {
	f := func(raw []uint16) bool {
		const n = 7
		s := &Spec{Name: "p", Islands: []Island{{ID: 0, Name: "i", VoltageV: 1}}}
		for i := 0; i < n; i++ {
			s.Cores = append(s.Cores, Core{ID: CoreID(i), Name: string(rune('a' + i))})
			s.IslandOf = append(s.IslandOf, 0)
		}
		seen := map[[2]CoreID]bool{}
		var total float64
		for i, r := range raw {
			src := CoreID(int(r) % n)
			dst := CoreID((int(r)/n + 1 + int(src)) % n)
			if src == dst {
				continue
			}
			k := [2]CoreID{src, dst}
			if seen[k] {
				continue
			}
			seen[k] = true
			bw := float64(r%997+1) * 1e6 * float64(i+1)
			total += bw
			s.Flows = append(s.Flows, Flow{Src: src, Dst: dst, BandwidthBps: bw})
		}
		eg, in := s.AggregateCoreBandwidth()
		var se, si float64
		for i := range eg {
			se += eg[i]
			si += in[i]
		}
		return math.Abs(se-total) < 1e-6 && math.Abs(si-total) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
