package topology_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"nocvi/internal/cache"
	"nocvi/internal/core"
	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/specio"
	"nocvi/internal/topology"
)

// buildSpec: 3 islands, the last two shutdownable, 6 cores, 5 flows.
// The last three flows share one link, and their bandwidths sum to
// different float64 values in route order and in reverse.
func buildSpec() *soc.Spec {
	return &soc.Spec{
		Name: "build",
		Cores: []soc.Core{
			{ID: 0, Name: "cpu"}, {ID: 1, Name: "mem"}, {ID: 2, Name: "vid"},
			{ID: 3, Name: "aud"}, {ID: 4, Name: "usb"}, {ID: 5, Name: "gpio"},
		},
		Flows: []soc.Flow{
			{Src: 0, Dst: 1, BandwidthBps: 400e6},
			{Src: 2, Dst: 3, BandwidthBps: 100e6},
			{Src: 4, Dst: 1, BandwidthBps: 50e6 / 11},
			{Src: 4, Dst: 0, BandwidthBps: 50e6 / 11},
			{Src: 5, Dst: 1, BandwidthBps: 1e9 / 7},
		},
		Islands: []soc.Island{
			{ID: 0, Name: "sys", VoltageV: 1.0},
			{ID: 1, Name: "media", VoltageV: 0.9, Shutdownable: true},
			{ID: 2, Name: "io", VoltageV: 1.0, Shutdownable: true},
		},
		IslandOf: []soc.IslandID{0, 0, 1, 1, 2, 2},
	}
}

// buildFields fills the construction fields of a valid design over
// buildSpec without building it: one direct switch per island, an
// indirect switch in the NoC island (3), and the flows from island 2
// routed over link 0 (s2->s0), each with the backup over links 1 and 2
// (s2->s3->s0).
func buildFields() *topology.Topology {
	spec := buildSpec()
	return &topology.Topology{
		Spec:          spec,
		Lib:           model.Default65nm(),
		NoCIsland:     3,
		IslandFreqHz:  []float64{400e6, 300e6, 200e6, 400e6},
		IslandVoltage: []float64{1.0, 0.9, 1.0, 1.0},
		Switches:      []topology.Switch{{Island: 0}, {Island: 1}, {Island: 2}, {Island: 3, Indirect: true}},
		SwitchOf:      []topology.SwitchID{0, 0, 1, 1, 2, 2},
		Links: []topology.Link{
			{From: 2, To: 0, LengthMM: 1.5}, {From: 2, To: 3, LengthMM: 0.5}, {From: 3, To: 0, LengthMM: 0.75},
		},
		Routes: []topology.Route{
			{Flow: spec.Flows[0]},
			{Flow: spec.Flows[1]},
			{Flow: spec.Flows[2], Links: links(0), Backups: []topology.Path{{Links: links(1, 2)}}},
			{Flow: spec.Flows[3], Links: links(0), Backups: []topology.Path{{Links: links(1, 2)}}},
			{Flow: spec.Flows[4], Links: links(0), Backups: []topology.Path{{Links: links(1, 2)}}},
		},
	}
}

// buildRouted builds top from its construction fields as a reader
// does: Build without the routes, then addRoutes.
func buildRouted(top *topology.Topology) error {
	routes := top.Routes
	top.Routes = nil
	if err := top.Build(); err != nil {
		return err
	}
	return addRoutes(top, routes)
}

// addRoutes adds routes to the built top in order, each through
// AddRoute and its backups through AddBackup.
func addRoutes(top *topology.Topology, routes []topology.Route) error {
	for i, r := range routes {
		if err := top.AddRoute(topology.Route{Flow: r.Flow, Links: r.Links}); err != nil {
			return err
		}
		for _, b := range r.Backups {
			if err := top.AddBackup(i, b); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestBuildTakesNoRoutes: routes enter a topology only through AddRoute
// and AddBackup, so Build refuses construction fields that carry any.
func TestBuildTakesNoRoutes(t *testing.T) {
	if err := buildFields().Build(); !errors.Is(err, topology.ErrWalk) {
		t.Fatalf("Build with routes: got %v, want an error wrapping %q", err, topology.ErrWalk)
	}
}

// TestBuildDerivesWhatTheMutatorsDo builds the fixture from its fields
// and checks every derived quantity against the same design grown by
// the mutators, link traffic to the bit.
func TestBuildDerivesWhatTheMutatorsDo(t *testing.T) {
	got := buildFields()
	if err := buildRouted(got); err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("built fixture does not validate: %v", err)
	}
	if err := got.ValidateSurvivable(1); err != nil {
		t.Fatalf("built fixture is not survivable: %v", err)
	}

	f := buildFields()
	want := topology.New(f.Spec, f.Lib)
	for i := range f.Spec.Islands {
		want.SetIslandFreq(soc.IslandID(i), f.IslandFreqHz[i])
		want.SetIslandVoltage(soc.IslandID(i), f.IslandVoltage[i])
	}
	want.AddNoCIsland(f.IslandFreqHz[3], f.IslandVoltage[3])
	for _, s := range f.Switches {
		want.AddSwitch(s.Island, s.Indirect)
	}
	for c, sw := range f.SwitchOf {
		if err := want.AttachCore(soc.CoreID(c), sw); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range f.Links {
		id, err := want.AddLink(l.From, l.To)
		if err != nil {
			t.Fatal(err)
		}
		want.Links[id].LengthMM = l.LengthMM
	}
	if err := addRoutes(want, f.Routes); err != nil {
		t.Fatal(err)
	}

	var gotJSON, wantJSON bytes.Buffer
	if err := specio.WriteTopology(&gotJSON, got); err != nil {
		t.Fatal(err)
	}
	if err := specio.WriteTopology(&wantJSON, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
		t.Fatalf("Build and the mutators disagree:\n%s\nvs\n%s", gotJSON.Bytes(), wantJSON.Bytes())
	}
	for i := range want.Switches {
		if g, w := got.Switches[i], want.Switches[i]; g != w {
			t.Errorf("switch %d: built %+v, grown %+v", i, g, w)
		}
	}
	for i := range want.Links {
		if got.Links[i] != want.Links[i] {
			t.Errorf("link %d: built %+v, grown %+v", i, got.Links[i], want.Links[i])
		}
	}
	for u := range want.Switches {
		for v := range want.Switches {
			gl, gok := got.FindLink(topology.SwitchID(u), topology.SwitchID(v))
			wl, wok := want.FindLink(topology.SwitchID(u), topology.SwitchID(v))
			if gl != wl || gok != wok {
				t.Errorf("FindLink(%d,%d): built %d,%v, grown %d,%v", u, v, gl, gok, wl, wok)
			}
		}
		gi, gout := got.SwitchPorts(topology.SwitchID(u))
		wi, wout := want.SwitchPorts(topology.SwitchID(u))
		if gi != wi || gout != wout {
			t.Errorf("SwitchPorts(%d): built %d,%d, grown %d,%d", u, gi, gout, wi, wout)
		}
	}
}

// links spells a route's or backup's link list.
func links(ids ...topology.LinkID) []topology.LinkID { return ids }

// TestBuildRejectsMalformed holds every check of Build, AddRoute and
// AddBackup to its typed error, never a panic. A case edits either the
// fixture's construction fields, which buildRouted reads directly, or
// its JSON, which specio.ReadTopology maps into those fields and walks;
// cases marked cache also encode the edited fields and decode them with
// cache.DecodeResult, so each reader is shown to reach the checks. The
// cache's own walk defects, which no link list can spell, are
// TestDecodeRejectsBadWalks in package cache. A core attached twice and
// a second NoC island cannot be written in the fields (SwitchOf holds
// one switch per core, NoCIsland one island), so they come as JSON.
func TestBuildRejectsMalformed(t *testing.T) {
	cases := []struct {
		name  string
		want  error
		edit  func(top *topology.Topology)
		json  func(doc map[string]any)
		cache bool
	}{
		{name: "switch in unknown island", want: topology.ErrSwitch, cache: true,
			edit: func(top *topology.Topology) { top.Switches[1].Island = 4 }},
		{name: "switch in negative island", want: topology.ErrSwitch,
			edit: func(top *topology.Topology) { top.Switches[1].Island = -1 }},
		{name: "NoC island inside the spec", want: topology.ErrIslands,
			edit: func(top *topology.Topology) { top.NoCIsland = 1 }},
		{name: "second NoC island", want: topology.ErrIslands,
			json: func(doc map[string]any) {
				doc["islands"] = append(doc["islands"].([]any), map[string]any{"id": 4, "name": "noc_vi2", "intermediate": true})
			}},
		{name: "island table of the wrong length", want: topology.ErrIslands, cache: true,
			edit: func(top *topology.Topology) { top.IslandFreqHz = top.IslandFreqHz[:3] }},
		{name: "supply table of the wrong length", want: topology.ErrIslands,
			edit: func(top *topology.Topology) { top.IslandVoltage = append(top.IslandVoltage, 1) }},
		{name: "core table of the wrong length", want: topology.ErrAttach,
			edit: func(top *topology.Topology) { top.SwitchOf = top.SwitchOf[:4] }},
		{name: "core attached out of range", want: topology.ErrAttach, cache: true,
			edit: func(top *topology.Topology) { top.SwitchOf[4] = 4 }},
		{name: "core attached below range", want: topology.ErrAttach,
			edit: func(top *topology.Topology) { top.SwitchOf[4] = -2 }},
		{name: "core attached to an indirect switch", want: topology.ErrAttach,
			edit: func(top *topology.Topology) { top.SwitchOf[4] = 3 }},
		{name: "core attached across islands", want: topology.ErrAttach,
			edit: func(top *topology.Topology) { top.SwitchOf[4] = 0 }},
		{name: "core attached twice", want: topology.ErrAttach,
			json: func(doc map[string]any) {
				doc["network_interfaces"] = append(doc["network_interfaces"].([]any), map[string]any{"core": "usb", "switch": 2})
			}},
		{name: "link endpoint out of range", want: topology.ErrLink, cache: true,
			edit: func(top *topology.Topology) { top.Links[1].To = 4 }},
		{name: "negative link endpoint", want: topology.ErrLink,
			json: func(doc map[string]any) { doc["links"].([]any)[1].(map[string]any)["from"] = -1 }},
		{name: "self link", want: topology.ErrLink, cache: true,
			edit: func(top *topology.Topology) { top.Links[1].To = 2 }},
		{name: "duplicate link", want: topology.ErrLink,
			edit: func(top *topology.Topology) { top.Links = append(top.Links, top.Links[0]) }},
		{name: "no links between two switches", want: topology.ErrWalk, cache: true,
			edit: func(top *topology.Topology) { top.Routes[2].Links = nil }},
		{name: "empty route walk", want: topology.ErrWalk,
			json: func(doc map[string]any) { jsonRoute(doc, 2)["switches"] = []int{} }},
		{name: "one-switch route off its source switch", want: topology.ErrWalk,
			json: func(doc map[string]any) { jsonRoute(doc, 0)["switches"] = []int{1} }},
		{name: "route walks an unknown switch", want: topology.ErrWalk,
			edit: func(top *topology.Topology) { top.Routes[2].Links = links(7) },
			json: func(doc map[string]any) { jsonRoute(doc, 2)["switches"] = []int{2, 7} }},
		{name: "route uses a missing link", want: topology.ErrWalk,
			edit: func(top *topology.Topology) { top.Routes[2].Links = links(1, 0) },
			json: func(doc map[string]any) { jsonRoute(doc, 2)["switches"] = []int{2, 1, 0} }},
		{name: "route starts off its source switch", want: topology.ErrWalk, cache: true,
			edit: func(top *topology.Topology) { top.Routes[2].Links = links(2) },
			json: func(doc map[string]any) { jsonRoute(doc, 2)["switches"] = []int{3, 0} }},
		{name: "route ends off its destination switch", want: topology.ErrWalk,
			edit: func(top *topology.Topology) { top.Routes[2].Links = links(1) },
			json: func(doc map[string]any) { jsonRoute(doc, 2)["switches"] = []int{2, 3} }},
		{name: "route names an unknown core", want: topology.ErrWalk, cache: true,
			edit: func(top *topology.Topology) { top.Routes[0].Flow.Dst = 5 }},
		{name: "backup with no links between two switches", want: topology.ErrWalk,
			edit: func(top *topology.Topology) { top.Routes[2].Backups[0].Links = nil }},
		{name: "empty backup walk", want: topology.ErrWalk,
			json: func(doc map[string]any) { jsonRoute(doc, 2)["backups"] = [][]int{{}} }},
		{name: "one-switch backup off its source switch", want: topology.ErrWalk,
			json: func(doc map[string]any) { jsonRoute(doc, 0)["backups"] = [][]int{{1}} }},
		{name: "backup walks an unknown switch", want: topology.ErrWalk,
			edit: func(top *topology.Topology) { top.Routes[2].Backups[0].Links = links(-1) },
			json: func(doc map[string]any) { jsonRoute(doc, 2)["backups"] = [][]int{{2, -1, 0}} }},
		{name: "backup uses a missing link", want: topology.ErrWalk, cache: true,
			edit: func(top *topology.Topology) { top.Routes[2].Backups[0].Links = links(0, 2) },
			json: func(doc map[string]any) { jsonRoute(doc, 2)["backups"] = [][]int{{2, 1, 0}} }},
		{name: "backup starts off its source switch", want: topology.ErrWalk,
			edit: func(top *topology.Topology) { top.Routes[2].Backups[0].Links = links(2) },
			json: func(doc map[string]any) { jsonRoute(doc, 2)["backups"] = [][]int{{3, 0}} }},
		{name: "backup ends off its destination switch", want: topology.ErrWalk,
			edit: func(top *topology.Topology) { top.Routes[2].Backups[0].Links = links(1) },
			json: func(doc map[string]any) { jsonRoute(doc, 2)["backups"] = [][]int{{2, 3}} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errs []error
			if tc.edit != nil {
				top := buildFields()
				tc.edit(top)
				if tc.cache {
					blob := cache.EncodeResult(&core.Result{Points: []core.DesignPoint{{Top: top}}})
					_, err := cache.DecodeResult(blob, top.Spec, top.Lib)
					errs = append(errs, err)
				}
				errs = append(errs, buildRouted(top))
			}
			if tc.json != nil {
				errs = append(errs, readEdited(t, tc.json))
			}
			for _, err := range errs {
				if !errors.Is(err, tc.want) {
					t.Errorf("got %v, want an error wrapping %q", err, tc.want)
				}
			}
		})
	}
}

// jsonRoute returns route i of a topology JSON document.
func jsonRoute(doc map[string]any, i int) map[string]any {
	return doc["routes"].([]any)[i].(map[string]any)
}

// readEdited writes the built fixture as JSON, applies edit to the
// document and reads it back with specio.ReadTopology.
func readEdited(t *testing.T, edit func(doc map[string]any)) error {
	t.Helper()
	top := buildFields()
	if err := buildRouted(top); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := specio.WriteTopology(&buf, top); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	edit(doc)
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := specio.ReadTopology(bytes.NewReader(data), top.Spec, top.Lib); err != nil {
		return err
	}
	// The unedited document must read back, or the case proves nothing.
	_, err = specio.ReadTopology(bytes.NewReader(buf.Bytes()), top.Spec, top.Lib)
	return err
}

// TestBuildRecyclesStorage rebuilds one topology from its own fields:
// the second Build must allocate nothing and derive the same design,
// which then takes its routes.
func TestBuildRecyclesStorage(t *testing.T) {
	top := buildFields()
	routes := top.Routes
	top.Routes = nil
	if err := top.Build(); err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := specio.WriteTopology(&first, top); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := top.Build(); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a rebuild allocates %v times, want 0", allocs)
	}
	var again bytes.Buffer
	if err := specio.WriteTopology(&again, top); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), again.Bytes()) {
		t.Fatalf("a rebuild changed the design:\n%s\nvs\n%s", first.Bytes(), again.Bytes())
	}
	if err := addRoutes(top, routes); err != nil {
		t.Fatal(err)
	}
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
}
