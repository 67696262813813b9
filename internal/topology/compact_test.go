package topology_test

import (
	"reflect"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/model"
	"nocvi/internal/route"
	"nocvi/internal/soc"
	"nocvi/internal/topology"
)

// survivable is the option set the copy tests route under: one backup
// per multi-hop flow, so every copied route carries backup paths too.
var survivable = core.Options{AllowIntermediate: true, MaxIntermediateSwitches: 2, Survivability: 1}

// routedCandidates returns up to n of the D26 engine's candidates,
// each routed with backups.
func routedCandidates(t *testing.T, n int) []*topology.Topology {
	t.Helper()
	spec, err := bench.Islanded("d26_media")
	if err != nil {
		t.Fatal(err)
	}
	lib := model.Default65nm()
	flows := spec.SortFlowsByBandwidth()
	var out []*topology.Topology
	for step := 0; len(out) < n; step++ {
		if _, err := core.Unrouted(spec, lib, survivable, step, 0); err != nil {
			break // past the diagonal walk
		}
		for mid := 0; mid <= survivable.MaxIntermediateSwitches && len(out) < n; mid++ {
			top, err := core.Unrouted(spec, lib, survivable, step, mid)
			if err != nil {
				t.Fatal(err)
			}
			if route.New(top, route.Options{Survivability: 1}).RouteFlows(flows) == nil {
				out = append(out, top)
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no D26 candidate routed with backups")
	}
	return out
}

// rebuild resets dst and rebuilds u's switches, island tables and core
// attachments in it, as a sweep worker reuses its topology, then routes
// them with backups.
func rebuild(t *testing.T, dst, u *topology.Topology) {
	t.Helper()
	dst.Reset()
	for j := range u.Spec.Islands {
		dst.SetIslandFreq(soc.IslandID(j), u.IslandFreqHz[j])
		dst.SetIslandVoltage(soc.IslandID(j), u.IslandVoltage[j])
	}
	if u.NoCIsland != soc.NoIsland {
		dst.AddNoCIsland(u.IslandFreqHz[u.NoCIsland], u.IslandVoltage[u.NoCIsland])
	}
	for _, s := range u.Switches {
		dst.AddSwitch(s.Island, s.Indirect)
	}
	for c, sw := range u.SwitchOf {
		if err := dst.AttachCore(soc.CoreID(c), sw); err != nil {
			t.Fatal(err)
		}
	}
	if err := route.New(dst, route.Options{Survivability: 1}).RouteFlows(dst.Spec.SortFlowsByBandwidth()); err != nil {
		t.Fatal(err)
	}
}

// sameExported asserts two topologies agree on every exported field.
func sameExported(t *testing.T, label string, a, b *topology.Topology) {
	t.Helper()
	if a.Spec != b.Spec || a.Lib != b.Lib || a.NoCIsland != b.NoCIsland {
		t.Fatalf("%s: spec, library or NoC island differs", label)
	}
	for _, f := range []struct {
		name string
		x, y any
	}{
		{"Switches", a.Switches, b.Switches},
		{"Links", a.Links, b.Links},
		{"Routes", a.Routes, b.Routes},
		{"IslandFreqHz", a.IslandFreqHz, b.IslandFreqHz},
		{"IslandVoltage", a.IslandVoltage, b.IslandVoltage},
		{"SwitchOf", a.SwitchOf, b.SwitchOf},
	} {
		if !reflect.DeepEqual(f.x, f.y) {
			t.Fatalf("%s: %s differs", label, f.name)
		}
	}
}

// exactSlices reports every slice reachable from v, the link index
// included, whose capacity exceeds its length. The spec and library
// are shared by reference and not walked.
func exactSlices(v reflect.Value, path string, bad *[]string) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() && v.Type() != reflect.TypeOf(&soc.Spec{}) && v.Type() != reflect.TypeOf(&model.Library{}) {
			exactSlices(v.Elem(), path, bad)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			exactSlices(v.Field(i), path+"."+v.Type().Field(i).Name, bad)
		}
	case reflect.Slice:
		if v.Len() != v.Cap() {
			*bad = append(*bad, path)
		}
		for i := 0; i < v.Len(); i++ {
			exactSlices(v.Index(i), path+"[]", bad)
		}
	}
}

// TestCompactMatchesSource: the copy agrees with its source on every
// exported field and on the link index's answers, carries backups, and
// holds every slice at exactly its length.
func TestCompactMatchesSource(t *testing.T) {
	backups := 0
	for i, src := range routedCandidates(t, 4) {
		c := src.Compact()
		sameExported(t, "compact", src, c)
		for a := range src.Switches {
			for b := range src.Switches {
				u, v := topology.SwitchID(a), topology.SwitchID(b)
				l1, ok1 := src.FindLink(u, v)
				l2, ok2 := c.FindLink(u, v)
				if l1 != l2 || ok1 != ok2 {
					t.Fatalf("candidate %d: FindLink(%d,%d) = %d,%v on the copy, %d,%v on the source", i, u, v, l2, ok2, l1, ok1)
				}
			}
			in1, out1 := src.SwitchPorts(topology.SwitchID(a))
			in2, out2 := c.SwitchPorts(topology.SwitchID(a))
			if in1 != in2 || out1 != out2 {
				t.Fatalf("candidate %d: SwitchPorts(%d) differs", i, a)
			}
		}
		var bad []string
		exactSlices(reflect.ValueOf(c), "Topology", &bad)
		if len(bad) > 0 {
			t.Fatalf("candidate %d: slices with spare capacity: %v", i, bad)
		}
		for _, r := range c.Routes {
			backups += len(r.Backups)
		}
	}
	if backups == 0 {
		t.Fatal("no copied route carries a backup")
	}
}

// TestCompactSurvivesSourceRebuild: a copy is unchanged after its
// source is Reset and rebuilt as a different candidate, which recycles
// the source's route buffers.
func TestCompactSurvivesSourceRebuild(t *testing.T) {
	cands := routedCandidates(t, 2)
	src := cands[0]
	c, want := src.Compact(), src.Compact()
	rebuild(t, src, cands[1])
	if reflect.DeepEqual(src.Switches, want.Switches) && reflect.DeepEqual(src.Routes, want.Routes) {
		t.Fatal("the source was not rebuilt as a different candidate")
	}
	sameExported(t, "copy after source rebuild", want, c)
}

// TestCompactPathAppendIsolated: the copy's paths share backing
// arrays, so an append to any one of them must reallocate instead of
// writing over its neighbour.
func TestCompactPathAppendIsolated(t *testing.T) {
	src := routedCandidates(t, 1)[0]
	c, want := src.Compact(), src.Compact()
	for i := range c.Routes {
		r := &c.Routes[i]
		ln, bk := r.Links, r.Backups
		r.Links = append(r.Links, -1)
		for j := range r.Backups {
			b := &r.Backups[j]
			bl := b.Links
			b.Links = append(b.Links, -1)
			b.Links = bl
		}
		r.Backups = append(r.Backups, topology.Path{})
		r.Links, r.Backups = ln, bk
	}
	sameExported(t, "copy after appends", want, c)
}

// tinyDesigns returns two designs of one two-core, one-island spec with
// a flow each way: on one switch, where both routes stay on the switch
// and no link exists, and on two switches joined by a link each way.
func tinyDesigns(t *testing.T) (oneSwitch, twoSwitches *topology.Topology) {
	t.Helper()
	spec := &soc.Spec{
		Name: "tiny2",
		Cores: []soc.Core{
			{ID: 0, Name: "cpu", Class: soc.ClassCPU, AreaMM2: 1, DynPowerW: 0.1},
			{ID: 1, Name: "mem", Class: soc.ClassMemory, AreaMM2: 1, DynPowerW: 0.1},
		},
		Flows: []soc.Flow{
			{Src: 0, Dst: 1, BandwidthBps: 100e6},
			{Src: 1, Dst: 0, BandwidthBps: 50e6},
		},
		Islands:  []soc.Island{{ID: 0, Name: "sys", VoltageV: 1.0}},
		IslandOf: []soc.IslandID{0, 0},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	lib := model.Default65nm()
	build := func(switches int) *topology.Topology {
		top := topology.New(spec, lib)
		top.SetIslandFreq(0, 400e6)
		for i := 0; i < switches; i++ {
			top.AddSwitch(0, false)
		}
		for c := range spec.Cores {
			if err := top.AttachCore(soc.CoreID(c), topology.SwitchID(c%switches)); err != nil {
				t.Fatal(err)
			}
		}
		if err := route.New(top, route.Options{}).RouteAll(); err != nil {
			t.Fatal(err)
		}
		return top
	}
	oneSwitch, twoSwitches = build(1), build(2)
	if len(oneSwitch.Switches) != 1 || len(oneSwitch.Links) != 0 || len(twoSwitches.Links) == 0 {
		t.Fatalf("tiny designs: %d switches and %d links on one switch, %d links on two",
			len(oneSwitch.Switches), len(oneSwitch.Links), len(twoSwitches.Links))
	}
	return oneSwitch, twoSwitches
}

// replay builds u into dst, which the caller has just created, Reset or
// rebound to u's spec and library: island tables, switches, core
// attachments, links in u's order, and routes with their backups in
// storage taken from dst, as the router takes it.
func replay(t *testing.T, dst, u *topology.Topology) {
	t.Helper()
	for j := range u.Spec.Islands {
		dst.SetIslandFreq(soc.IslandID(j), u.IslandFreqHz[j])
		dst.SetIslandVoltage(soc.IslandID(j), u.IslandVoltage[j])
	}
	if u.NoCIsland != soc.NoIsland {
		dst.AddNoCIsland(u.IslandFreqHz[u.NoCIsland], u.IslandVoltage[u.NoCIsland])
	}
	for _, s := range u.Switches {
		dst.AddSwitch(s.Island, s.Indirect)
	}
	for c, sw := range u.SwitchOf {
		if err := dst.AttachCore(soc.CoreID(c), sw); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range u.Links {
		if _, err := dst.AddLink(l.From, l.To); err != nil {
			t.Fatal(err)
		}
	}
	path := func(lnks []topology.LinkID) []topology.LinkID {
		if lnks == nil {
			return nil // a single-switch route holds no link list
		}
		l := dst.TakeRouteLinks(len(lnks))
		copy(l, lnks)
		return l
	}
	for ri, r := range u.Routes {
		if err := dst.AddRoute(topology.Route{Flow: r.Flow, Links: path(r.Links)}); err != nil {
			t.Fatal(err)
		}
		for _, b := range r.Backups {
			if err := dst.AddBackup(ri, topology.Path{Links: path(b.Links)}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCompactIndependentOfStorageHistory: Compact of a design built in
// a reused topology — Reset after a different design of the same spec,
// or rebound (Rebind) after a design of another spec or the same one —
// is reflect.DeepEqual, unexported fields included, to Compact of the
// same design built in a fresh topology. The population mixes D26
// candidates with backups and a two-core spec's designs on one switch
// (no link at all) and on two.
func TestCompactIndependentOfStorageHistory(t *testing.T) {
	oneSwitch, twoSwitches := tinyDesigns(t)
	designs := append(routedCandidates(t, 2), oneSwitch, twoSwitches)
	names := []string{"d26 candidate 0", "d26 candidate 1", "one switch, no link", "two switches"}
	for i, u := range designs {
		fresh := topology.New(u.Spec, u.Lib)
		replay(t, fresh, u)
		want := fresh.Compact()
		sameExported(t, names[i]+" fresh", u, want)
		for j, dirt := range designs {
			if j == i {
				continue
			}
			ways := []string{"Rebind"}
			if dirt.Spec == u.Spec {
				ways = append(ways, "Reset")
			}
			for _, way := range ways {
				arena := topology.New(dirt.Spec, dirt.Lib)
				replay(t, arena, dirt)
				if way == "Reset" {
					arena.Reset()
				} else {
					arena.Rebind(u.Spec, u.Lib)
				}
				replay(t, arena, u)
				if got := arena.Compact(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s built after %s through %s: Compact differs from a fresh build's:\n%+v\nvs\n%+v",
						names[i], names[j], way, got, want)
				}
			}
		}
	}
}
