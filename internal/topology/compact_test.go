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
// the source's core lists and route buffers.
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

// TestCompactPathAppendIsolated: the copy's paths and core lists share
// backing arrays, so an append to any one of them must reallocate
// instead of writing over its neighbour.
func TestCompactPathAppendIsolated(t *testing.T) {
	src := routedCandidates(t, 1)[0]
	c, want := src.Compact(), src.Compact()
	for i := range c.Switches {
		s := &c.Switches[i]
		orig := s.Cores
		s.Cores = append(s.Cores, -1)
		s.Cores = orig
	}
	for i := range c.Routes {
		r := &c.Routes[i]
		sw, ln, bk := r.Switches, r.Links, r.Backups
		r.Switches = append(r.Switches, -1)
		r.Links = append(r.Links, -1)
		for j := range r.Backups {
			b := &r.Backups[j]
			bs, bl := b.Switches, b.Links
			b.Switches = append(b.Switches, -1)
			b.Links = append(b.Links, -1)
			b.Switches, b.Links = bs, bl
		}
		r.Backups = append(r.Backups, topology.Path{})
		r.Switches, r.Links, r.Backups = sw, ln, bk
	}
	sameExported(t, "copy after appends", want, c)
}
