package topology_test

import (
	"errors"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/model"
	"nocvi/internal/specgen"
	"nocvi/internal/topology"
)

// TestLinksOnlyWalkRejected holds the link-walk check to ErrWalk
// through each way a walk enters a topology, AddRoute and AddBackup on
// a built fixture (Build takes no routes: TestBuildTakesNoRoutes), for
// a primary and a backup alike. The fixture routes flow 4->1 from
// switch 2 to switch 0; its links are 0 (2->0), 1 (2->3) and 2 (3->0).
func TestLinksOnlyWalkRejected(t *testing.T) {
	cases := []struct {
		name  string
		links []topology.LinkID
	}{
		{"wrong start switch", links(2)},
		{"wrong end switch", links(1)},
		{"broken chain", links(1, 0)},
		{"unknown link", links(3)},
		{"negative link", links(-1)},
		{"no links between two switches", nil},
	}
	const ri = 2
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantWalkErr := func(how string, err error) {
				t.Helper()
				if !errors.Is(err, topology.ErrWalk) {
					t.Errorf("%s: got %v, want an error wrapping %q", how, err, topology.ErrWalk)
				}
			}

			top := buildFields()
			top.Routes = top.Routes[:ri]
			if err := buildRouted(top); err != nil {
				t.Fatal(err)
			}
			f := top.Spec.Flows[ri]
			wantWalkErr("AddRoute", top.AddRoute(topology.Route{Flow: f, Links: tc.links}))
			if err := top.AddRoute(topology.Route{Flow: f, Links: links(0)}); err != nil {
				t.Fatal(err)
			}
			wantWalkErr("AddBackup", top.AddBackup(ri, topology.Path{Links: tc.links}))
			if err := top.AddBackup(ri, topology.Path{Links: links(1, 2)}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestZeroLoadLatencyMatchesWalk: ZeroLoadLatencyCycles counts a
// route's hops and island crossings over its links; it must equal
// PathLatencyCycles of the derived switch walk on every route of the
// suite winners at survivability 0 to 2 and of generated designs.
func TestZeroLoadLatencyMatchesWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes the suite three times")
	}
	lib := model.Default65nm()
	var tops []*topology.Topology
	for _, name := range bench.Names() {
		spec, err := bench.Islanded(name)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= 2; k++ {
			res, err := core.Synthesize(spec, lib, core.Options{AllowIntermediate: true, Survivability: k})
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			tops = append(tops, res.Best().Top)
		}
	}
	generated := 0
	for seed := int64(1); generated < 24; seed++ {
		if seed > 200 {
			t.Fatalf("only %d of the first 200 generated specs synthesize", generated)
		}
		spec := specgen.Random(seed, specgen.Options{MaxCores: 16, MaxIslands: 4})
		res, err := core.Synthesize(spec, lib, core.Options{AllowIntermediate: true})
		if errors.Is(err, core.ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tops = append(tops, res.Best().Top)
		generated++
	}
	var walk []topology.SwitchID
	routes := 0
	for _, top := range tops {
		for ri := range top.Routes {
			r := &top.Routes[ri]
			walk = top.Walk(walk, r.Flow, r.Links)
			if got, want := top.ZeroLoadLatencyCycles(r), top.PathLatencyCycles(walk); got != want {
				t.Fatalf("%s route %d (walk %v): ZeroLoadLatencyCycles %v, PathLatencyCycles %v",
					top.Spec.Name, ri, walk, got, want)
			}
			routes++
		}
	}
	t.Logf("%d routes over %d designs", routes, len(tops))
}
