// Brute-force oracle for the survivability pass: the router's backup
// routes are checked against an exhaustive simple-path enumeration that
// shares no code with the machinery under test — adjacency rebuilt from
// the exported Links slice, the island forward discipline re-derived
// from first principles, disjointness checked with a plain ownership
// map. The oracle proves three things the strip-and-reroute search
// claims: every backup is a simple island-legal path over real links,
// the primary and its backups are pairwise directed-link-disjoint, and
// a design the router rejects for want of a disjoint path really has
// none (the single-link-cut test, where the full path set is known).
package route_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/model"
	"nocvi/internal/route"
	"nocvi/internal/soc"
	"nocvi/internal/specgen"
	"nocvi/internal/topology"
)

// oracleLegalMove re-derives the island forward discipline (S→S, S→M,
// S→D, M→M, M→D, D→D) without consulting the router's subgraph ranks.
func oracleLegalMove(top *topology.Topology, u, v topology.SwitchID, srcIsl, dstIsl soc.IslandID) bool {
	mid := top.NoCIsland
	iu, iv := top.Switches[u].Island, top.Switches[v].Island
	in := func(i soc.IslandID) bool { return i == srcIsl || i == dstIsl || (mid != soc.NoIsland && i == mid) }
	if !in(iu) || !in(iv) {
		return false
	}
	if iu == iv {
		return true
	}
	switch {
	case iu == srcIsl && (iv == dstIsl || iv == mid):
		return true
	case iu == mid && iv == dstIsl:
		return true
	}
	return false
}

// oracleEnumLimit caps the DFS: the admissible sub-topologies here hold
// a few dozen links, so hitting the cap means the enumerator is broken,
// not that the design is large.
const oracleEnumLimit = 200000

// enumerateLegalPaths lists every simple island-legal directed path
// from src to dst over the topology's existing links, each path as its
// link-ID sequence.
func enumerateLegalPaths(t *testing.T, top *topology.Topology, srcIsl, dstIsl soc.IslandID, src, dst topology.SwitchID) [][]topology.LinkID {
	t.Helper()
	adj := make(map[topology.SwitchID][]topology.LinkID)
	for i, l := range top.Links {
		adj[l.From] = append(adj[l.From], topology.LinkID(i))
	}
	var (
		out     [][]topology.LinkID
		stack   []topology.LinkID
		visited = map[topology.SwitchID]bool{src: true}
		walk    func(u topology.SwitchID)
	)
	walk = func(u topology.SwitchID) {
		if u == dst {
			out = append(out, append([]topology.LinkID(nil), stack...))
			if len(out) > oracleEnumLimit {
				t.Fatalf("oracle enumeration exceeded %d paths", oracleEnumLimit)
			}
			return
		}
		for _, lid := range adj[u] {
			to := top.Links[lid].To
			if visited[to] || !oracleLegalMove(top, u, to, srcIsl, dstIsl) {
				continue
			}
			visited[to] = true
			stack = append(stack, lid)
			walk(to)
			stack = stack[:len(stack)-1]
			visited[to] = false
		}
	}
	walk(src)
	return out
}

func pathKey(links []topology.LinkID) string {
	var b strings.Builder
	for _, l := range links {
		fmt.Fprintf(&b, "%d,", l)
	}
	return b.String()
}

// checkBackupsAgainstOracle verifies one routed topology's survivability
// structure against the enumeration and returns how many multi-hop
// routes were protected.
func checkBackupsAgainstOracle(t *testing.T, label string, top *topology.Topology, k int) int {
	t.Helper()
	if err := top.ValidateSurvivable(k); err != nil {
		t.Fatalf("%s: ValidateSurvivable(%d): %v", label, k, err)
	}
	protected := 0
	for ri := range top.Routes {
		r := &top.Routes[ri]
		links := top.PathLinks(r.Links)
		if len(links) == 0 {
			if len(r.Backups) != 0 {
				t.Fatalf("%s: single-switch route %d carries %d backups", label, ri, len(r.Backups))
			}
			continue
		}
		protected++
		if len(r.Backups) < k {
			t.Fatalf("%s: route %d has %d backups, want >= %d", label, ri, len(r.Backups), k)
		}
		f := top.Spec.Flows[r.Flow]
		srcIsl := top.Spec.IslandOf[f.Src]
		dstIsl := top.Spec.IslandOf[f.Dst]
		src, dst := top.SwitchOf[f.Src], top.SwitchOf[f.Dst]
		legal := make(map[string]bool)
		for _, p := range enumerateLegalPaths(t, top, srcIsl, dstIsl, src, dst) {
			legal[pathKey(p)] = true
		}
		if !legal[pathKey(links)] {
			t.Fatalf("%s: route %d primary %v is not in the oracle's legal path set", label, ri, links)
		}
		owner := map[topology.LinkID]int{}
		for _, lid := range links {
			owner[lid] = -1
		}
		for bi, bp := range r.Backups {
			b := top.PathLinks(bp)
			if !legal[pathKey(b)] {
				t.Fatalf("%s: route %d backup %d %v is not a simple island-legal path over existing links",
					label, ri, bi, b)
			}
			for _, lid := range b {
				if prev, dup := owner[lid]; dup {
					t.Fatalf("%s: route %d backup %d shares link %d with path %d",
						label, ri, bi, lid, prev)
				}
				owner[lid] = bi
			}
			// Every primary-link fault must leave this flow a fault-free
			// standby: with k backups disjoint from the primary and from
			// each other, each backup survives any single primary-link cut.
			if w := top.Walk(nil, f, b); w[0] != src || w[len(w)-1] != dst {
				t.Fatalf("%s: route %d backup %d endpoints %v do not match primary %v→%v",
					label, ri, bi, w, src, dst)
			}
		}
	}
	return protected
}

// routeSurvivable builds the candidate and routes it at survivability k,
// returning the topology or nil when the router reports infeasibility
// (which the suite tolerates for tight shapes — the sweep layer's job is
// to try other candidates).
func routeSurvivable(t *testing.T, label string, spec *soc.Spec, lib *model.Library, extra, mid, k int) *topology.Topology {
	t.Helper()
	top, err := unrouted(spec, lib, extra, mid)
	if err != nil {
		t.Fatalf("%s: unrouted: %v", label, err)
	}
	err = route.New(top, route.Options{Survivability: k}).RouteAll()
	if err != nil {
		if !strings.Contains(err.Error(), "no disjoint backup") &&
			!strings.Contains(err.Error(), "no feasible path") &&
			!strings.Contains(err.Error(), "opening backup link") {
			t.Fatalf("%s: unexpected routing failure: %v", label, err)
		}
		return nil
	}
	return top
}

// TestSurvivableBackupsMatchOracleSuite runs the oracle over every
// bundled benchmark across candidate shapes and survivability degrees.
func TestSurvivableBackupsMatchOracleSuite(t *testing.T) {
	lib := model.Default65nm()
	protected := 0
	for _, name := range bench.Names() {
		spec, err := bench.Islanded(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mid := range []int{0, 2} {
			for _, k := range []int{1, 2} {
				label := fmt.Sprintf("%s/mid=%d/k=%d", name, mid, k)
				top := routeSurvivable(t, label, spec, lib, 1, mid, k)
				if top == nil {
					continue
				}
				protected += checkBackupsAgainstOracle(t, label, top, k)
			}
		}
	}
	if protected == 0 {
		t.Fatal("no multi-hop route was protected anywhere in the suite — oracle never exercised")
	}
}

// TestSurvivableBackupsMatchOracleRandom fans the oracle over the same
// 24-seed specgen population the routing-equivalence proof uses.
func TestSurvivableBackupsMatchOracleRandom(t *testing.T) {
	lib := model.Default65nm()
	protected := 0
	for seed := int64(1); seed <= 24; seed++ {
		spec := specgen.Random(seed, specgen.Options{
			MaxCores:   10 + int(seed%3)*12, // 10, 22, 34
			MaxIslands: 2 + int(seed%5),     // 2..6
		})
		mid := int(seed % 3)
		// One spare switch per island where the walk has that step; a
		// spec of one-core islands (seed 14) is at one switch per core
		// already, so its walk ends at step 0.
		extra := min(1, len(spec.Cores)-len(spec.Islands))
		label := fmt.Sprintf("seed=%d/cores=%d/mid=%d", seed, len(spec.Cores), mid)
		top := routeSurvivable(t, label, spec, lib, extra, mid, 1)
		if top == nil {
			continue
		}
		protected += checkBackupsAgainstOracle(t, label, top, 1)
	}
	if protected == 0 {
		t.Fatal("no specgen route was protected — oracle never exercised")
	}
}

// TestSurvivabilityPrimariesInvariant pins the k=0 identity half of the
// contract: adding backups must not move a single primary route or
// primary link — the backup pass runs strictly after all primaries.
func TestSurvivabilityPrimariesInvariant(t *testing.T) {
	lib := model.Default65nm()
	for _, name := range bench.Names() {
		spec, err := bench.Islanded(name)
		if err != nil {
			t.Fatal(err)
		}
		base, err := unrouted(spec, lib, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := route.New(base, route.Options{}).RouteAll(); err != nil {
			t.Fatalf("%s: k=0 routing failed: %v", name, err)
		}
		surv := routeSurvivable(t, name, spec, lib, 1, 2, 1)
		if surv == nil {
			continue
		}
		if len(surv.Routes) != len(base.Routes) {
			t.Fatalf("%s: %d routes at k=1 vs %d at k=0", name, len(surv.Routes), len(base.Routes))
		}
		for i := range base.Routes {
			a, b := &base.Routes[i], &surv.Routes[i]
			if a.Flow != b.Flow || pathKey(base.PathLinks(a.Links)) != pathKey(surv.PathLinks(b.Links)) {
				t.Fatalf("%s: primary route %d moved under survivability", name, i)
			}
		}
		// The k=0 link set must be a prefix of the k=1 set with identical
		// traffic: backups may only append links, never touch existing ones.
		if len(surv.Links) < len(base.Links) {
			t.Fatalf("%s: k=1 dropped links: %d vs %d", name, len(surv.Links), len(base.Links))
		}
		for i := range base.Links {
			a, b := base.Links[i], surv.Links[i]
			if a.From != b.From || a.To != b.To || a.TrafficBps != b.TrafficBps {
				t.Fatalf("%s: link %d perturbed by the backup pass:\n  k=0: %+v\n  k=1: %+v", name, i, a, b)
			}
		}
	}
}

// cutSpec is the degenerate single-link-cut instance: two cores in two
// one-core islands, no intermediate island. Every candidate has exactly
// one switch per island, so the flow's only island-legal path is the
// single direct link — a second link-disjoint route cannot exist.
func cutSpec() *soc.Spec {
	mk := func(id int, name string) soc.Core {
		return soc.Core{ID: soc.CoreID(id), Name: name, Class: soc.ClassCPU,
			AreaMM2: 2, DynPowerW: 0.1, LeakPowerW: 0.02}
	}
	return &soc.Spec{
		Name:  "cut2",
		Cores: []soc.Core{mk(0, "a"), mk(1, "b")},
		Flows: []soc.Flow{{Src: 0, Dst: 1, BandwidthBps: 100e6}},
		Islands: []soc.Island{
			{ID: 0, Name: "va", VoltageV: 1.0},
			{ID: 1, Name: "vb", VoltageV: 1.0, Shutdownable: true},
		},
		IslandOf: []soc.IslandID{0, 1},
	}
}

// TestSingleLinkCutBackupInfeasible: the router must reject the
// degenerate instance with a clean diagnostic — no panic, no bogus
// backup — and the oracle confirms the rejection: exactly one simple
// island-legal path exists, so no disjoint second route ever could.
func TestSingleLinkCutBackupInfeasible(t *testing.T) {
	lib := model.Default65nm()
	top, err := unrouted(cutSpec(), lib, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	err = route.New(top, route.Options{Survivability: 1}).RouteAll()
	if err == nil {
		t.Fatal("single-link-cut spec routed with a backup that cannot exist")
	}
	if !strings.Contains(err.Error(), "no disjoint backup 1/1") {
		t.Fatalf("wrong diagnostic: %v", err)
	}
	var npe *route.NoPathError
	if !errors.As(err, &npe) || npe.Backup != 1 || npe.K != 1 || npe.Flow != top.Spec.Flows[top.Routes[0].Flow] {
		t.Fatalf("want a *route.NoPathError for backup 1 of 1 on flow %+v, got %#v", top.Spec.Flows[top.Routes[0].Flow], err)
	}
	f := npe.Flow
	if want := fmt.Sprintf("route: no disjoint backup 1/1 for flow %d->%d (survivability 1)", f.Src, f.Dst); err.Error() != want {
		t.Fatalf("Error() = %q, want %q", err.Error(), want)
	}
	// The primary was committed before the backup pass failed; the oracle
	// sees exactly that one path and nothing else.
	primary := top.PathLinks(top.Routes[0].Links)
	paths := enumerateLegalPaths(t, top,
		top.Spec.IslandOf[f.Src], top.Spec.IslandOf[f.Dst],
		top.SwitchOf[f.Src], top.SwitchOf[f.Dst])
	if len(paths) != 1 || pathKey(paths[0]) != pathKey(primary) {
		t.Fatalf("oracle disagrees with the router: %d legal paths %v, primary %v",
			len(paths), paths, primary)
	}
}
