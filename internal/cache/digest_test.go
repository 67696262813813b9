package cache

import (
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/specgen"
	"nocvi/internal/vcg"
)

// The golden digests pin the canonical encodings. These values are the
// cache's key space: ANY change here invalidates every cache entry in
// the field, so an unintended encoding change must break this test. If
// you changed the encoding deliberately, bump the format magic in the
// encoder ("nocvi-spec-v1" etc.), re-pin these values, and bump
// EngineVersion so old stores are invalidated wholesale.
func TestSpecDigestGoldens(t *testing.T) {
	goldens := []struct {
		name string
		want string
	}{
		{"d26_media", "c5c87888a61ec656f2b1e000647077f5bdb0958e03dc9573c81df8b9f72c1c43"},
		{"d38_settop", "d5ae968e44efff1ee2b961fdc6306181c4c42757997b00597cf1738a011e6631"},
		{"d35_tablet", "45231de7994cbeba15509669a24e640a46e2dd8f9af45e2b822994eeeef16685"},
		{"d30_basestation", "45b87e87983840a6cf8bb76df76ac16c20f938de9df7ef05117ca61c202dd9b4"},
		{"d24_auto", "c74998146e8b068c64c226420240d38aa9bbccd63bcfb8e6106e60ab4503c079"},
		{"d16_industrial", "6a475ad1ed6bc185ce752a891a63dc495e2f67c2c27862ee480155dde9eeffba"},
		{"d48_network", "ab5a74904b20445a14d60d4ce324557409f24d90c612d3e4a9aac048a968fc4b"},
		{"d20_wearable", "86af39c42972a89e5d009ce8d2a80ec46e1c88897dd36225c6dde06fcbcd4a98"},
	}
	for _, g := range goldens {
		spec, err := bench.Islanded(g.name)
		if err != nil {
			t.Fatal(err)
		}
		if got := SpecDigest(spec).String(); got != g.want {
			t.Errorf("%s: digest %s, want %s (encoding changed? see comment above)", g.name, got, g.want)
		}
	}
	if got := SpecDigest(bench.D26()).String(); got != "7919122ef466e1f0a58c1569e15bf218a53e88ded038f95dd7cda0ea3f02ceed" {
		t.Errorf("flat d26: digest %s", got)
	}
}

func TestSpecgenDigestGoldens(t *testing.T) {
	goldens := []struct {
		seed int64
		want string
	}{
		{1, "e1939003f59747314f225fe851eda4f9d544aca9b443ae1ba0ad0000ba2c3bfb"},
		{2, "08f85e833afc2f03fce71f7577b2ba63875cfd04df9c154471a0dac2e4c5e6b7"},
		{3, "ffb70ad5c2d729b6bceebebf14a058688672e671698eda51821d7bfcccc0b8ef"},
	}
	for _, g := range goldens {
		spec := specgen.Random(g.seed, specgen.Options{MaxCores: 12, MaxIslands: 4})
		if got := SpecDigest(spec).String(); got != g.want {
			t.Errorf("seed %d: digest %s, want %s", g.seed, got, g.want)
		}
	}
}

func TestLibraryAndOptionsDigestGoldens(t *testing.T) {
	lib := model.Default65nm()
	if got := LibraryDigest(lib).String(); got != "fe2b2b57460ecad98b520b7b7c149932541bfddc7e9a1c9d76b0230c65032d06" {
		t.Errorf("library digest %s", got)
	}
	if got := OptionsDigest(core.Options{}, lib).String(); got != "717725453e2d261f37f6b1c2dfb6a8b2cea3480a221d8b3fbc709a6f769770f1" {
		t.Errorf("zero options digest %s", got)
	}
	opt := core.Options{AllowIntermediate: true, MaxIntermediateSwitches: 2}
	if got := OptionsDigest(opt, lib).String(); got != "f7f27388ee3e5cbeecafd11152a6b9ca2a10d8e1ab6a66150b9e078c58188146" {
		t.Errorf("bench options digest %s", got)
	}
}

// TestSpecDigestValueIdentity: the digest depends only on values, not
// on backing-array identity or spare capacity.
func TestSpecDigestValueIdentity(t *testing.T) {
	spec := bench.D26()
	clone := *spec
	clone.Cores = append(make([]soc.Core, 0, len(spec.Cores)+7), spec.Cores...)
	clone.Flows = append(make([]soc.Flow, 0, len(spec.Flows)+3), spec.Flows...)
	clone.Islands = append([]soc.Island(nil), spec.Islands...)
	clone.IslandOf = append([]soc.IslandID(nil), spec.IslandOf...)
	if SpecDigest(spec) != SpecDigest(&clone) {
		t.Fatal("digest depends on slice identity, not value")
	}
}

// TestSpecDigestFieldSensitivity: every result-relevant spec field
// perturbs the digest.
func TestSpecDigestFieldSensitivity(t *testing.T) {
	base := bench.D26()
	mutate := []struct {
		name string
		fn   func(*soc.Spec)
	}{
		{"name", func(s *soc.Spec) { s.Name = "other" }},
		{"core-area", func(s *soc.Spec) { s.Cores[3].AreaMM2 *= 1.0000001 }},
		{"core-freq", func(s *soc.Spec) { s.Cores[3].FreqHz++ }},
		{"flow-bw", func(s *soc.Spec) { s.Flows[0].BandwidthBps++ }},
		{"flow-lat", func(s *soc.Spec) { s.Flows[0].MaxLatencyCycles++ }},
		{"flow-endpoint", func(s *soc.Spec) { s.Flows[0].Src, s.Flows[0].Dst = s.Flows[0].Dst, s.Flows[0].Src }},
		{"island-voltage", func(s *soc.Spec) { s.Islands[0].VoltageV *= 1.0000001 }},
		{"island-shutdownable", func(s *soc.Spec) { s.Islands[0].Shutdownable = !s.Islands[0].Shutdownable }},
		{"islandof", func(s *soc.Spec) { s.IslandOf[0]++ }},
	}
	want := SpecDigest(base)
	for _, m := range mutate {
		spec := *base
		spec.Cores = append([]soc.Core(nil), base.Cores...)
		spec.Flows = append([]soc.Flow(nil), base.Flows...)
		spec.Islands = append([]soc.Island(nil), base.Islands...)
		spec.IslandOf = append([]soc.IslandID(nil), base.IslandOf...)
		m.fn(&spec)
		if SpecDigest(&spec) == want {
			t.Errorf("%s: mutation did not change the digest", m.name)
		}
	}
}

// TestOptionsDigestNormalization pins the sentinel resolution and the
// result-neutral exclusions: unset Alpha digests like the default,
// Workers never matters.
func TestOptionsDigestNormalization(t *testing.T) {
	lib := model.Default65nm()
	unset := core.Options{}
	explicit := core.Options{Alpha: vcg.DefaultAlpha}
	if OptionsDigest(unset, lib) != OptionsDigest(explicit, lib) {
		t.Fatal("Alpha=0 and Alpha=default digest differently")
	}
	other := core.Options{Alpha: 0.4}
	if OptionsDigest(other, lib) == OptionsDigest(explicit, lib) {
		t.Fatal("distinct alphas digest equal")
	}
	w := core.Options{Workers: 32}
	if OptionsDigest(w, lib) != OptionsDigest(unset, lib) {
		t.Fatal("Workers leaked into the options digest")
	}
	np := core.Options{NoPrune: true}
	if OptionsDigest(np, lib) == OptionsDigest(unset, lib) {
		t.Fatal("NoPrune is result-affecting (Points is the canonical kept subset) and must perturb the digest")
	}
	lib2 := *lib
	lib2.FreqGridHz *= 2
	if OptionsDigest(unset, &lib2) == OptionsDigest(unset, lib) {
		t.Fatal("library change did not change the options digest")
	}
	surv := core.Options{Survivability: 1}
	if OptionsDigest(surv, lib) == OptionsDigest(unset, lib) {
		t.Fatal("Survivability is result-affecting and must perturb the digest")
	}
	neg := core.Options{Survivability: -3}
	if OptionsDigest(neg, lib) != OptionsDigest(unset, lib) {
		t.Fatal("negative Survivability must digest like the clamped k=0")
	}
	var rsv core.Options
	rsv.Router.Survivability = 1
	if OptionsDigest(rsv, lib) != OptionsDigest(unset, lib) {
		t.Fatal("Router.Survivability is a normalized duplicate and must be excluded")
	}
}

// TestNormalizedIsTheKey: Options.Normalized is idempotent, and an
// option set and its normalized form are one run — the same result key
// and the same result — so the key may encode the normalized form.
func TestNormalizedIsTheKey(t *testing.T) {
	lib := model.Default65nm()
	spec, err := bench.Islanded("d16_industrial")
	if err != nil {
		t.Fatal(err)
	}
	var routerK core.Options
	routerK.Router.Survivability = 2
	for _, opt := range []core.Options{
		{},
		{AllowIntermediate: true, MaxIntermediateSwitches: 2},
		{Alpha: 0.4, IntermediateVoltage: 0.9, AllowIntermediate: true, Workers: 3},
		{Survivability: -2},
		{Survivability: 1, Relax: true},
		routerK,
	} {
		n := opt.Normalized()
		if n.Normalized() != n {
			t.Fatalf("%+v: Normalized is not idempotent: %+v then %+v", opt, n, n.Normalized())
		}
		if n.Workers != opt.Workers {
			t.Fatalf("%+v: Normalized changed Workers to %d", opt, n.Workers)
		}
		if ResultKey(spec, lib, opt) != ResultKey(spec, lib, n) {
			t.Fatalf("%+v: options and their normalized form key differently", opt)
		}
		raw, err := core.Synthesize(spec, lib, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		norm, err := core.Synthesize(spec, lib, n)
		if err != nil {
			t.Fatalf("%+v normalized: %v", opt, err)
		}
		if ResultDigest(raw) != ResultDigest(norm) {
			t.Fatalf("%+v: options and their normalized form synthesize differently", opt)
		}
	}
}
