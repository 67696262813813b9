package soc_test

import (
	"reflect"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/soc"
	"nocvi/internal/specgen"
)

// coresInByAppend is the growing-append loop CoresIn replaced, kept as
// the oracle for its output.
func coresInByAppend(s *soc.Spec, isl soc.IslandID) []soc.CoreID {
	var out []soc.CoreID
	for c, id := range s.IslandOf {
		if id == isl {
			out = append(out, soc.CoreID(c))
		}
	}
	return out
}

// TestCoresInMatchesAppendLoop: the counted, exact-size CoresIn returns
// what the append loop did, nil for an empty island included, on every
// bundled spec and on generated ones, probing one island ID past the
// last so an island with no cores is always covered.
func TestCoresInMatchesAppendLoop(t *testing.T) {
	var specs []*soc.Spec
	for _, name := range bench.Names() {
		s, err := bench.Islanded(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	for seed := int64(1); seed <= 24; seed++ {
		specs = append(specs, specgen.Random(seed, specgen.Options{}))
	}
	for _, s := range specs {
		for isl := 0; isl <= len(s.Islands); isl++ {
			want := coresInByAppend(s, soc.IslandID(isl))
			got := s.CoresIn(soc.IslandID(isl))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s island %d: CoresIn = %v, append loop = %v", s.Name, isl, got, want)
			}
			if len(got) != cap(got) {
				t.Fatalf("%s island %d: CoresIn has len %d, cap %d", s.Name, isl, len(got), cap(got))
			}
		}
	}
}

// TestCoresInAllocatesOnce: a non-empty island costs one allocation,
// an empty one none.
func TestCoresInAllocatesOnce(t *testing.T) {
	s, err := bench.Islanded("d26_media")
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _ = s.CoresIn(0) }); n != 1 {
		t.Errorf("CoresIn(0) allocates %v times, want 1", n)
	}
	empty := soc.IslandID(len(s.Islands))
	if n := testing.AllocsPerRun(20, func() { _ = s.CoresIn(empty) }); n != 0 {
		t.Errorf("CoresIn of an island with no cores allocates %v times, want 0", n)
	}
}
