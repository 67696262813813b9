package specio

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/model"
	"nocvi/internal/soc"
)

// wrap is 2^32: a stored ID raised by it still reads as the same ID
// once narrowed to 32 bits without a check. It is a variable, not a
// constant, so that this file compiles where int is 32 bits; no int can
// be raised by it there, and the test checks the committed seeds alone.
var wrap int64 = 1 << 32

// wrappedIDs lists, for every ID field ReadTopology reads, how to raise
// that field by 2^32 in a D26 design's JSON. k is the survivability the
// design is synthesized with (backup walks exist only at k >= 1).
var wrappedIDs = []struct {
	field string
	k     int
	raise func(*topoJSON) bool
}{
	{"island id", 0, func(in *topoJSON) bool {
		for i := range in.Islands {
			if in.Islands[i].Intermediate {
				in.Islands[i].ID += int(wrap)
				return true
			}
		}
		return false
	}},
	{"switch island", 0, func(in *topoJSON) bool { in.Switches[0].Island += int(wrap); return true }},
	{"NI switch", 0, func(in *topoJSON) bool { in.NIs[0].Switch += int(wrap); return true }},
	{"link from", 0, func(in *topoJSON) bool { in.Links[0].From += int(wrap); return true }},
	{"link to", 0, func(in *topoJSON) bool { in.Links[0].To += int(wrap); return true }},
	{"route switch", 0, func(in *topoJSON) bool { in.Routes[0].Switches[0] += int(wrap); return true }},
	{"backup switch", 1, func(in *topoJSON) bool {
		for i := range in.Routes {
			if len(in.Routes[i].Backups) > 0 {
				in.Routes[i].Backups[0][0] += int(wrap)
				return true
			}
		}
		return false
	}},
}

// wrappedSeed names the FuzzReadTopology seed that holds field's input.
func wrappedSeed(field string) string {
	return filepath.Join("testdata", "fuzz", "FuzzReadTopology", "wrapped-"+strings.ReplaceAll(field, " ", "-"))
}

// d26WinnerJSON returns the compact WriteTopology JSON of the D26
// winner at survivability k, decoded into its serialized form.
func d26WinnerJSON(t *testing.T, spec *soc.Spec, k int) topoJSON {
	t.Helper()
	res, err := core.Synthesize(spec, model.Default65nm(), core.Options{AllowIntermediate: true, Survivability: k})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTopology(&buf, res.Best().Top); err != nil {
		t.Fatal(err)
	}
	var in topoJSON
	if err := json.Unmarshal(buf.Bytes(), &in); err != nil {
		t.Fatal(err)
	}
	return in
}

// TestReadTopologyRejectsWrappedIDs raises each ID field of the D26
// winner's JSON by 2^32. A 32-bit read without a check would see the
// original design and accept it; ReadTopology must fail with a
// *soc.IDRangeError naming the field. The committed FuzzReadTopology
// seeds hold the same inputs and must fail alike. Where int is 32 bits
// the raised ID cannot reach the check: it overflows the JSON decoder's
// int field first, so each seed must fail with the decoder's
// *json.UnmarshalTypeError instead.
func TestReadTopologyRejectsWrappedIDs(t *testing.T) {
	spec, err := bench.Islanded("d26_media")
	if err != nil {
		t.Fatal(err)
	}
	lib := model.Default65nm()
	winners := map[int]topoJSON{}
	for _, tc := range wrappedIDs {
		t.Run(strings.ReplaceAll(tc.field, " ", "_"), func(t *testing.T) {
			seed, err := os.ReadFile(wrappedSeed(tc.field))
			if err != nil {
				t.Fatal(err)
			}
			if strconv.IntSize < 64 {
				_, err := ReadTopology(bytes.NewReader(fuzzSeedBytes(t, seed)), spec, lib)
				var ue *json.UnmarshalTypeError
				if !errors.As(err, &ue) {
					t.Fatalf("%s raised by 2^32 with 32-bit int: got %v, want a *json.UnmarshalTypeError", tc.field, err)
				}
				return
			}
			in, ok := winners[tc.k]
			if !ok {
				in = d26WinnerJSON(t, spec, tc.k)
				winners[tc.k] = in
			}
			// Deep-copy through JSON so the cached winner stays intact.
			data, err := json.Marshal(in)
			if err != nil {
				t.Fatal(err)
			}
			var raised topoJSON
			if err := json.Unmarshal(data, &raised); err != nil {
				t.Fatal(err)
			}
			if !tc.raise(&raised) {
				t.Fatalf("the D26 k=%d winner has no %s to raise", tc.k, tc.field)
			}
			if data, err = json.Marshal(raised); err != nil {
				t.Fatal(err)
			}
			for _, input := range [][]byte{data, fuzzSeedBytes(t, seed)} {
				_, err := ReadTopology(bytes.NewReader(input), spec, lib)
				if err == nil {
					t.Fatalf("%s raised by 2^32 was accepted", tc.field)
				}
				var re *soc.IDRangeError
				if !errors.As(err, &re) || re.Field != tc.field || re.Value < wrap {
					t.Fatalf("%s raised by 2^32: got %v, want a *soc.IDRangeError for the field", tc.field, err)
				}
			}
		})
	}
}

// fuzzSeedBytes unquotes a one-value "go test fuzz v1" []byte seed.
func fuzzSeedBytes(t *testing.T, seed []byte) []byte {
	t.Helper()
	_, rest, ok := strings.Cut(string(seed), "\n[]byte(")
	if !ok {
		t.Fatal("not a []byte fuzz seed")
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(rest), ")"))
	if err != nil {
		t.Fatal(err)
	}
	return []byte(s)
}
