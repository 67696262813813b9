package cache

import (
	"bytes"
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
	"nocvi/internal/topology"
)

// wrap is 2^32: an encoded ID raised by it still reads as the same ID
// once narrowed to 32 bits without a check.
const wrap = 1 << 32

// wrappedFields are the ID fields decodeTopology reads, with the
// survivability whose D26 design has one (backup walks need k >= 1).
var wrappedFields = []struct {
	field string
	k     int
}{
	{"switch island", 0}, {"NI switch", 0}, {"link from", 0}, {"link to", 0},
	{"flow src", 0}, {"flow dst", 0}, {"route switch", 0}, {"backup switch", 1},
}

// walkEdit rewrites the stored switch walk w of route ri's primary
// (bi = -1) or of its backup bi.
type walkEdit func(ri, bi int, w []topology.SwitchID) []topology.SwitchID

// encodeTopologyRaised writes t as encodeTopology does, except that the
// first ID read for field is raised by `by` and, when edit is not nil,
// each walk is stored as edit returns it; it reports whether t has an
// ID for field. With by = 0 and no edit it must equal encodeTopology
// byte for byte (TestEncodeTopologyRaisedMirror).
func encodeTopologyRaised(e *enc, t *topology.Topology, field string, by int64, edit walkEdit) bool {
	done := false
	id := func(f string, v int64) {
		if f == field && !done {
			v += by
			done = true
		}
		e.i64(v)
	}
	e.bool(t.NoCIsland != soc.NoIsland)
	e.f64s(t.IslandFreqHz)
	e.f64s(t.IslandVoltage)
	e.u64(uint64(len(t.Switches)))
	for i := range t.Switches {
		id("switch island", int64(t.Switches[i].Island))
		e.bool(t.Switches[i].Indirect)
	}
	e.u64(uint64(len(t.SwitchOf)))
	for _, sw := range t.SwitchOf {
		id("NI switch", int64(sw))
	}
	e.u64(uint64(len(t.Links)))
	for i := range t.Links {
		id("link from", int64(t.Links[i].From))
		id("link to", int64(t.Links[i].To))
		e.f64(t.Links[i].LengthMM)
	}
	var walk []topology.SwitchID
	path := func(f string, flow soc.Flow, links []topology.LinkID, ri, bi int) {
		walk = t.Walk(walk, flow, links)
		if edit != nil {
			walk = edit(ri, bi, walk)
		}
		e.u64(uint64(len(walk)))
		for _, sw := range walk {
			id(f, int64(sw))
		}
		e.bool(len(links) > 0)
	}
	e.u64(uint64(len(t.Routes)))
	for i := range t.Routes {
		r := &t.Routes[i]
		f := t.Spec.Flows[r.Flow]
		id("flow src", int64(f.Src))
		id("flow dst", int64(f.Dst))
		e.f64(f.BandwidthBps)
		e.f64(f.MaxLatencyCycles)
		path("route switch", f, t.PathLinks(r.Links), i, -1)
		e.bool(r.Backups != nil)
		e.u64(uint64(len(r.Backups)))
		for bi, b := range r.Backups {
			path("backup switch", f, t.PathLinks(b), i, bi)
		}
	}
	return done
}

// wrappedPayload encodes a one-point D26 result at survivability k whose
// first ID read for field is raised by 2^32: the real encoding of the
// first design point that has such an ID, its topology section swapped
// for the raised one.
func wrappedPayload(t *testing.T, spec *soc.Spec, k int, field string) []byte {
	t.Helper()
	opt := testOptions()
	opt.Survivability = k
	res, err := core.Synthesize(spec, model.Default65nm(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Points {
		var raised enc
		if encodeTopologyRaised(&raised, res.Points[i].Top, field, wrap, nil) {
			return swappedPayload(t, res, i, raised.b)
		}
	}
	t.Fatalf("no D26 k=%d design point has a %s", k, field)
	return nil
}

// swappedPayload encodes design point i of res as a one-point result,
// its topology section swapped for top.
func swappedPayload(t *testing.T, res *core.Result, i int, top []byte) []byte {
	t.Helper()
	one := *res
	one.Points = res.Points[i : i+1]
	blob := EncodeResult(&one)
	var plain enc
	encodeTopology(&plain, one.Points[0].Top)
	if bytes.Count(blob, plain.b) != 1 {
		t.Fatal("the topology section is not unique in the encoding")
	}
	return bytes.Replace(blob, plain.b, top, 1)
}

// wrappedSeedFile names the FuzzDecodeResult seed holding field's payload.
func wrappedSeedFile(field string) string {
	return filepath.Join("testdata", "fuzz", "FuzzDecodeResult", "wrapped-"+strings.ReplaceAll(field, " ", "-"))
}

// TestEncodeTopologyRaisedMirror keeps encodeTopologyRaised faithful: at
// a raise of 0 it writes exactly what encodeTopology writes.
func TestEncodeTopologyRaisedMirror(t *testing.T) {
	lib := model.Default65nm()
	for _, k := range []int{0, 1} {
		opt := testOptions()
		opt.Survivability = k
		res, err := core.Synthesize(bench.D26(), lib, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Points {
			var want, got enc
			encodeTopology(&want, res.Points[i].Top)
			encodeTopologyRaised(&got, res.Points[i].Top, "", 0, nil)
			if !bytes.Equal(want.b, got.b) {
				t.Fatalf("k=%d point %d: the mirror encodes differently", k, i)
			}
		}
	}
}

// TestDecodeRejectsWrappedIDs raises each ID field of a D26 payload by
// 2^32. A 32-bit read without a check would decode the original design;
// DecodeResult must fail with a *soc.IDRangeError naming the field. The
// committed FuzzDecodeResult seeds hold the same payloads and must fail
// alike.
func TestDecodeRejectsWrappedIDs(t *testing.T) {
	spec := bench.D26()
	lib := model.Default65nm()
	for _, tc := range wrappedFields {
		t.Run(strings.ReplaceAll(tc.field, " ", "_"), func(t *testing.T) {
			seed, err := os.ReadFile(wrappedSeedFile(tc.field))
			if err != nil {
				t.Fatal(err)
			}
			for _, blob := range [][]byte{wrappedPayload(t, spec, tc.k, tc.field), fuzzSeedBytes(t, seed)} {
				_, err := DecodeResult(blob, spec, lib)
				if err == nil {
					t.Fatalf("%s raised by 2^32 decoded", tc.field)
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

// TestDecodeRejectsBadWalks stores walks in a D26 k=1 payload that no
// link list can spell and holds DecodeResult to topology.ErrWalk on
// each: an empty walk, primary or backup, and a one-switch walk off its
// source core's switch, which resolves to no links and so is caught
// only by WalkLinks' start check. The unedited payload must decode.
func TestDecodeRejectsBadWalks(t *testing.T) {
	spec := bench.D26()
	lib := model.Default65nm()
	opt := testOptions()
	opt.Survivability = 1
	res, err := core.Synthesize(spec, lib, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The first point with both a one-switch route and a backup.
	pi, oneSwitch, backed := -1, -1, -1
	for i := range res.Points {
		oneSwitch, backed = -1, -1
		for ri, r := range res.Points[i].Top.Routes {
			if oneSwitch < 0 && r.Links.N == 0 {
				oneSwitch = ri
			}
			if backed < 0 && len(r.Backups) > 0 {
				backed = ri
			}
		}
		if oneSwitch >= 0 && backed >= 0 {
			pi = i
			break
		}
	}
	if pi < 0 {
		t.Fatal("no D26 k=1 point has both a one-switch route and a backup")
	}
	top := res.Points[pi].Top
	off := (top.SwitchOf[spec.Flows[top.Routes[oneSwitch].Flow].Src] + 1) % topology.SwitchID(len(top.Switches))
	cases := []struct {
		name   string
		ri, bi int
		walk   []topology.SwitchID
	}{
		{"empty route walk", backed, -1, nil},
		{"empty backup walk", backed, 0, nil},
		{"one-switch route off its source switch", oneSwitch, -1, []topology.SwitchID{off}},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.name, " ", "_"), func(t *testing.T) {
			var e enc
			encodeTopologyRaised(&e, top, "", 0, func(ri, bi int, w []topology.SwitchID) []topology.SwitchID {
				if ri == tc.ri && bi == tc.bi {
					return tc.walk
				}
				return w
			})
			_, err := DecodeResult(swappedPayload(t, res, pi, e.b), spec, lib)
			if !errors.Is(err, topology.ErrWalk) {
				t.Fatalf("got %v, want an error wrapping %q", err, topology.ErrWalk)
			}
		})
	}
	var e enc
	encodeTopologyRaised(&e, top, "", 0, nil)
	if _, err := DecodeResult(swappedPayload(t, res, pi, e.b), spec, lib); err != nil {
		t.Fatalf("the unedited payload: %v", err)
	}
}
