package specio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/model"
	"nocvi/internal/sim"
	"nocvi/internal/soc"
)

func TestRoundTripExample(t *testing.T) {
	orig := bench.Example()
	var buf bytes.Buffer
	if err := WriteSpec(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name || len(back.Cores) != len(orig.Cores) ||
		len(back.Flows) != len(orig.Flows) || len(back.Islands) != len(orig.Islands) {
		t.Fatal("round trip lost structure")
	}
	for i := range orig.Cores {
		o, b := orig.Cores[i], back.Cores[i]
		if o.Name != b.Name || o.Class != b.Class ||
			math.Abs(o.AreaMM2-b.AreaMM2) > 1e-9 ||
			math.Abs(o.DynPowerW-b.DynPowerW) > 1e-12 ||
			math.Abs(o.LeakPowerW-b.LeakPowerW) > 1e-12 {
			t.Fatalf("core %d differs: %+v vs %+v", i, o, b)
		}
		if orig.IslandOf[i] != back.IslandOf[i] {
			t.Fatalf("core %d island differs", i)
		}
	}
	for i := range orig.Flows {
		o, b := orig.Flows[i], back.Flows[i]
		if o.Src != b.Src || o.Dst != b.Dst ||
			math.Abs(o.BandwidthBps-b.BandwidthBps) > 1 ||
			o.MaxLatencyCycles != b.MaxLatencyCycles {
			t.Fatalf("flow %d differs", i)
		}
	}
	for i := range orig.Islands {
		if orig.Islands[i].Shutdownable != back.Islands[i].Shutdownable ||
			orig.Islands[i].VoltageV != back.Islands[i].VoltageV {
			t.Fatalf("island %d differs", i)
		}
	}
}

func TestRoundTripD26(t *testing.T) {
	orig, err := bench.Islanded("d26_media")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSpec(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSpec(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// A loaded spec must synthesize identically.
	lib := model.Default65nm()
	a, err := core.Synthesize(orig, lib, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Synthesize(back, lib, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Best().NoCPower.DynW()-b.Best().NoCPower.DynW()) > 1e-12 {
		t.Fatal("loaded spec synthesizes differently")
	}
}

func TestReadSpecErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":        `{`,
		"unknown field":   `{"name":"x","bogus":1}`,
		"unknown class":   `{"name":"x","islands":[{"name":"i","voltage_v":1}],"cores":[{"name":"a","class":"warp","island":"i"}],"flows":[]}`,
		"unknown island":  `{"name":"x","islands":[{"name":"i","voltage_v":1}],"cores":[{"name":"a","class":"cpu","island":"j"}],"flows":[]}`,
		"dup core":        `{"name":"x","islands":[{"name":"i","voltage_v":1}],"cores":[{"name":"a","class":"cpu","island":"i"},{"name":"a","class":"cpu","island":"i"}],"flows":[]}`,
		"dup island":      `{"name":"x","islands":[{"name":"i","voltage_v":1},{"name":"i","voltage_v":1}],"cores":[{"name":"a","class":"cpu","island":"i"}],"flows":[]}`,
		"unknown flowsrc": `{"name":"x","islands":[{"name":"i","voltage_v":1}],"cores":[{"name":"a","class":"cpu","island":"i"}],"flows":[{"src":"z","dst":"a","bandwidth_mbps":1}]}`,
		"unknown flowdst": `{"name":"x","islands":[{"name":"i","voltage_v":1}],"cores":[{"name":"a","class":"cpu","island":"i"}],"flows":[{"src":"a","dst":"z","bandwidth_mbps":1}]}`,
		"invalid spec":    `{"name":"x","islands":[{"name":"i","voltage_v":1}],"cores":[{"name":"a","class":"cpu","island":"i"},{"name":"b","class":"cpu","island":"i"}],"flows":[{"src":"a","dst":"b","bandwidth_mbps":0}]}`,
	}
	for name, body := range cases {
		if _, err := ReadSpec(strings.NewReader(body)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestWriteSpecRejectsInvalid(t *testing.T) {
	s := &soc.Spec{Name: "broken"}
	var buf bytes.Buffer
	if err := WriteSpec(&buf, s); err == nil {
		t.Fatal("invalid spec written")
	}
}

func TestSaveLoadFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	orig := bench.Example()
	if err := SaveSpec(path, orig); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name {
		t.Fatal("file round trip broken")
	}
	if _, err := LoadSpec(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestWriteTopology(t *testing.T) {
	spec := bench.Example()
	res, err := core.Synthesize(spec, model.Default65nm(), core.Options{
		AllowIntermediate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	top := res.Best().Top
	var buf bytes.Buffer
	if err := WriteTopology(&buf, top); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("output not valid JSON: %v", err)
	}
	for _, key := range []string{"spec", "islands", "switches", "links", "routes", "network_interfaces"} {
		if _, ok := parsed[key]; !ok {
			t.Fatalf("key %q missing", key)
		}
	}
	sws := parsed["switches"].([]interface{})
	if len(sws) != len(top.Switches) {
		t.Fatalf("switch count %d vs %d", len(sws), len(top.Switches))
	}
	routes := parsed["routes"].([]interface{})
	if len(routes) != len(top.Routes) {
		t.Fatal("route count mismatch")
	}
	// A k=0 design has no backups, so its routes carry no backups key.
	for _, r := range routes {
		if _, ok := r.(map[string]interface{})["backups"]; ok {
			t.Fatal("k=0 route serialized a backups key")
		}
	}
	// The intermediate island must be flagged.
	if top.NoCIsland != soc.NoIsland {
		islands := parsed["islands"].([]interface{})
		last := islands[len(islands)-1].(map[string]interface{})
		if last["intermediate"] != true {
			t.Fatal("intermediate island not flagged")
		}
	}
}

func TestTopologyRoundTrip(t *testing.T) {
	spec := bench.Example()
	res, err := core.Synthesize(spec, model.Default65nm(), core.Options{
		AllowIntermediate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	orig := res.Best().Top
	var buf bytes.Buffer
	if err := WriteTopology(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTopology(bytes.NewReader(buf.Bytes()), spec, model.Default65nm())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Switches) != len(orig.Switches) || len(back.Links) != len(orig.Links) ||
		len(back.Routes) != len(orig.Routes) {
		t.Fatal("round trip lost structure")
	}
	for i := range orig.Switches {
		if orig.Switches[i] != back.Switches[i] {
			t.Fatalf("switch %d differs", i)
		}
	}
	if !slices.Equal(orig.SwitchOf, back.SwitchOf) {
		t.Fatal("round trip moved a core")
	}
	for i := range orig.Links {
		a, b := orig.Links[i], back.Links[i]
		if a.From != b.From || a.To != b.To || math.Abs(a.LengthMM-b.LengthMM) > 1e-9 {
			t.Fatalf("link %d differs", i)
		}
		if math.Abs(a.TrafficBps-b.TrafficBps) > 1 {
			t.Fatalf("link %d traffic not reconstructed from routes", i)
		}
	}
	// The reloaded topology simulates identically.
	sa, err := sim.Run(orig, sim.Config{DurationNs: 3000})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := sim.Run(back, sim.Config{DurationNs: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if sa.MeanLatencyNs != sb.MeanLatencyNs || sa.Sent != sb.Sent {
		t.Fatal("reloaded topology behaves differently")
	}
}

func TestReadTopologyErrors(t *testing.T) {
	spec := bench.Example()
	lib := model.Default65nm()
	res, err := core.Synthesize(spec, lib, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTopology(&buf, res.Best().Top); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	// wrong spec
	other := bench.D26()
	if _, err := ReadTopology(strings.NewReader(good), other, lib); err == nil {
		t.Fatal("topology accepted against the wrong spec")
	}
	// corrupted JSON
	if _, err := ReadTopology(strings.NewReader(good[:len(good)/2]), spec, lib); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	// unknown field
	if _, err := ReadTopology(strings.NewReader(`{"spec":"example6","bogus":1}`), spec, lib); err == nil {
		t.Fatal("unknown field accepted")
	}
	// tampered route through a missing link
	tampered := strings.Replace(good, `"switches": [`, `"switches": [99, `, 1)
	if _, err := ReadTopology(strings.NewReader(tampered), spec, lib); err == nil {
		t.Fatal("tampered route accepted")
	}
	// links whose endpoint lies outside the switch list
	for _, link := range []string{`{"from":99,"to":0}`, `{"from":-1,"to":0}`, `{"from":0,"to":99}`} {
		in := `{"spec":"` + spec.Name + `","switches":[{"id":0,"island":0,"size":0}],"links":[` + link + `]}`
		if _, err := ReadTopology(strings.NewReader(in), spec, lib); err == nil {
			t.Fatalf("link %s to an unknown switch accepted", link)
		}
	}
	// a second intermediate island carrying the intermediate island's id
	mid := fmt.Sprintf(`{"id":%d,"name":"noc_vi","freq_mhz":500,"voltage_v":1,"shutdownable":false,"intermediate":true}`,
		len(spec.Islands))
	in := `{"spec":"` + spec.Name + `","islands":[` + mid + `,` + mid + `]}`
	if _, err := ReadTopology(strings.NewReader(in), spec, lib); err == nil {
		t.Fatal("second intermediate island accepted")
	}
}

// TestTopologyRoundTripKeepsBackups checks that a survivable design
// keeps its backup routes through WriteTopology and ReadTopology, and
// with them its survivability.
func TestTopologyRoundTripKeepsBackups(t *testing.T) {
	spec, err := bench.Islanded("d26_media")
	if err != nil {
		t.Fatal(err)
	}
	lib := model.Default65nm()
	res, err := core.Synthesize(spec, lib, core.Options{
		AllowIntermediate: true, MaxIntermediateSwitches: 3, Survivability: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	orig := res.Best().Top
	var buf bytes.Buffer
	if err := WriteTopology(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTopology(bytes.NewReader(buf.Bytes()), spec, lib)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.ValidateSurvivable(1); err != nil {
		t.Fatalf("round trip lost survivability: %v", err)
	}
	backups := 0
	for ri := range orig.Routes {
		a, b := orig.Routes[ri].Backups, back.Routes[ri].Backups
		if len(a) != len(b) {
			t.Fatalf("route %d: %d backups, want %d", ri, len(b), len(a))
		}
		for bi := range a {
			if !slices.Equal(a[bi].Links, b[bi].Links) {
				t.Fatalf("route %d backup %d differs", ri, bi)
			}
		}
		backups += len(a)
	}
	if backups == 0 {
		t.Fatal("the k=1 design has no backups to round-trip")
	}
}
