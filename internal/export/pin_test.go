package export

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/model"
	"nocvi/internal/netlist"
	"nocvi/internal/topology"
)

// pinnedDesigns synthesizes the designs TestOutputsPinned renders, at
// nocsynth's defaults: the winner of every bundled benchmark, in
// bench.Names() order, then the D26 winner with one backup route per
// flow.
func pinnedDesigns(t *testing.T) ([]string, []*topology.Topology) {
	t.Helper()
	var names []string
	var tops []*topology.Topology
	add := func(name string, k int) {
		spec, err := bench.Islanded(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Synthesize(spec, model.Default65nm(), core.Options{AllowIntermediate: true, Survivability: k})
		if err != nil {
			t.Fatalf("%s k=%d: %v", name, k, err)
		}
		names = append(names, fmt.Sprintf("%s/k%d", name, k))
		tops = append(tops, res.Best().Top)
	}
	for _, name := range bench.Names() {
		add(name, 0)
	}
	add("d26_media", 1)
	return names, tops
}

// TestOutputsPinned pins the bytes of the Verilog netlist, the text
// export and the DOT export of each pinned design by a SHA-256 prefix.
// The netlist and the text export number or list each switch's NI
// ports, so a change in how a switch's cores are kept or walked that
// reorders them moves a digest here.
func TestOutputsPinned(t *testing.T) {
	names, tops := pinnedDesigns(t)
	digest := func(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:16] }
	got := map[string]string{}
	for i, top := range tops {
		v, err := netlist.Generate(top, netlist.Config{})
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		got[names[i]+"/verilog"] = digest(v)
		got[names[i]+"/text"] = digest(TopologyText(top))
		got[names[i]+"/dot"] = digest(TopologyDOT(top))
	}
	if len(got) != len(pinnedOutputs) {
		t.Errorf("rendered %d outputs, %d pinned", len(got), len(pinnedOutputs))
	}
	for k, g := range got {
		if want, ok := pinnedOutputs[k]; !ok || g != want {
			t.Errorf("%s: got %q, want %q", k, g, want)
		}
	}
}

// pinnedOutputs holds the recorded digests, keyed design/output.
var pinnedOutputs = map[string]string{
	"d26_media/k0/verilog":       "80939f079e9c6434",
	"d26_media/k0/text":          "c738d06dcce2f583",
	"d26_media/k0/dot":           "8b6766d06ab6274c",
	"d38_settop/k0/verilog":      "1a5e381a798235eb",
	"d38_settop/k0/text":         "dccc377ff8b0ba2c",
	"d38_settop/k0/dot":          "1b807ece922a2fac",
	"d35_tablet/k0/verilog":      "7bdb40c1066a2291",
	"d35_tablet/k0/text":         "bd809521052a6814",
	"d35_tablet/k0/dot":          "1761a00ba9a6a96b",
	"d30_basestation/k0/verilog": "36188ff509654709",
	"d30_basestation/k0/text":    "109c41b5c20d903f",
	"d30_basestation/k0/dot":     "c04a2cfef301e995",
	"d24_auto/k0/verilog":        "9e86e47156a2dc05",
	"d24_auto/k0/text":           "3358bd3d625bdcaa",
	"d24_auto/k0/dot":            "d0f0aafb19e7a2ec",
	"d16_industrial/k0/verilog":  "777549b64a2678a2",
	"d16_industrial/k0/text":     "7b1e25a194269e99",
	"d16_industrial/k0/dot":      "e4638b1943427859",
	"d48_network/k0/verilog":     "35d16683da783fe1",
	"d48_network/k0/text":        "06ac00f175b408db",
	"d48_network/k0/dot":         "351fa3f7fd5cd95d",
	"d20_wearable/k0/verilog":    "13fdeb005dbcd6e7",
	"d20_wearable/k0/text":       "a03503a448a04153",
	"d20_wearable/k0/dot":        "fda27fced447c751",
	"d26_media/k1/verilog":       "d5af9b0a50d55b08",
	"d26_media/k1/text":          "473817fd9f1df2b7",
	"d26_media/k1/dot":           "7ca62c44fe65fe2e",
}
