package topology_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/specio"
	"nocvi/internal/topology"
)

// TestSwitchPortsAndCores holds the port counts the mutators and Build
// keep, and SwitchCores, to scans of SwitchOf and the links, on the
// winner of every bundled benchmark at k=0 and k=1 and on the D26
// winner read back through specio.ReadTopology: for every switch,
// SwitchPorts is its attached cores plus its link in- and out-degree,
// SwitchCores is its cores in ascending order, and SwitchCores into a
// buffer with room for them allocates nothing.
func TestSwitchPortsAndCores(t *testing.T) {
	lib := model.Default65nm()
	var names []string
	var tops []*topology.Topology
	for _, name := range bench.Names() {
		spec, err := bench.Islanded(name)
		if err != nil {
			t.Fatal(err)
		}
		for k := range 2 {
			res, err := core.Synthesize(spec, lib, core.Options{AllowIntermediate: true, Survivability: k})
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			names = append(names, fmt.Sprintf("%s/k%d", name, k))
			tops = append(tops, res.Best().Top)
		}
	}
	var buf bytes.Buffer
	if err := specio.WriteTopology(&buf, tops[0]); err != nil {
		t.Fatal(err)
	}
	back, err := specio.ReadTopology(&buf, tops[0].Spec, lib)
	if err != nil {
		t.Fatal(err)
	}
	names = append(names, names[0]+" read back")
	tops = append(tops, back)

	for i, top := range tops {
		into := make([]soc.CoreID, 0, len(top.SwitchOf))
		for s := range top.Switches {
			sw := topology.SwitchID(s)
			var want []soc.CoreID
			for c, at := range top.SwitchOf {
				if at == sw {
					want = append(want, soc.CoreID(c))
				}
			}
			in, out := len(want), len(want)
			for _, l := range top.Links {
				if l.To == sw {
					in++
				}
				if l.From == sw {
					out++
				}
			}
			if gi, go_ := top.SwitchPorts(sw); gi != in || go_ != out {
				t.Errorf("%s: SwitchPorts(%d) = %d,%d; scan says %d,%d", names[i], sw, gi, go_, in, out)
			}
			if got := top.SwitchCores(sw, into); !slices.Equal(got, want) {
				t.Errorf("%s: SwitchCores(%d) = %v, scan says %v", names[i], sw, got, want)
			}
			if n := testing.AllocsPerRun(5, func() { into = top.SwitchCores(sw, into) }); n != 0 {
				t.Errorf("%s: SwitchCores(%d) allocates %v times, want 0", names[i], sw, n)
			}
		}
	}
}
