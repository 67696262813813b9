package cache

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"nocvi/internal/bench"
	"nocvi/internal/core"
	"nocvi/internal/model"
	"nocvi/internal/num"
	"nocvi/internal/specio"
	"nocvi/internal/topology"
)

// TestReadersAgree reads the winner of every bundled benchmark, at
// survivability 0 and 1, back through both readers — the binary codec
// and the JSON topology format — and checks that they rebuild the same
// design: switches, core attachments, links with their lengths and
// traffic, and every route and backup walk with its links. JSON stores
// clocks in MHz, so clocks and capacities are compared within
// num.AlmostEq rather than bit for bit.
func TestReadersAgree(t *testing.T) {
	lib := model.Default65nm()
	for _, name := range bench.Names() {
		spec, err := bench.Islanded(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				opt := testOptions()
				opt.Survivability = k
				res, err := core.Synthesize(spec, lib, opt)
				if err != nil {
					t.Fatal(err)
				}
				best := res.Best()
				backups := 0
				for _, r := range best.Top.Routes {
					backups += len(r.Backups)
				}
				if (backups > 0) != (k > 0) {
					t.Fatalf("%d backup routes at k=%d", backups, k)
				}
				dec, err := DecodeResult(EncodeResult(&core.Result{Points: []core.DesignPoint{*best}}), spec, lib)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := specio.WriteTopology(&buf, best.Top); err != nil {
					t.Fatal(err)
				}
				js, err := specio.ReadTopology(&buf, spec, lib)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameDesign(dec.Points[0].Top, js); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// sameDesign reports the first difference between the codec-read
// topology a and the JSON-read topology b.
func sameDesign(a, b *topology.Topology) error {
	if a.NoCIsland != b.NoCIsland || len(a.IslandFreqHz) != len(b.IslandFreqHz) {
		return fmt.Errorf("islands: NoC %d of %d vs NoC %d of %d",
			a.NoCIsland, len(a.IslandFreqHz), b.NoCIsland, len(b.IslandFreqHz))
	}
	for i := range a.IslandFreqHz {
		if !num.AlmostEq(a.IslandFreqHz[i], b.IslandFreqHz[i]) || a.IslandVoltage[i] != b.IslandVoltage[i] {
			return fmt.Errorf("island %d: %g Hz %g V vs %g Hz %g V", i,
				a.IslandFreqHz[i], a.IslandVoltage[i], b.IslandFreqHz[i], b.IslandVoltage[i])
		}
	}
	if !slices.Equal(a.SwitchOf, b.SwitchOf) {
		return fmt.Errorf("attachments %v vs %v", a.SwitchOf, b.SwitchOf)
	}
	if len(a.Switches) != len(b.Switches) {
		return fmt.Errorf("%d vs %d switches", len(a.Switches), len(b.Switches))
	}
	for i := range a.Switches {
		sa, sb := &a.Switches[i], &b.Switches[i]
		if *sa != *sb {
			return fmt.Errorf("switch %d: %+v vs %+v", i, *sa, *sb)
		}
	}
	if len(a.Links) != len(b.Links) {
		return fmt.Errorf("%d vs %d links", len(a.Links), len(b.Links))
	}
	for i := range a.Links {
		la, lb := a.Links[i], b.Links[i]
		if la != lb {
			return fmt.Errorf("link %d: %+v vs %+v", i, la, lb)
		}
	}
	if len(a.Routes) != len(b.Routes) {
		return fmt.Errorf("%d vs %d routes", len(a.Routes), len(b.Routes))
	}
	for i := range a.Routes {
		ra, rb := &a.Routes[i], &b.Routes[i]
		if ra.Flow != rb.Flow || !slices.Equal(ra.Links, rb.Links) ||
			len(ra.Backups) != len(rb.Backups) {
			return fmt.Errorf("route %d: %+v vs %+v", i, *ra, *rb)
		}
		for j := range ra.Backups {
			if !slices.Equal(ra.Backups[j].Links, rb.Backups[j].Links) {
				return fmt.Errorf("route %d backup %d: %+v vs %+v", i, j, ra.Backups[j], rb.Backups[j])
			}
		}
	}
	return nil
}
