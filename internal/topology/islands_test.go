package topology_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nocvi/internal/model"
	"nocvi/internal/power"
	"nocvi/internal/sim"
	"nocvi/internal/soc"
	"nocvi/internal/topology"
)

// TestIslandTablesAreTheOneSource re-clocks and re-supplies every island
// after its switches, links and routes exist. The island tables are the
// only record of a clock or a supply, so every reader must see the new
// values: the link capacity, ValidateRouted's switch-clock check,
// power.NoC and sim.Run must each agree with the same design grown with
// the final values set first.
func TestIslandTablesAreTheOneSource(t *testing.T) {
	freqs := []float64{400e6, 300e6, 200e6}
	volts := []float64{1.0, 0.9, 0.8}
	setTables := func(top *topology.Topology) {
		for i := range freqs {
			top.SetIslandFreq(soc.IslandID(i), freqs[i])
			top.SetIslandVoltage(soc.IslandID(i), volts[i])
		}
	}
	// grow builds buildSpec's design with one switch per island and the
	// island-2 flows over link s2->s0, setting the tables before the
	// switches (early) or after the routes (late).
	grow := func(early bool) *topology.Topology {
		top := topology.New(buildSpec(), model.Default65nm())
		if early {
			setTables(top)
		}
		for i := range freqs {
			top.AddSwitch(soc.IslandID(i), false)
		}
		for c, isl := range top.Spec.IslandOf {
			if err := top.AttachCore(soc.CoreID(c), topology.SwitchID(isl)); err != nil {
				t.Fatal(err)
			}
		}
		lid, err := top.AddLink(2, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range top.Spec.Flows {
			r := topology.Route{Flow: f}
			if top.Spec.IslandOf[f.Src] == 2 {
				r.Links = links(lid)
			}
			if err := top.AddRoute(r); err != nil {
				t.Fatal(err)
			}
		}
		if !early {
			setTables(top)
		}
		return top
	}
	early, late := grow(true), grow(false)

	lib := late.Lib
	if got, want := late.CapacityBps(2, 0), lib.LinkCapacityBps(200e6); got != want {
		t.Errorf("capacity of s2->s0 = %g, want %g (the 200 MHz island's)", got, want)
	}
	if err := late.ValidateRouted(); err != nil {
		t.Fatalf("late-clocked design: %v", err)
	}
	if pe, pl := power.NoC(early), power.NoC(late); pe != pl {
		t.Errorf("power.NoC: set first %+v, set last %+v", pe, pl)
	}
	cfg := sim.Config{DurationNs: 2000}
	se, err := sim.Run(early, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := sim.Run(late, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(se, sl) {
		t.Errorf("sim.Run: set first %+v, set last %+v", se, sl)
	}

	// Clock island 0 past what its switch's size can meet: the check
	// must name the new clock.
	size := late.SwitchSize(0)
	fast := lib.SwitchMaxFreqHz(size) + 200e6
	late.SetIslandFreq(0, fast)
	want := fmt.Sprintf("cannot run at %.0f MHz", fast/1e6)
	if err := late.ValidateRouted(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("switch 0 (size %d) at %g Hz: ValidateRouted = %v, want %q", size, fast, err, want)
	}
}
