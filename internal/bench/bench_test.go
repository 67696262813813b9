package bench

import (
	"testing"

	"nocvi/internal/core"
	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/viplace"
)

func TestD26Shape(t *testing.T) {
	s := D26()
	if len(s.Cores) != 26 {
		t.Fatalf("D26 has %d cores", len(s.Cores))
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper's description: processors, DSPs, caches, DMA, memory,
	// video engines, many peripherals/IO.
	counts := map[soc.CoreClass]int{}
	for _, c := range s.Cores {
		counts[c.Class]++
	}
	if counts[soc.ClassCPU] < 2 || counts[soc.ClassDSP] < 2 ||
		counts[soc.ClassCache] < 2 || counts[soc.ClassDMA] < 1 ||
		counts[soc.ClassMemory]+counts[soc.ClassMemCtrl] < 3 ||
		counts[soc.ClassAccel] < 4 ||
		counts[soc.ClassPeripheral]+counts[soc.ClassIO] < 5 {
		t.Fatalf("class mix does not match the paper's description: %v", counts)
	}
	if len(s.Flows) < 35 {
		t.Fatalf("only %d flows", len(s.Flows))
	}
}

func TestD26BandwidthProfile(t *testing.T) {
	s := D26()
	// Heavy cache flows, light peripherals: dynamic range >= 1000x.
	max, min := 0.0, 1e18
	for _, f := range s.Flows {
		if f.BandwidthBps > max {
			max = f.BandwidthBps
		}
		if f.BandwidthBps < min {
			min = f.BandwidthBps
		}
	}
	if max/min < 1000 {
		t.Fatalf("bandwidth dynamic range %g too flat", max/min)
	}
	// Latency constraints must admit island crossings (>= 11 cycles).
	if s.MinLatencyConstraint() < 11 {
		t.Fatalf("tightest constraint %g would forbid any island crossing", s.MinLatencyConstraint())
	}
}

func TestD26Islands(t *testing.T) {
	for _, m := range []viplace.Method{viplace.MethodLogical, viplace.MethodCommunication} {
		for _, n := range []int{1, 2, 4, 6, 7, 26} {
			s, err := D26Islands(m, n)
			if err != nil {
				t.Fatalf("%s/%d: %v", m, n, err)
			}
			if len(s.Islands) != n {
				t.Fatalf("%s/%d: got %d islands", m, n, len(s.Islands))
			}
		}
	}
}

func TestSuiteRegistry(t *testing.T) {
	names := Names()
	if len(names) != 8 {
		t.Fatalf("suite has %d entries", len(names))
	}
	for _, n := range names {
		flat, err := Flat(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := flat.Validate(); err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if len(flat.Islands) != 1 {
			t.Fatalf("%s flat spec has %d islands", n, len(flat.Islands))
		}
		isl, err := Islanded(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(isl.Islands) < 4 {
			t.Fatalf("%s islanded into %d", n, len(isl.Islands))
		}
		// Every suite SoC needs a non-shutdownable island (shared mem).
		anyOn := false
		for _, i := range isl.Islands {
			if !i.Shutdownable {
				anyOn = true
			}
		}
		if !anyOn {
			t.Fatalf("%s: all islands shutdownable", n)
		}
	}
	if _, err := Flat("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if _, err := Islanded("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestSuiteSizes(t *testing.T) {
	want := map[string]int{
		"d26_media": 26, "d38_settop": 38, "d35_tablet": 35,
		"d30_basestation": 30, "d24_auto": 24, "d16_industrial": 16,
		"d48_network": 48, "d20_wearable": 20,
	}
	for name, n := range want {
		s, err := Flat(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Cores) != n {
			t.Fatalf("%s has %d cores, want %d", name, len(s.Cores), n)
		}
	}
}

func TestSuiteDeterministic(t *testing.T) {
	a, _ := Flat("d38_settop")
	b, _ := Flat("d38_settop")
	if len(a.Flows) != len(b.Flows) {
		t.Fatal("generator not deterministic")
	}
	for i := range a.Flows {
		if a.Flows[i] != b.Flows[i] {
			t.Fatalf("flow %d differs between runs", i)
		}
	}
}

func TestExample(t *testing.T) {
	s := Example()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Cores) != 6 || len(s.Islands) != 3 {
		t.Fatalf("example: %d cores, %d islands", len(s.Cores), len(s.Islands))
	}
}

// Every suite benchmark must actually synthesize — this is the
// integration gate for the whole flow.
func TestSuiteSynthesizes(t *testing.T) {
	lib := model.Default65nm()
	for _, name := range Names() {
		s, err := Islanded(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Synthesize(s, lib, core.Options{
			AllowIntermediate: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		best := res.Best()
		if best == nil || best.NoCPower.DynW() <= 0 {
			t.Fatalf("%s: no usable design point", name)
		}
		if err := best.Top.Validate(); err != nil {
			t.Fatalf("%s: best point invalid: %v", name, err)
		}
	}
}

func TestLeakageFractionSupportsShutdownClaim(t *testing.T) {
	// The paper cites [6]: shutdown can cut >= 25% of system power. For
	// that headroom to exist, the shutdownable islands of D26 must hold
	// a substantial share of total core power.
	s, err := D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		t.Fatal(err)
	}
	var gateable, total float64
	for c, core := range s.Cores {
		p := core.DynPowerW + core.LeakPowerW
		total += p
		if s.Islands[s.IslandOf[c]].Shutdownable {
			gateable += p
		}
	}
	if gateable/total < 0.25 {
		t.Fatalf("only %.0f%% of core power is gateable", 100*gateable/total)
	}
}
