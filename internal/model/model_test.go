package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultValid(t *testing.T) {
	if err := Default65nm().Validate(); err != nil {
		t.Fatalf("default library invalid: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	mut := []func(*Library){
		func(l *Library) { l.LinkWidthBits = 0 },
		func(l *Library) { l.NominalVoltage = 0 },
		func(l *Library) { l.FreqGridHz = -1 },
		func(l *Library) { l.MaxFreqA = 0 },
		func(l *Library) { l.SwitchEnergyBase = -1 },
	}
	for i, m := range mut {
		l := Default65nm()
		m(l)
		if err := l.Validate(); err == nil {
			t.Fatalf("mutation %d not rejected", i)
		}
	}
}

func TestSwitchMaxFreqMonotone(t *testing.T) {
	l := Default65nm()
	prev := math.Inf(1)
	for p := 1; p <= 40; p++ {
		f := l.SwitchMaxFreqHz(p)
		if f <= 0 || f >= prev {
			t.Fatalf("f_max(%d)=%g not strictly decreasing (prev %g)", p, f, prev)
		}
		prev = f
	}
	// Sanity: a small switch runs around 1 GHz-class clocks at 65 nm.
	if f := l.SwitchMaxFreqHz(5); f < 0.7e9 || f > 1.3e9 {
		t.Fatalf("f_max(5)=%g Hz, expected ~1 GHz", f)
	}
	if l.SwitchMaxFreqHz(0) != l.SwitchMaxFreqHz(1) {
		t.Fatal("port counts below 1 should clamp")
	}
}

func TestMaxSwitchSizeInvertsMaxFreq(t *testing.T) {
	l := Default65nm()
	for p := 1; p <= 30; p++ {
		f := l.SwitchMaxFreqHz(p)
		n := l.MaxSwitchSize(f)
		if n < p {
			t.Fatalf("MaxSwitchSize(f_max(%d))=%d < %d", p, n, p)
		}
		if l.SwitchMaxFreqHz(n) < f-1 {
			t.Fatalf("returned size %d cannot run at %g", n, f)
		}
	}
	if n := l.MaxSwitchSize(0); n != math.MaxInt32 {
		t.Fatalf("unconstrained frequency should be unbounded, got %d", n)
	}
	if n := l.MaxSwitchSize(10e9); n != 0 {
		t.Fatalf("impossible frequency should give 0, got %d", n)
	}
}

func TestQuantizeFreq(t *testing.T) {
	l := Default65nm()
	if got := l.QuantizeFreq(101e6); got != 125e6 {
		t.Fatalf("QuantizeFreq(101MHz)=%g", got)
	}
	if got := l.QuantizeFreq(100e6); got != 100e6 {
		t.Fatalf("exact grid value changed: %g", got)
	}
	if got := l.QuantizeFreq(0); got != l.FreqGridHz {
		t.Fatalf("zero freq should clamp to one grid step, got %g", got)
	}
}

func TestLinkCapacityAndMinFreq(t *testing.T) {
	l := Default65nm() // 32-bit links: 4 bytes/cycle
	if got := l.LinkCapacityBps(500e6); got != 2e9 {
		t.Fatalf("capacity at 500MHz = %g, want 2 GB/s", got)
	}
	f := l.MinFreqForBandwidth(2e9)
	if f != 500e6 {
		t.Fatalf("MinFreqForBandwidth(2GB/s) = %g, want 500 MHz", f)
	}
	if l.LinkCapacityBps(f) < 2e9 {
		t.Fatal("min frequency does not sustain the bandwidth")
	}
}

func TestVoltageScaling(t *testing.T) {
	l := Default65nm()
	if got := l.VoltageScaleDynamic(0.5); got != 0.25 {
		t.Fatalf("dynamic scale at 0.5V = %g", got)
	}
	if got := l.VoltageScaleLeakage(0.8); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("leakage scale at 0.8V = %g", got)
	}
}

func TestSwitchPowerShape(t *testing.T) {
	l := Default65nm()
	// More ports, more power, for both traffic-driven and idle terms.
	p5 := l.SwitchDynPowerW(5, 500e6, 1.0, 1e9)
	p9 := l.SwitchDynPowerW(9, 500e6, 1.0, 1e9)
	if p9 <= p5 {
		t.Fatalf("switch power not increasing in ports: %g vs %g", p5, p9)
	}
	// Zero traffic still burns clock power.
	idle := l.SwitchDynPowerW(5, 500e6, 1.0, 0)
	if idle <= 0 {
		t.Fatal("idle switch power must be positive")
	}
	// Lower voltage, quadratically less power.
	low := l.SwitchDynPowerW(5, 500e6, 0.5, 1e9)
	if math.Abs(low-p5*0.25) > 1e-15 {
		t.Fatalf("voltage scaling wrong: %g vs %g", low, p5*0.25)
	}
	// Sanity magnitude: a 5-port switch moving 1 GB/s at 500 MHz is a
	// few mW at 65 nm.
	if p5 < 0.5e-3 || p5 > 10e-3 {
		t.Fatalf("switch power magnitude implausible: %g W", p5)
	}
}

func TestLeakageAndArea(t *testing.T) {
	l := Default65nm()
	if l.SwitchLeakPowerW(8, 1.0) <= l.SwitchLeakPowerW(4, 1.0) {
		t.Fatal("leakage must grow with ports")
	}
	if l.SwitchAreaMM2(8) <= l.SwitchAreaMM2(4) {
		t.Fatal("area must grow with ports")
	}
	// Area is quadratic-ish: 8 ports more than 2x the 4-port area beyond base
	a4 := l.SwitchAreaMM2(4) - l.SwitchAreaBase
	a8 := l.SwitchAreaMM2(8) - l.SwitchAreaBase
	if math.Abs(a8/a4-4) > 1e-9 {
		t.Fatalf("crossbar area not quadratic: ratio=%g", a8/a4)
	}
	wide := *l
	wide.LinkWidthBits = 64
	if wide.SwitchAreaMM2(4) <= l.SwitchAreaMM2(4) {
		t.Fatal("wider datapath must cost area")
	}
}

func TestLinkModel(t *testing.T) {
	l := Default65nm()
	p := l.LinkDynPowerW(2.0, 1.0, 1e9) // 2 mm, 1 GB/s
	want := 1e9 * 8 * 0.30e-12 * 2.0
	if math.Abs(p-want) > 1e-15 {
		t.Fatalf("link power = %g, want %g", p, want)
	}
	if l.LinkLeakPowerW(2, 1.0) <= l.LinkLeakPowerW(1, 1.0) {
		t.Fatal("link leakage must grow with length")
	}
	if !math.IsInf(l.WireLengthBudgetMM(0), 1) {
		t.Fatal("zero frequency should have unbounded wire budget")
	}
}

func TestNIAndFIFO(t *testing.T) {
	l := Default65nm()
	if l.NIDynPowerW(1.0, 1e9) <= 0 || l.NILeakPowerW(1.0) <= 0 {
		t.Fatal("NI power must be positive")
	}
	// FIFO scales with the max of the two island voltages.
	hi := l.FIFODynPowerW(1.2, 0.8, 1e9)
	lo := l.FIFODynPowerW(0.8, 0.8, 1e9)
	if hi <= lo {
		t.Fatal("FIFO must scale with the higher supply")
	}
	if l.FIFODynPowerW(1.2, 0.8, 1e9) != l.FIFODynPowerW(0.8, 1.2, 1e9) {
		t.Fatal("FIFO power must be symmetric in supplies")
	}
	if l.FIFOLeakPowerW(1.0, 0.5) != l.FIFOLeakPowerW(0.5, 1.0) {
		t.Fatal("FIFO leakage must be symmetric")
	}
	if FIFOCrossingCycles != 4.0 {
		t.Fatal("paper specifies a 4-cycle converter crossing")
	}
}

// Property: MaxSwitchSize(f) is the exact inversion point — the returned
// size meets f, the next size up does not (when size > 0 and finite).
func TestMaxSwitchSizeBoundaryProperty(t *testing.T) {
	l := Default65nm()
	f := func(raw uint32) bool {
		freq := 100e6 + float64(raw%3000)*1e6 // 0.1 .. 3.1 GHz
		n := l.MaxSwitchSize(freq)
		if n == 0 {
			return l.SwitchMaxFreqHz(1) < freq
		}
		if n == math.MaxInt32 {
			return false
		}
		return l.SwitchMaxFreqHz(n) >= freq && l.SwitchMaxFreqHz(n+1) < freq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantized frequency is on-grid, and never below the input.
func TestQuantizeFreqProperty(t *testing.T) {
	l := Default65nm()
	f := func(raw uint32) bool {
		in := float64(raw%4000)*1e6 + 1
		q := l.QuantizeFreq(in)
		steps := q / l.FreqGridHz
		return q >= in-1e-3 && math.Abs(steps-math.Round(steps)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestVoltageForFreq(t *testing.T) {
	l := Default65nm()
	// Monotone non-decreasing in frequency, clamped to [0.6, Vnom].
	prev := 0.0
	for _, f := range []float64{0, 50e6, 100e6, 250e6, 500e6, 1e9, 2e9} {
		v := l.VoltageForFreq(f)
		if v < prev-1e-12 {
			t.Fatalf("voltage not monotone at %g Hz", f)
		}
		if v < 0.6 || v > l.NominalVoltage {
			t.Fatalf("voltage %g outside [0.6, %g]", v, l.NominalVoltage)
		}
		prev = v
	}
	if l.VoltageForFreq(1e9) != l.NominalVoltage {
		t.Fatal("nominal clock should need nominal supply")
	}
	if l.VoltageForFreq(25e6) != 0.6 {
		t.Fatal("slow clocks should clamp to the minimum supply")
	}
	// A 500 MHz domain sits between the clamps.
	if v := l.VoltageForFreq(500e6); v <= 0.6 || v >= 1.0 {
		t.Fatalf("mid-range voltage %g not scaled", v)
	}
}

func TestNodePresets(t *testing.T) {
	n90, err := ByNode("90nm")
	if err != nil {
		t.Fatal(err)
	}
	n65, _ := ByNode("65nm")
	n45, _ := ByNode("45nm")
	if _, err := ByNode("28nm"); err == nil {
		t.Fatal("unknown node accepted")
	}
	for _, l := range []*Library{n90, n65, n45} {
		if err := l.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// Scaling trends: newer node = less dynamic energy, more leakage
	// density, faster clocks, smaller area.
	if !(n90.SwitchEnergyBase > n65.SwitchEnergyBase && n65.SwitchEnergyBase > n45.SwitchEnergyBase) {
		t.Fatal("dynamic energy not shrinking with the node")
	}
	if !(n90.SwitchLeakPerPort < n65.SwitchLeakPerPort && n65.SwitchLeakPerPort < n45.SwitchLeakPerPort) {
		t.Fatal("leakage density not growing with the node — the paper's motivation")
	}
	if !(n90.SwitchMaxFreqHz(5) < n65.SwitchMaxFreqHz(5) && n65.SwitchMaxFreqHz(5) < n45.SwitchMaxFreqHz(5)) {
		t.Fatal("clocks not improving with the node")
	}
	if !(n90.SwitchAreaMM2(5) > n65.SwitchAreaMM2(5) && n65.SwitchAreaMM2(5) > n45.SwitchAreaMM2(5)) {
		t.Fatal("area not shrinking with the node")
	}
}
