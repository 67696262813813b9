// Package model provides the power, area and delay library for NoC
// components that the synthesis flow costs designs with. The paper uses
// post-layout models of the ×pipesLite library [25] characterized at the
// 65 nm node, extended with bi-synchronous voltage/frequency converter
// models; here the same quantities are provided as analytic fits with
// the structure that drives every algorithmic decision:
//
//   - switch energy/flit, idle (clock) power, leakage and area grow with
//     the port count;
//   - the maximum operating frequency of a switch falls with the port
//     count (longer crossbar critical path), which is what bounds
//     max_sw_size per island in Algorithm 1 step 1;
//   - link energy and delay grow linearly with wire length;
//   - crossing a voltage-island boundary costs a bi-synchronous FIFO:
//     fixed energy per bit, extra area and a 4-cycle latency penalty;
//   - dynamic energy scales with the square of the supply voltage and
//     leakage scales roughly linearly with it.
//
// Absolute numbers are calibrated to published 65 nm NoC figures
// (switch energies of a few hundred fJ/bit, ~1 GHz peak switch clocks,
// wire signalling around 0.3 pJ/bit/mm); the reproduction relies on the
// relative behaviour, not on matching a proprietary kit mW-for-mW.
package model

import (
	"fmt"
	"math"
)

// Timing constants of the architecture (in NoC cycles).
const (
	// SwitchTraversalCycles is the pipeline depth of a switch hop
	// (buffering + arbitration + crossbar).
	SwitchTraversalCycles = 2.0

	// LinkTraversalCycles is the cost of an unpipelined inter-switch
	// link hop.
	LinkTraversalCycles = 1.0

	// FIFOCrossingCycles is the latency of the bi-synchronous FIFO used
	// on every link that crosses voltage islands ("a 4 cycle delay is
	// incurred on the voltage-frequency converters").
	FIFOCrossingCycles = 4.0
)

// Library holds the technology coefficients. Construct with Default65nm
// and optionally tweak the public fields before use.
type Library struct {
	// LinkWidthBits is the flit/link data width. The paper fixes it to a
	// user-defined value; 32 is the default.
	LinkWidthBits int

	// NominalVoltage is the supply at which energies are characterized.
	NominalVoltage float64

	// FreqGridHz quantizes island NoC frequencies (clock generators come
	// in steps).
	FreqGridHz float64

	// MaxFreqA and MaxFreqB parametrize the switch critical path:
	// f_max(P) = MaxFreqA / (1 + MaxFreqB*P) for a P-port switch.
	MaxFreqA float64
	MaxFreqB float64

	// Switch energy per bit through the datapath: E(P) =
	// SwitchEnergyBase + SwitchEnergyPerPort*P (joules/bit).
	SwitchEnergyBase    float64
	SwitchEnergyPerPort float64

	// SwitchIdlePerPortHz is the clock-tree + idle dynamic power per
	// port per Hz (W/(port*Hz)) at nominal voltage.
	SwitchIdlePerPortHz float64

	// SwitchLeakPerPort is leakage per port (W) at nominal voltage.
	SwitchLeakPerPort float64

	// SwitchAreaBase/PerPort2: area(P) = base + c*P^2 * (width/32) mm^2
	// (crossbar area is quadratic in port count, linear in width).
	SwitchAreaBase     float64
	SwitchAreaPerPort2 float64

	// Link signalling energy per bit per millimetre (J/(bit*mm)) and
	// leakage of repeaters per mm per bit of width.
	LinkEnergyPerBitMM  float64
	LinkLeakPerMMPerBit float64

	// WireDelayNsPerMM is the signal propagation delay of an optimally
	// repeated global wire.
	WireDelayNsPerMM float64

	// NI (network interface) coefficients.
	NIEnergyPerBit float64
	NILeak         float64
	NIAreaMM2      float64

	// Bi-synchronous FIFO (voltage/frequency converter) coefficients.
	FIFOEnergyPerBit float64
	FIFOLeak         float64
	FIFOAreaMM2      float64
}

// Default65nm returns the 65 nm technology library used throughout the
// reproduction.
func Default65nm() *Library {
	return &Library{
		LinkWidthBits:       32,
		NominalVoltage:      1.0,
		FreqGridHz:          25e6,
		MaxFreqA:            1.6e9,
		MaxFreqB:            0.12,
		SwitchEnergyBase:    0.148e-12,
		SwitchEnergyPerPort: 0.008e-12,
		SwitchIdlePerPortHz: 1.0e-12, // 1 mW per port per GHz (clock tree + FFs)
		SwitchLeakPerPort:   2.0e-5,  // 20 uW per port
		SwitchAreaBase:      0.0025,
		SwitchAreaPerPort2:  0.00065,
		LinkEnergyPerBitMM:  0.30e-12,
		LinkLeakPerMMPerBit: 6.0e-8,
		WireDelayNsPerMM:    0.125, // 8 mm/ns repeated global wire
		NIEnergyPerBit:      0.55e-12,
		NILeak:              4.5e-5,
		NIAreaMM2:           0.011,
		FIFOEnergyPerBit:    0.35e-12,
		FIFOLeak:            1.6e-5,
		FIFOAreaMM2:         0.004,
	}
}

// Validate sanity checks the coefficients.
func (l *Library) Validate() error {
	switch {
	case l.LinkWidthBits <= 0:
		return fmt.Errorf("model: link width %d must be positive", l.LinkWidthBits)
	case l.NominalVoltage <= 0:
		return fmt.Errorf("model: nominal voltage must be positive")
	case l.FreqGridHz <= 0:
		return fmt.Errorf("model: frequency grid must be positive")
	case l.MaxFreqA <= 0 || l.MaxFreqB < 0:
		return fmt.Errorf("model: bad max-frequency coefficients")
	case l.SwitchEnergyBase < 0 || l.SwitchEnergyPerPort < 0:
		return fmt.Errorf("model: negative switch energy")
	}
	return nil
}

// VoltageScaleDynamic returns the multiplier for dynamic energy at
// supply v relative to nominal (quadratic CV^2 scaling).
func (l *Library) VoltageScaleDynamic(v float64) float64 {
	r := v / l.NominalVoltage
	return r * r
}

// VoltageScaleLeakage returns the multiplier for leakage at supply v
// relative to nominal (approximately linear in the operating region).
func (l *Library) VoltageScaleLeakage(v float64) float64 {
	return v / l.NominalVoltage
}

// SwitchMaxFreqHz returns the highest clock a switch with the given
// total port count (inputs+outputs considering the larger of the two
// crossbar dimensions) can meet timing at.
func (l *Library) SwitchMaxFreqHz(ports int) float64 {
	if ports < 1 {
		ports = 1
	}
	return l.MaxFreqA / (1 + l.MaxFreqB*float64(ports))
}

// MaxSwitchSize returns the largest port count whose SwitchMaxFreqHz is
// at least freqHz (Algorithm 1 step 1: max_sw_size_j). It returns 0 when
// even a 1-port switch cannot reach freqHz.
func (l *Library) MaxSwitchSize(freqHz float64) int {
	if freqHz <= 0 {
		return math.MaxInt32 // unconstrained
	}
	p := (l.MaxFreqA/freqHz - 1) / l.MaxFreqB
	if p < 1 {
		if l.SwitchMaxFreqHz(1) >= freqHz {
			return 1
		}
		return 0
	}
	n := int(math.Floor(p + 1e-9))
	// Guard against floating point at the boundary.
	for n > 0 && l.SwitchMaxFreqHz(n) < freqHz {
		n--
	}
	return n
}

// QuantizeFreq rounds a frequency up to the library's clock grid.
func (l *Library) QuantizeFreq(freqHz float64) float64 {
	if freqHz <= 0 {
		return l.FreqGridHz
	}
	steps := math.Ceil(freqHz/l.FreqGridHz - 1e-9)
	return steps * l.FreqGridHz
}

// LinkCapacityBps returns the bandwidth (bytes/s) a link clocked at
// freqHz can carry: width × frequency.
func (l *Library) LinkCapacityBps(freqHz float64) float64 {
	return float64(l.LinkWidthBits) / 8 * freqHz
}

// MinFreqForBandwidth returns the lowest grid frequency at which a link
// sustains bwBps bytes/second.
func (l *Library) MinFreqForBandwidth(bwBps float64) float64 {
	raw := bwBps * 8 / float64(l.LinkWidthBits)
	return l.QuantizeFreq(raw)
}

// SwitchDynPowerW returns the dynamic power of a switch with the given
// port count, clock and supply, carrying the given aggregate traffic
// (bytes/s summed over all flows traversing the switch).
func (l *Library) SwitchDynPowerW(ports int, freqHz, voltage, trafficBps float64) float64 {
	scale := l.VoltageScaleDynamic(voltage)
	eBit := l.SwitchEnergyBase + l.SwitchEnergyPerPort*float64(ports)
	data := trafficBps * 8 * eBit
	idle := l.SwitchIdlePerPortHz * float64(ports) * freqHz
	return (data + idle) * scale
}

// SwitchLeakPowerW returns the leakage of a switch at the given supply.
func (l *Library) SwitchLeakPowerW(ports int, voltage float64) float64 {
	return l.SwitchLeakPerPort * float64(ports) * l.VoltageScaleLeakage(voltage)
}

// SwitchAreaMM2 returns switch area for the library's link width.
func (l *Library) SwitchAreaMM2(ports int) float64 {
	w := float64(l.LinkWidthBits) / 32
	return l.SwitchAreaBase + l.SwitchAreaPerPort2*float64(ports*ports)*w
}

// LinkDynPowerW returns the signalling power of a link of the given
// length carrying trafficBps (bytes/s) at the given supply.
func (l *Library) LinkDynPowerW(lengthMM, voltage, trafficBps float64) float64 {
	return trafficBps * 8 * l.LinkEnergyPerBitMM * lengthMM * l.VoltageScaleDynamic(voltage)
}

// LinkLeakPowerW returns the repeater leakage of a link.
func (l *Library) LinkLeakPowerW(lengthMM, voltage float64) float64 {
	return l.LinkLeakPerMMPerBit * float64(l.LinkWidthBits) * lengthMM * l.VoltageScaleLeakage(voltage)
}

// WireLengthBudgetMM returns the longest single-cycle wire at freqHz;
// links longer than this violate timing (the paper uses unpipelined
// links, so a link must traverse in one cycle).
func (l *Library) WireLengthBudgetMM(freqHz float64) float64 {
	if freqHz <= 0 {
		return math.Inf(1)
	}
	return 1e9 / freqHz / l.WireDelayNsPerMM
}

// NIDynPowerW returns the dynamic power of a network interface carrying
// trafficBps (bytes/s, sum of both directions).
func (l *Library) NIDynPowerW(voltage, trafficBps float64) float64 {
	return trafficBps * 8 * l.NIEnergyPerBit * l.VoltageScaleDynamic(voltage)
}

// NILeakPowerW returns NI leakage at the given supply.
func (l *Library) NILeakPowerW(voltage float64) float64 {
	return l.NILeak * l.VoltageScaleLeakage(voltage)
}

// FIFODynPowerW returns the dynamic power of a bi-synchronous FIFO
// carrying trafficBps. The converter straddles two supplies; the higher
// one dominates and is used for scaling.
func (l *Library) FIFODynPowerW(vSrc, vDst, trafficBps float64) float64 {
	v := math.Max(vSrc, vDst)
	return trafficBps * 8 * l.FIFOEnergyPerBit * l.VoltageScaleDynamic(v)
}

// FIFOLeakPowerW returns converter leakage.
func (l *Library) FIFOLeakPowerW(vSrc, vDst float64) float64 {
	v := math.Max(vSrc, vDst)
	return l.FIFOLeak * l.VoltageScaleLeakage(v)
}

// VoltageForFreq returns the lowest supply at which logic meets the
// given clock, under the standard alpha-power approximation that
// attainable frequency grows roughly linearly with the overdrive
// (V - Vt) in the operating region:
//
//	V(f) = Vt + (Vnom - Vt) · f / FNomHz,
//
// clamped to [MinVoltage, NominalVoltage]. Voltage-island designs use
// this to run slow islands at reduced supply, cutting dynamic energy
// quadratically.
func (l *Library) VoltageForFreq(freqHz float64) float64 {
	const (
		vt       = 0.40 // threshold voltage at 65 nm, volts
		minV     = 0.60 // lowest practical supply
		fNominal = 1e9  // clock that requires the nominal supply
	)
	v := vt + (l.NominalVoltage-vt)*freqHz/fNominal
	if v < minV {
		v = minV
	}
	if v > l.NominalVoltage {
		v = l.NominalVoltage
	}
	return v
}

// Default90nm returns the library scaled to the 90 nm node: roughly 1.4x
// the 65 nm dynamic energy, half the leakage density, 0.7x the peak
// clocks, and 1.7x the area — first-order constant-field scaling from
// the 65 nm calibration point.
func Default90nm() *Library {
	l := Default65nm()
	scaleDyn := 1.4
	l.MaxFreqA *= 0.7
	l.SwitchEnergyBase *= scaleDyn
	l.SwitchEnergyPerPort *= scaleDyn
	l.SwitchIdlePerPortHz *= scaleDyn
	l.SwitchLeakPerPort *= 0.5
	l.SwitchAreaBase *= 1.7
	l.SwitchAreaPerPort2 *= 1.7
	l.LinkEnergyPerBitMM *= 1.3
	l.LinkLeakPerMMPerBit *= 0.5
	l.WireDelayNsPerMM *= 1.2
	l.NIEnergyPerBit *= scaleDyn
	l.NILeak *= 0.5
	l.NIAreaMM2 *= 1.7
	l.FIFOEnergyPerBit *= scaleDyn
	l.FIFOLeak *= 0.5
	l.FIFOAreaMM2 *= 1.7
	return l
}

// Default45nm returns the library scaled to the 45 nm node: ~0.7x the
// dynamic energy, ~2.5x the leakage density (the scaling trend that
// motivates island shutdown in the first place), 1.3x the peak clocks,
// and ~0.55x the area.
func Default45nm() *Library {
	l := Default65nm()
	scaleDyn := 0.7
	l.MaxFreqA *= 1.3
	l.SwitchEnergyBase *= scaleDyn
	l.SwitchEnergyPerPort *= scaleDyn
	l.SwitchIdlePerPortHz *= scaleDyn
	l.SwitchLeakPerPort *= 2.5
	l.SwitchAreaBase *= 0.55
	l.SwitchAreaPerPort2 *= 0.55
	l.LinkEnergyPerBitMM *= 0.8
	l.LinkLeakPerMMPerBit *= 2.5
	l.WireDelayNsPerMM *= 0.9
	l.NIEnergyPerBit *= scaleDyn
	l.NILeak *= 2.5
	l.NIAreaMM2 *= 0.55
	l.FIFOEnergyPerBit *= scaleDyn
	l.FIFOLeak *= 2.5
	l.FIFOAreaMM2 *= 0.55
	return l
}

// ByNode returns the preset library for a technology node name
// ("90nm", "65nm", "45nm").
func ByNode(node string) (*Library, error) {
	switch node {
	case "90nm":
		return Default90nm(), nil
	case "65nm":
		return Default65nm(), nil
	case "45nm":
		return Default45nm(), nil
	}
	return nil, fmt.Errorf("model: unknown technology node %q (have 90nm, 65nm, 45nm)", node)
}
