// Package power computes the power and area figures the paper reports:
// the NoC dynamic power breakdown "switches, links and the synchronizers"
// (Fig. 2), the NoC and SoC area overhead, and system-level power under
// island-shutdown scenarios (the source of the "25% or more reduction in
// overall system power" headroom the paper cites from [6]).
//
// All dynamic figures derive from the routed traffic: a component only
// burns data-dependent energy for flows that actually traverse it, plus
// its clock/idle power while its island is up. A power-gated island
// contributes nothing — no core power, no switch idle power, no leakage —
// and the flows sourced or sunk in it disappear from the traffic.
package power

import (
	"fmt"
	"slices"

	"nocvi/internal/soc"
	"nocvi/internal/topology"
)

// DefaultLinkLengthMM prices links that have not been floorplanned yet.
const DefaultLinkLengthMM = 2.0

// Breakdown itemizes NoC power in watts.
type Breakdown struct {
	SwitchDynW  float64
	SwitchLeakW float64
	LinkDynW    float64
	LinkLeakW   float64
	NIDynW      float64
	NILeakW     float64
	FIFODynW    float64
	FIFOLeakW   float64
}

// DynW returns total NoC dynamic power (the Fig. 2 metric: switches,
// links and synchronizers, plus the NIs).
func (b Breakdown) DynW() float64 {
	return b.SwitchDynW + b.LinkDynW + b.NIDynW + b.FIFODynW
}

// LeakW returns total NoC leakage.
func (b Breakdown) LeakW() float64 {
	return b.SwitchLeakW + b.LinkLeakW + b.NILeakW + b.FIFOLeakW
}

// TotalW returns dynamic plus leakage power of the NoC.
func (b Breakdown) TotalW() float64 { return b.DynW() + b.LeakW() }

// System aggregates SoC-level power.
type System struct {
	CoreDynW  float64
	CoreLeakW float64
	NoC       Breakdown
}

// TotalW returns complete system power.
func (s System) TotalW() float64 {
	return s.CoreDynW + s.CoreLeakW + s.NoC.TotalW()
}

// Scratch holds the breakdown's reusable working buffer: the switch,
// link and NI traffic accumulators, carved out of one slice. A zero
// Scratch is ready to use; one Scratch must not be used by two
// goroutines concurrently. Sweeps that cost many candidate topologies
// reuse one Scratch per worker so a breakdown allocates nothing once
// the buffer has grown.
type Scratch struct {
	traffic []float64
}

// NoC computes the NoC power breakdown with every island powered.
func NoC(top *topology.Topology) Breakdown {
	return nocPower(top, nil)
}

// NoCWith is NoC drawing its traffic accumulators from sc, which may be
// reused across calls.
func NoCWith(top *topology.Topology, sc *Scratch) Breakdown {
	return nocPowerWires(top, nil, nil, true, sc)
}

// NoCSansLinkWires computes the breakdown of a routed topology with the
// wire-length-dependent link terms (LinkDynW, LinkLeakW) left at zero.
// Every other term is accumulated in exactly the order NoC uses, so
// zeroing LinkDynW on a full NoC breakdown reproduces this DynW
// bit-for-bit. The synthesis engine's staged pruning calls it after
// routing but before floorplanning: at that point the switch, NI and
// FIFO terms are final (none depends on wire lengths) and the link-wire
// terms — which only ever add power — are admissibly bounded by zero.
// The traffic accumulators come from sc, which may be reused across
// calls.
func NoCSansLinkWires(top *topology.Topology, sc *Scratch) Breakdown {
	return nocPowerWires(top, nil, nil, false, sc)
}

// SystemPower computes full-SoC power with every island on.
func SystemPower(top *topology.Topology) System {
	return SystemWithShutdown(top, nil)
}

// SystemWithShutdown computes full-SoC power under a shutdown mask.
func SystemWithShutdown(top *topology.Topology, off []bool) System {
	var s System
	for c, core := range top.Spec.Cores {
		if islandOff(off, top.Spec.IslandOf[c]) {
			continue
		}
		s.CoreDynW += core.DynPowerW
		s.CoreLeakW += core.LeakPowerW
	}
	s.NoC = nocPower(top, off)
	return s
}

// islandOff reports whether island id is gated under mask off. The
// intermediate island (id beyond the mask) is never gated.
func islandOff(off []bool, id soc.IslandID) bool {
	return off != nil && int(id) < len(off) && off[id]
}

func nocPower(top *topology.Topology, off []bool) Breakdown {
	return nocPowerWires(top, off, nil, true, nil)
}

// nocPowerMode computes the breakdown with an optional traffic-mode
// override: when modeBW is non-nil, only (src,dst) pairs present in the
// map carry traffic, at the map's bandwidths (a use case is a subset of
// the merged flows the topology was synthesized for).
func nocPowerMode(top *topology.Topology, off []bool, modeBW map[[2]soc.CoreID]float64) Breakdown {
	return nocPowerWires(top, off, modeBW, true, nil)
}

// nocPowerWires is the single accumulation loop behind every breakdown
// variant; wires=false skips only the link dynamic/leakage terms. The
// traffic accumulators come from sc (nil allocates a fresh buffer).
func nocPowerWires(top *topology.Topology, off []bool, modeBW map[[2]soc.CoreID]float64, wires bool, sc *Scratch) Breakdown {
	var b Breakdown
	lib := top.Lib
	spec := top.Spec

	// Active traffic per switch, link and core NI under the mask, in
	// one cleared buffer.
	if sc == nil {
		sc = &Scratch{}
	}
	ns, nl, nc := len(top.Switches), len(top.Links), len(spec.Cores)
	sc.traffic = slices.Grow(sc.traffic[:0], ns+nl+nc)[:ns+nl+nc]
	buf := sc.traffic
	clear(buf)
	swTraffic := buf[:ns:ns]
	linkTraffic := buf[ns : ns+nl : ns+nl]
	niTraffic := buf[ns+nl:]
	for ri := range top.Routes {
		r := &top.Routes[ri]
		if islandOff(off, spec.IslandOf[r.Flow.Src]) || islandOff(off, spec.IslandOf[r.Flow.Dst]) {
			continue
		}
		bw := r.Flow.BandwidthBps
		if modeBW != nil {
			var ok bool
			bw, ok = modeBW[[2]soc.CoreID{r.Flow.Src, r.Flow.Dst}]
			if !ok {
				continue
			}
		}
		// Each switch of the walk in order: its first, then each link's
		// far end.
		swTraffic[top.WalkSwitch(r.Flow, r.Links, 0)] += bw
		for _, l := range r.Links {
			swTraffic[top.Links[l].To] += bw
			linkTraffic[l] += bw
		}
		niTraffic[r.Flow.Src] += bw
		niTraffic[r.Flow.Dst] += bw
	}

	for i := range top.Switches {
		s := &top.Switches[i]
		if islandOff(off, s.Island) {
			continue
		}
		size, v := top.SwitchSize(topology.SwitchID(i)), top.IslandVoltage[s.Island]
		b.SwitchDynW += lib.SwitchDynPowerW(size, top.IslandFreqHz[s.Island], v, swTraffic[i])
		b.SwitchLeakW += lib.SwitchLeakPowerW(size, v)
	}

	for i, l := range top.Links {
		fi, ti := top.Switches[l.From].Island, top.Switches[l.To].Island
		if islandOff(off, fi) || islandOff(off, ti) {
			continue
		}
		fv, tv := top.IslandVoltage[fi], top.IslandVoltage[ti]
		if wires {
			length := l.LengthMM
			if length <= 0 {
				length = DefaultLinkLengthMM
			}
			vMax := fv
			if tv > vMax {
				vMax = tv
			}
			b.LinkDynW += lib.LinkDynPowerW(length, vMax, linkTraffic[i])
			b.LinkLeakW += lib.LinkLeakPowerW(length, vMax)
		}
		if top.CrossesIslands(l.From, l.To) {
			b.FIFODynW += lib.FIFODynPowerW(fv, tv, linkTraffic[i])
			b.FIFOLeakW += lib.FIFOLeakPowerW(fv, tv)
		}
	}

	for c := range spec.Cores {
		isl := spec.IslandOf[c]
		if islandOff(off, isl) {
			continue
		}
		v := top.IslandVoltage[isl]
		b.NIDynW += lib.NIDynPowerW(v, niTraffic[c])
		b.NILeakW += lib.NILeakPowerW(v)
	}
	return b
}

// NoCAreaMM2 returns the silicon area of the NoC: switches, one NI per
// core, and one bi-synchronous FIFO per island-crossing link. This plus
// the core area is the denominator of the paper's 0.5% area-overhead
// figure.
func NoCAreaMM2(top *topology.Topology) float64 {
	var area float64
	for i := range top.Switches {
		area += top.Lib.SwitchAreaMM2(top.SwitchSize(topology.SwitchID(i)))
	}
	area += float64(len(top.Spec.Cores)) * top.Lib.NIAreaMM2
	for _, l := range top.Links {
		if top.CrossesIslands(l.From, l.To) {
			area += top.Lib.FIFOAreaMM2
		}
	}
	return area
}

// Scenario describes a shutdown state to evaluate.
type Scenario struct {
	Name string
	// Off marks the spec islands to power gate.
	Off []bool
}

// Savings evaluates a scenario: total system power with the mask applied
// versus all-on, and the fractional reduction.
func Savings(top *topology.Topology, sc Scenario) (onW, offW, frac float64, err error) {
	for i, o := range sc.Off {
		if o && !top.Spec.Islands[i].Shutdownable {
			return 0, 0, 0, fmt.Errorf("power: scenario %q gates non-shutdownable island %d (%s)",
				sc.Name, i, top.Spec.Islands[i].Name)
		}
	}
	on := SystemPower(top).TotalW()
	offP := SystemWithShutdown(top, sc.Off).TotalW()
	if on <= 0 {
		return on, offP, 0, nil
	}
	return on, offP, (on - offP) / on, nil
}

// NoCForMode computes the NoC breakdown when only the mode's flows are
// active, at the mode's (not the merged spec's) bandwidths, with the
// given islands gated. The topology must have been synthesized for a
// spec whose flow set covers the mode (see soc.MergeUseCases); mode
// flows without a matching route are reported as an error.
func NoCForMode(top *topology.Topology, mode soc.UseCase, off []bool) (Breakdown, error) {
	routed := map[[2]soc.CoreID]bool{}
	for ri := range top.Routes {
		routed[[2]soc.CoreID{top.Routes[ri].Flow.Src, top.Routes[ri].Flow.Dst}] = true
	}
	modeBW := make(map[[2]soc.CoreID]float64, len(mode.Flows))
	for _, f := range mode.Flows {
		k := [2]soc.CoreID{f.Src, f.Dst}
		if !routed[k] {
			return Breakdown{}, fmt.Errorf("power: mode %q flow %d->%d has no route in the topology",
				mode.Name, f.Src, f.Dst)
		}
		modeBW[k] = f.BandwidthBps
	}
	return nocPowerMode(top, off, modeBW), nil
}

// SystemForMode computes full-SoC power in one traffic mode with the
// given islands gated. Cores in powered islands are charged their full
// dynamic power (a conservative simplification — per-mode core activity
// factors are outside this model's scope); gated islands contribute
// nothing.
func SystemForMode(top *topology.Topology, mode soc.UseCase, off []bool) (System, error) {
	var s System
	for c, core := range top.Spec.Cores {
		if islandOff(off, top.Spec.IslandOf[c]) {
			continue
		}
		s.CoreDynW += core.DynPowerW
		s.CoreLeakW += core.LeakPowerW
	}
	noc, err := NoCForMode(top, mode, off)
	if err != nil {
		return System{}, err
	}
	s.NoC = noc
	return s, nil
}
