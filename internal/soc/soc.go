// Package soc defines the input specification for the NoC topology
// synthesis problem: the cores of the system, the traffic flows between
// them, and the assignment of cores to voltage islands.
//
// The types in this package mirror the "Example Input" of the paper
// (Fig. 1): a set of heterogeneous cores, each annotated with physical
// properties (area, leakage, operating frequency), a set of directed
// communication flows annotated with bandwidth and latency constraints,
// and a partition of the cores into voltage islands, some of which may be
// shut down at run time.
package soc

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// CoreID identifies a core within a SoC specification. IDs are dense
// indices in [0, len(Cores)). Like every design ID (IslandID here,
// topology.SwitchID and topology.LinkID) it is 32 bits wide: an integer
// read from outside the process enters one only through NarrowID.
type CoreID int32

// IslandID identifies a voltage island. IDs are dense indices in
// [0, len(Islands)). The special value NoIsland marks an unassigned core.
type IslandID int32

// NoIsland marks a core that has not been assigned to any island.
const NoIsland IslandID = -1

// IDRangeError reports a decoded integer that does not fit the 32-bit
// ID type of the field it was read for. Without the check, a value such
// as 2^32+5 would wrap to a valid-looking 5.
type IDRangeError struct {
	Field string // what was being read, e.g. "link from"
	Value int64
}

func (e *IDRangeError) Error() string {
	return e.Field + " " + strconv.FormatInt(e.Value, 10) + " is outside the 32-bit ID range"
}

// NarrowID converts v, read for field, into the ID type T. A value
// outside the int32 range is an *IDRangeError instead. Every decoder of
// external input (specio's JSON reader, the cache codec) converts IDs
// through it, before the topology builder's own range checks.
func NarrowID[T ~int32, V ~int | ~int64](field string, v V) (T, error) {
	if int64(v) < math.MinInt32 || int64(v) > math.MaxInt32 {
		return 0, &IDRangeError{Field: field, Value: int64(v)}
	}
	return T(v), nil
}

// CoreClass is a coarse functional classification of a core. It drives
// the "logical partitioning" of cores into voltage islands (cores with
// related functionality share an island) and the leakage/area defaults.
type CoreClass int

// Functional classes found in the mobile/multimedia SoCs the paper
// evaluates on.
const (
	ClassCPU CoreClass = iota // general purpose processors
	ClassDSP                  // digital signal processors
	ClassCache
	ClassMemory     // on-chip SRAM/ROM, integrated memories
	ClassMemCtrl    // external memory controllers
	ClassDMA        // DMA engines
	ClassAccel      // video/audio/crypto accelerator engines
	ClassPeripheral // low/medium speed I/O peripherals
	ClassIO         // high speed I/O (USB, radio, network)
	numCoreClasses
)

var coreClassNames = [...]string{
	ClassCPU:        "cpu",
	ClassDSP:        "dsp",
	ClassCache:      "cache",
	ClassMemory:     "memory",
	ClassMemCtrl:    "memctrl",
	ClassDMA:        "dma",
	ClassAccel:      "accel",
	ClassPeripheral: "periph",
	ClassIO:         "io",
}

// String returns the lower-case name of the class.
func (c CoreClass) String() string {
	if c < 0 || int(c) >= len(coreClassNames) {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return coreClassNames[c]
}

// Core describes one IP block of the SoC.
type Core struct {
	ID    CoreID
	Name  string
	Class CoreClass

	// AreaMM2 is the silicon area of the core in mm^2, used by the
	// floorplanner and by the SoC-level area-overhead accounting.
	AreaMM2 float64

	// FreqHz is the core's own operating frequency. The network
	// interface performs clock conversion between the core clock and
	// the island's NoC clock, so this does not constrain the NoC
	// frequency directly; it is reported for completeness.
	FreqHz float64

	// DynPowerW is the core's active dynamic power draw in watts. It is
	// only used for SoC-level power accounting (the NoC overhead is
	// quoted relative to total system dynamic power).
	DynPowerW float64

	// LeakPowerW is the core's leakage power in watts; eliminated when
	// the island containing the core is shut down.
	LeakPowerW float64
}

// Flow is a directed traffic flow between two cores.
type Flow struct {
	Src, Dst CoreID

	// BandwidthBps is the sustained bandwidth demand in bytes/second.
	BandwidthBps float64

	// MaxLatencyCycles is the zero-load latency constraint for the flow,
	// expressed in NoC cycles of the source island (the paper expresses
	// latency constraints in cycles). Zero means unconstrained.
	MaxLatencyCycles float64
}

// Island is one voltage island of the design.
type Island struct {
	ID   IslandID
	Name string

	// VoltageV is the supply voltage of the island.
	VoltageV float64

	// Shutdownable reports whether the island may be power gated. The
	// paper keeps shared-memory islands always on; the synthesized NoC
	// must allow every shutdownable island to be gated without breaking
	// traffic between the remaining islands.
	Shutdownable bool
}

// Spec is a complete synthesis problem instance.
type Spec struct {
	Name    string
	Cores   []Core
	Flows   []Flow
	Islands []Island

	// IslandOf maps each core to its voltage island. len(IslandOf) ==
	// len(Cores).
	IslandOf []IslandID
}

// Validate checks the internal consistency of the specification. It
// verifies ID density, island assignment bounds, flow endpoints, and
// strictly positive bandwidths.
func (s *Spec) Validate() error {
	if len(s.Cores) == 0 {
		return fmt.Errorf("spec %q: no cores", s.Name)
	}
	if len(s.IslandOf) != len(s.Cores) {
		return fmt.Errorf("spec %q: IslandOf has %d entries for %d cores", s.Name, len(s.IslandOf), len(s.Cores))
	}
	if len(s.Islands) == 0 {
		return fmt.Errorf("spec %q: no islands", s.Name)
	}
	for i, c := range s.Cores {
		if c.ID != CoreID(i) {
			return fmt.Errorf("spec %q: core %d has ID %d (must be dense)", s.Name, i, c.ID)
		}
		if c.Name == "" {
			return fmt.Errorf("spec %q: core %d has empty name", s.Name, i)
		}
		if c.AreaMM2 < 0 || c.DynPowerW < 0 || c.LeakPowerW < 0 {
			return fmt.Errorf("spec %q: core %q has negative physical parameter", s.Name, c.Name)
		}
	}
	for i, isl := range s.Islands {
		if isl.ID != IslandID(i) {
			return fmt.Errorf("spec %q: island %d has ID %d (must be dense)", s.Name, i, isl.ID)
		}
	}
	for i, id := range s.IslandOf {
		if id < 0 || int(id) >= len(s.Islands) {
			return fmt.Errorf("spec %q: core %q assigned to invalid island %d", s.Name, s.Cores[i].Name, id)
		}
	}
	seen := make(map[[2]CoreID]bool, len(s.Flows))
	for i, f := range s.Flows {
		if f.Src < 0 || int(f.Src) >= len(s.Cores) || f.Dst < 0 || int(f.Dst) >= len(s.Cores) {
			return fmt.Errorf("spec %q: flow %d has out-of-range endpoint", s.Name, i)
		}
		if f.Src == f.Dst {
			return fmt.Errorf("spec %q: flow %d is a self loop on core %q", s.Name, i, s.Cores[f.Src].Name)
		}
		if f.BandwidthBps <= 0 {
			return fmt.Errorf("spec %q: flow %d (%q->%q) has non-positive bandwidth", s.Name, i, s.Cores[f.Src].Name, s.Cores[f.Dst].Name)
		}
		if f.MaxLatencyCycles < 0 {
			return fmt.Errorf("spec %q: flow %d has negative latency constraint", s.Name, i)
		}
		key := [2]CoreID{f.Src, f.Dst}
		if seen[key] {
			return fmt.Errorf("spec %q: duplicate flow %q->%q", s.Name, s.Cores[f.Src].Name, s.Cores[f.Dst].Name)
		}
		seen[key] = true
	}
	return nil
}

// CoresIn returns the IDs of the cores assigned to island isl, in
// ascending order, or nil when the island has none. It counts first
// and fills one exact-size slice, so a call allocates once.
func (s *Spec) CoresIn(isl IslandID) []CoreID {
	n := 0
	for _, id := range s.IslandOf {
		if id == isl {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]CoreID, 0, n)
	for c, id := range s.IslandOf {
		if id == isl {
			out = append(out, CoreID(c))
		}
	}
	return out
}

// CoreByName returns the core with the given name, or false when absent.
func (s *Spec) CoreByName(name string) (Core, bool) {
	for _, c := range s.Cores {
		if c.Name == name {
			return c, true
		}
	}
	return Core{}, false
}

// FlowBetween returns the flow src->dst if present.
func (s *Spec) FlowBetween(src, dst CoreID) (Flow, bool) {
	for _, f := range s.Flows {
		if f.Src == src && f.Dst == dst {
			return f, true
		}
	}
	return Flow{}, false
}

// TotalCoreDynPowerW sums the dynamic power of all cores; the paper's
// "3% of SoC active power" overhead is quoted against this plus the NoC.
func (s *Spec) TotalCoreDynPowerW() float64 {
	var sum float64
	for _, c := range s.Cores {
		sum += c.DynPowerW
	}
	return sum
}

// TotalCoreAreaMM2 sums the area of all cores.
func (s *Spec) TotalCoreAreaMM2() float64 {
	var sum float64
	for _, c := range s.Cores {
		sum += c.AreaMM2
	}
	return sum
}

// AggregateCoreBandwidth returns, per core, the sum of egress and the sum
// of ingress flow bandwidth in bytes/second. The NI<->switch link of a
// core must sustain these, which in turn fixes the minimum NoC frequency
// of the island (Algorithm 1, step 1).
func (s *Spec) AggregateCoreBandwidth() (egress, ingress []float64) {
	egress = make([]float64, len(s.Cores))
	ingress = make([]float64, len(s.Cores))
	for _, f := range s.Flows {
		egress[f.Src] += f.BandwidthBps
		ingress[f.Dst] += f.BandwidthBps
	}
	return egress, ingress
}

// MaxFlowBandwidth returns the largest bandwidth over all flows
// (max_bw in Definition 1). It returns 0 for a flow-less spec.
func (s *Spec) MaxFlowBandwidth() float64 {
	var max float64
	for _, f := range s.Flows {
		if f.BandwidthBps > max {
			max = f.BandwidthBps
		}
	}
	return max
}

// MinLatencyConstraint returns the tightest (smallest non-zero) latency
// constraint over all flows (min_lat in Definition 1). It returns 0 when
// no flow is latency constrained.
func (s *Spec) MinLatencyConstraint() float64 {
	min := 0.0
	for _, f := range s.Flows {
		if f.MaxLatencyCycles > 0 && (min == 0 || f.MaxLatencyCycles < min) { //noclint:ignore floateq 0 is the documented no-constraint sentinel, set only from the zero value
			min = f.MaxLatencyCycles
		}
	}
	return min
}

// Clone returns a deep copy of the spec. Synthesis sweeps mutate island
// assignments; cloning keeps benchmark definitions immutable.
func (s *Spec) Clone() *Spec {
	out := &Spec{
		Name:     s.Name,
		Cores:    append([]Core(nil), s.Cores...),
		Flows:    append([]Flow(nil), s.Flows...),
		Islands:  append([]Island(nil), s.Islands...),
		IslandOf: append([]IslandID(nil), s.IslandOf...),
	}
	return out
}

// ReassignIslands returns a copy of the spec with a new island structure.
// islandOf must have one entry per core; islands must be dense.
func (s *Spec) ReassignIslands(islands []Island, islandOf []IslandID) (*Spec, error) {
	out := s.Clone()
	out.Islands = append([]Island(nil), islands...)
	out.IslandOf = append([]IslandID(nil), islandOf...)
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// MergedSingleIsland returns a copy of the spec with every core in one
// always-on island. This is the island-oblivious baseline configuration
// (the "1 island" reference point of Figs. 2 and 3).
func (s *Spec) MergedSingleIsland() *Spec {
	out := s.Clone()
	out.Islands = []Island{{ID: 0, Name: "chip", VoltageV: 1.0, Shutdownable: false}}
	out.IslandOf = make([]IslandID, len(s.Cores))
	return out
}

// SortFlowsByBandwidth returns the spec's flows ordered by decreasing
// bandwidth, breaking ties by (src, dst) for determinism. Algorithm 1
// step 15 routes flows in this order.
func (s *Spec) SortFlowsByBandwidth() []Flow {
	out := append([]Flow(nil), s.Flows...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].BandwidthBps != out[j].BandwidthBps { //noclint:ignore floateq exact tie-break fixes the paper's step-15 routing order
			return out[i].BandwidthBps > out[j].BandwidthBps
		}
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// ParseClass converts a class name (as produced by CoreClass.String)
// back to the class value.
func ParseClass(name string) (CoreClass, error) {
	for c, n := range coreClassNames {
		if n == name {
			return CoreClass(c), nil
		}
	}
	return 0, fmt.Errorf("soc: unknown core class %q", name)
}
