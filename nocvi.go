// Package nocvi synthesizes application-specific Networks-on-Chip that
// support the shutdown of voltage islands, reproducing Seiculescu,
// Murali, Benini and De Micheli, "NoC Topology Synthesis for Supporting
// Shutdown of Voltage Islands in SoCs" (DAC 2009).
//
// The input is an SoC specification — cores, traffic flows with
// bandwidth and latency constraints, and an assignment of cores to
// voltage islands. The output is a set of valid NoC design points:
// switches per island, an optional never-shut-down intermediate NoC
// island, inter-switch links with bi-synchronous FIFO converters on
// island crossings, and a route for every flow, such that gating any
// shut-downable island never severs traffic between the remaining
// islands. Each design point carries its floorplan, power breakdown and
// zero-load latency, so the power/performance trade-off curve can be
// explored.
//
// Quick start:
//
//	spec := nocvi.BenchmarkD26(nocvi.Logical, 6)
//	res, err := nocvi.Synthesize(spec, nocvi.DefaultLibrary(), nocvi.Options{
//		AllowIntermediate: true,
//	})
//	best := res.Best()
//	fmt.Printf("NoC power: %.1f mW\n", best.NoCPower.DynW()*1e3)
//	fmt.Println(nocvi.TopologyText(best.Top))
//
// The subsystems live in internal packages (soc, vcg, partition, route,
// floorplan, power, sim, ...); this package re-exports the surface a
// downstream user needs.
package nocvi

import (
	"context"
	"io"

	"nocvi/internal/bench"
	"nocvi/internal/cache"
	"nocvi/internal/core"
	"nocvi/internal/deadlock"
	"nocvi/internal/export"
	"nocvi/internal/fault"
	"nocvi/internal/floorplan"
	"nocvi/internal/mesh"
	"nocvi/internal/model"
	"nocvi/internal/netlist"
	"nocvi/internal/power"
	"nocvi/internal/sim"
	"nocvi/internal/soc"
	"nocvi/internal/specio"
	"nocvi/internal/topology"
	"nocvi/internal/verify"
	"nocvi/internal/viplace"
	"nocvi/internal/wormhole"
)

// Specification types (see internal/soc).
type (
	// Spec is a complete synthesis problem: cores, flows, islands.
	Spec = soc.Spec
	// Core is one IP block of the SoC.
	Core = soc.Core
	// Flow is a directed traffic flow with bandwidth and latency
	// constraints.
	Flow = soc.Flow
	// Island is one voltage island.
	Island = soc.Island
	// CoreID and IslandID are dense indices into Spec, both int32.
	CoreID = soc.CoreID
	// IslandID identifies a voltage island within a Spec (an int32).
	IslandID = soc.IslandID
	// FlowID indexes Spec.Flows (an int32); a topology's route names
	// its flow by one.
	FlowID = soc.FlowID
	// CoreClass coarsely classifies a core's function.
	CoreClass = soc.CoreClass
)

// Core classes, used by the logical island partitioner.
const (
	ClassCPU        = soc.ClassCPU
	ClassDSP        = soc.ClassDSP
	ClassCache      = soc.ClassCache
	ClassMemory     = soc.ClassMemory
	ClassMemCtrl    = soc.ClassMemCtrl
	ClassDMA        = soc.ClassDMA
	ClassAccel      = soc.ClassAccel
	ClassPeripheral = soc.ClassPeripheral
	ClassIO         = soc.ClassIO
)

// Technology and synthesis types.
type (
	// Library is the 65nm power/area/delay model library.
	Library = model.Library
	// Options configures the synthesis sweep (Algorithm 1).
	Options = core.Options
	// Result is a synthesis outcome: all valid design points.
	Result = core.Result
	// DesignPoint is one valid synthesized NoC.
	DesignPoint = core.DesignPoint
	// Topology is the synthesized network itself.
	Topology = topology.Topology
	// PowerBreakdown itemizes NoC power.
	PowerBreakdown = power.Breakdown
	// SystemPower aggregates SoC-level power.
	SystemPower = power.System
	// Placement is a floorplanning result.
	Placement = floorplan.Placement
	// SimConfig and SimResult drive the queueing-level latency simulator.
	SimConfig = sim.Config
	// SimResult reports simulated delivery and latency.
	SimResult = sim.Result
	// PartitionMethod selects an island-assignment strategy.
	PartitionMethod = viplace.Method
)

// Island partitioning strategies of the paper's §5.
const (
	// Logical groups cores by functionality.
	Logical = viplace.MethodLogical
	// Communication clusters cores by traffic affinity.
	Communication = viplace.MethodCommunication
	// Spectral clusters cores by recursive spectral bisection of the
	// bandwidth graph (alternative communication-based engine).
	Spectral = viplace.MethodSpectral
)

// DefaultLibrary returns the 65 nm technology library used throughout
// the reproduction. Callers may tweak its exported fields (link width,
// energy coefficients) before synthesis.
func DefaultLibrary() *Library { return model.Default65nm() }

// LibraryForNode returns a preset library for "90nm", "65nm" or "45nm"
// (first-order constant-field scaling from the 65 nm calibration; the
// leakage-density growth toward 45 nm is the trend that motivates
// island shutdown).
func LibraryForNode(node string) (*Library, error) { return model.ByNode(node) }

// Synthesize runs Algorithm 1 on the spec and returns the valid design
// points found. Candidate design points are evaluated across
// Options.Workers goroutines (default: all CPUs); the result is
// identical for every worker count. By default a branch-and-bound layer
// discards candidates that provably cannot beat an already-found point
// in either power or latency — the argmin winners and the Pareto front
// are exactly those of the exhaustive sweep, but dominated interior
// points may be absent from Result.Points (Result.PruneStats reports
// how many). Options.NoPrune restores the exhaustive enumeration.
func Synthesize(spec *Spec, lib *Library, opt Options) (*Result, error) {
	return core.Synthesize(spec, lib, opt)
}

// SynthesizeContext is Synthesize with cancellation and timeout
// support: when ctx is cancelled or its deadline passes, the sweep
// stops and returns the best-so-far partial result — Result.Partial is
// set and Result.StopReason says why — rather than an error. Sweeps
// that run to completion are unaffected.
func SynthesizeContext(ctx context.Context, spec *Spec, lib *Library, opt Options) (*Result, error) {
	return core.SynthesizeContext(ctx, spec, lib, opt)
}

// CandidateError records a candidate design point whose evaluation
// panicked; the sweep recovers it, keeps going, and reports it on
// Result.Errors.
type CandidateError = core.CandidateError

// StopReason values. A Result carries StopComplete, StopCanceled or
// StopDeadline; StopTruncated marks a streaming sweep stopped at its
// limit.
const (
	StopComplete  = core.StopComplete
	StopTruncated = core.StopTruncated
	StopCanceled  = core.StopCanceled
	StopDeadline  = core.StopDeadline
)

// ErrInfeasible marks synthesis failures that Options.Relax's
// degradation ladder may retry (errors.Is-matchable).
var ErrInfeasible = core.ErrInfeasible

// PartitionIslands assigns the spec's cores to n voltage islands with
// the chosen strategy (the assignment is an input to Synthesize, as in
// the paper).
func PartitionIslands(spec *Spec, method PartitionMethod, n int) (*Spec, error) {
	return viplace.Partition(spec, method, n)
}

// IntraIslandBandwidth reports the fraction of traffic that stays
// inside islands under the spec's current assignment.
func IntraIslandBandwidth(spec *Spec) float64 {
	return viplace.IntraIslandBandwidth(spec)
}

// Simulate runs the deterministic queueing-level latency simulator on
// a routed topology: per-island clocks in continuous time, unbounded
// buffers.
func Simulate(top *Topology, cfg SimConfig) (*SimResult, error) {
	return sim.Run(top, cfg)
}

// VerifyShutdown proves the topology safe with the given islands gated:
// every marked island is shut-downable and no route between two
// powered endpoints enters a gated switch, so all remaining traffic
// keeps its route (topology.ValidateShutdownSafeMask, the static proof
// behind the synthesis-time guarantee).
func VerifyShutdown(top *Topology, off []bool) error {
	return top.ValidateShutdownSafeMask(off)
}

// NoCPower computes the power breakdown of a routed topology with every
// island on; ShutdownPower applies an island gating mask.
func NoCPower(top *Topology) PowerBreakdown { return power.NoC(top) }

// ShutdownPower computes full-SoC power with the marked islands gated.
func ShutdownPower(top *Topology, off []bool) SystemPower {
	return power.SystemWithShutdown(top, off)
}

// ShutdownSavings evaluates a gating mask: system power before/after
// and the fractional saving.
func ShutdownSavings(top *Topology, name string, off []bool) (onW, offW, frac float64, err error) {
	return power.Savings(top, power.Scenario{Name: name, Off: off})
}

// Schedule models a duty cycle over shutdown scenarios (e.g. 5% active,
// 35% playback, 60% standby).
type (
	Schedule      = power.Schedule
	ScheduleEntry = power.ScheduleEntry
	// PowerScenario names a set of islands to gate.
	PowerScenario = power.Scenario
)

// ScheduleSavings integrates system power over a duty-cycle schedule and
// reports the energy recovered versus never gating anything — the
// quantity the paper weighs the ~3% active NoC overhead against.
func ScheduleSavings(top *Topology, s Schedule) (alwaysOnW, scheduledW, frac float64, err error) {
	return power.ScheduleSavings(top, s)
}

// ParetoPoint is a design point projected on two objectives: X is NoC
// dynamic power (W), Y mean zero-load latency (cycles), and Index the
// point's position in Result.Points.
type ParetoPoint struct {
	Index int
	X, Y  float64
}

// ParetoFront projects the result's design points onto (NoC dynamic
// power, mean zero-load latency) and returns the non-dominated front,
// sorted by ascending power; points with equal coordinates collapse to
// the lowest index. The front is core.ParetoFront's, the one the
// streaming sweep reports.
func ParetoFront(res *Result) []ParetoPoint {
	pts := make([]core.SweepPoint, len(res.Points))
	for i := range res.Points {
		pts[i] = core.SweepPoint{
			Index:         uint64(i),
			PowerW:        res.Points[i].NoCPower.DynW(),
			LatencyCycles: res.Points[i].MeanLatencyCycles,
		}
	}
	front := core.ParetoFront(pts)
	out := make([]ParetoPoint, len(front))
	for i, p := range front {
		out[i] = ParetoPoint{Index: int(p.Index), X: p.PowerW, Y: p.LatencyCycles}
	}
	return out
}

// Wormhole simulation: the flit-level engine with finite buffers and
// credit flow control, the dynamic counterpart of AnalyzeDeadlock.
type (
	WormholeConfig = wormhole.Config
	WormholeResult = wormhole.Result
)

// SimulateWormhole runs the flit-accurate wormhole engine: finite input
// buffers, credit-based backpressure, round-robin allocation. It
// reports actual deadlock (a stable circular wait) if the routes permit
// one — synthesized topologies never do.
func SimulateWormhole(top *Topology, cfg WormholeConfig) (*WormholeResult, error) {
	return wormhole.Run(top, cfg)
}

// FaultReport is the outcome of a single-link-failure sweep: for every
// link, whether the surviving links could re-carry all affected flows
// under the same constraints.
type FaultReport = fault.Report

// AnalyzeFaults sweeps every single-link failure of a synthesized
// topology, quantifying the paper's argument that run-time rerouting
// cannot guarantee connectivity.
func AnalyzeFaults(top *Topology) (*FaultReport, error) { return fault.Analyze(top) }

// Power-state fault campaign (see internal/fault): enumerate island
// power states, check the paper's shutdown invariant in each, and
// compose single-link failures under each state.
type (
	// Campaign is the aggregate report of a power-state fault campaign.
	Campaign = fault.Campaign
	// CampaignOptions bounds and configures a campaign run.
	CampaignOptions = fault.CampaignOptions
	// StateOutcome is the campaign result for one island power state.
	StateOutcome = fault.StateOutcome
)

// RunCampaign verifies the paper's design-time guarantee exhaustively:
// for every enumerated power state (all subsets of shut-downable
// islands, deterministically sampled above opt.MaxStates) it checks
// that surviving traffic keeps its committed routes, then composes
// single-link failures under that state and re-routes affected flows
// over surviving links. The report is byte-identical across runs and
// worker counts.
func RunCampaign(top *Topology, opt CampaignOptions) (*Campaign, error) {
	return fault.RunCampaign(top, opt)
}

// Content-addressed result cache (see internal/cache): because the
// engine is bit-deterministic, results can be cached by a canonical
// digest of their inputs and served back byte-identical to a fresh run.
type (
	// Cache is an on-disk content-addressed store of synthesis results
	// and fault-campaign reports.
	Cache = cache.Store
	// CacheOptions configures OpenCache.
	CacheOptions = cache.StoreOptions
	// CacheStats reports a run's cache interaction on Result.CacheStats.
	CacheStats = core.CacheStats
	// PruneStats reports what the branch-and-bound layer did on
	// Result.PruneStats and SweepResult.PruneStats.
	PruneStats = core.PruneStats
)

// OpenCache opens (creating if needed) a result cache rooted at dir.
func OpenCache(dir string, opt CacheOptions) (*Cache, error) { return cache.Open(dir, opt) }

// SynthesizeCached is SynthesizeContext behind a result cache: a
// repeated run is served from the store byte-identical to a fresh one,
// and any other run (an edited spec or changed options) is a miss that
// synthesizes in full and publishes its result. A nil cache is a
// transparent pass-through.
func SynthesizeCached(ctx context.Context, s *Cache, spec *Spec, lib *Library, opt Options) (*Result, error) {
	return cache.Synthesize(ctx, s, spec, lib, opt)
}

// RunCampaignCached is RunCampaign behind a result cache, keyed by the
// content digest of the routed topology and the campaign options.
func RunCampaignCached(s *Cache, top *Topology, opt CampaignOptions) (*Campaign, error) {
	return cache.RunCampaign(s, top, opt)
}

// SignoffReport aggregates the full design-rule suite: structural
// validity, deadlock analysis, the shutdown matrix, capacity headroom,
// wire timing, and the power summary.
type SignoffReport = verify.Report

// Signoff runs every design-rule check over a synthesized design point
// and returns the structured report (see SignoffReport.OK and .Format).
func Signoff(dp *DesignPoint) *SignoffReport { return verify.Run(dp.Top, dp.Placement) }

// DeadlockReport is the outcome of a channel-dependency-graph analysis.
type DeadlockReport = deadlock.Report

// AnalyzeDeadlock builds the channel dependency graph of the topology's
// routes and reports whether a circular wait is possible. Every design
// point returned by Synthesize has already passed this check.
func AnalyzeDeadlock(top *Topology) *DeadlockReport { return deadlock.Analyze(top) }

// TopologyDOT renders a topology as a Graphviz digraph (Fig. 4 style).
func TopologyDOT(top *Topology) string { return export.TopologyDOT(top) }

// TopologyText renders a compact ASCII topology summary.
func TopologyText(top *Topology) string { return export.TopologyText(top) }

// FloorplanSVG renders a placement as SVG (Fig. 5 style).
func FloorplanSVG(top *Topology, p *Placement) string { return export.FloorplanSVG(top, p) }

// FloorplanText renders a placement as an ASCII sketch.
func FloorplanText(top *Topology, p *Placement, cols int) string {
	return export.FloorplanText(top, p, cols)
}

// NetlistConfig tunes the generated Verilog (the hop field width of the
// source routes).
type NetlistConfig = netlist.Config

// GenerateVerilog emits a self-contained structural Verilog netlist of
// the synthesized NoC: one NI per core, the switches, one bi-synchronous
// FIFO per island-crossing link, and the source-route tables — the
// hand-off to a physical design flow.
func GenerateVerilog(top *Topology, cfg NetlistConfig) (string, error) {
	return netlist.Generate(top, cfg)
}

// UseCase is one traffic mode of a multi-mode SoC.
type UseCase = soc.UseCase

// MergeUseCases builds the worst-case spec over several traffic modes
// (union of flows, max bandwidth, tightest latency per pair); the NoC
// synthesized for it serves every mode.
func MergeUseCases(base *Spec, cases ...UseCase) (*Spec, error) {
	return soc.MergeUseCases(base, cases...)
}

// IdleIslands returns the shutdown mask a mode admits: shutdownable
// islands none of whose cores participate in the mode's traffic.
func IdleIslands(spec *Spec, mode UseCase) []bool { return soc.IdleIslands(spec, mode) }

// ModePower evaluates full-SoC power in one traffic mode with the given
// islands gated (the topology must cover the mode's flows).
func ModePower(top *Topology, mode UseCase, off []bool) (SystemPower, error) {
	return power.SystemForMode(top, mode, off)
}

// BenchmarkD26UseCases returns the D26 cores plus its operating modes
// (kitchen-sink, video call, music with the screen off).
func BenchmarkD26UseCases() (*Spec, []UseCase) { return bench.D26UseCases() }

// LoadSpec reads a JSON SoC specification (human units: MB/s, mW, MHz;
// flows reference cores by name) from a file.
func LoadSpec(path string) (*Spec, error) { return specio.LoadSpec(path) }

// SaveSpec writes a spec as JSON — useful for dumping a bundled
// benchmark as a template for custom designs.
func SaveSpec(path string, s *Spec) error { return specio.SaveSpec(path, s) }

// WriteTopologyJSON serializes a synthesized topology for downstream
// tooling (floorplan viewers, RTL generators, ...).
func WriteTopologyJSON(w io.Writer, top *Topology) error {
	return specio.WriteTopology(w, top)
}

// ReadTopologyJSON reconstructs and validates a topology written by
// WriteTopologyJSON against its spec — externally edited designs pass
// through the same rule set the synthesis engine enforces.
func ReadTopologyJSON(r io.Reader, spec *Spec, lib *Library) (*Topology, error) {
	return specio.ReadTopology(r, spec, lib)
}

// Benchmarks lists the bundled SoC benchmark suite.
func Benchmarks() []string { return bench.Names() }

// Benchmark returns a suite SoC with its default island assignment.
func Benchmark(name string) (*Spec, error) { return bench.Islanded(name) }

// BenchmarkFlat returns a suite SoC with all cores in one island.
func BenchmarkFlat(name string) (*Spec, error) { return bench.Flat(name) }

// BenchmarkD26 returns the paper's 26-core mobile/multimedia case study
// partitioned into n islands with the chosen strategy.
func BenchmarkD26(method PartitionMethod, n int) (*Spec, error) {
	return bench.D26Islands(method, n)
}

// ExampleSoC returns the small 3-island teaching SoC (Fig. 1 style).
func ExampleSoC() *Spec { return bench.Example() }

// RefinePlacement re-floorplans a design point with the annealing
// placement optimizer and refreshes its wire-dependent metrics (link
// lengths, NoC power, wire-delay violations).
func RefinePlacement(dp *DesignPoint, iters int) error {
	return dp.RefinePlacement(iters)
}

// PacketTrace is a time-ordered log of delivered packets.
type PacketTrace = sim.Trace

// SimulateTraced runs the simulator and records every delivered packet.
func SimulateTraced(top *Topology, cfg SimConfig) (*SimResult, *PacketTrace, error) {
	return sim.RunTraced(top, cfg)
}

// WriteTraceCSV exports a trace with core names resolved; ReadTraceCSV
// parses it back.
func WriteTraceCSV(w io.Writer, tr *PacketTrace, spec *Spec) error {
	return tr.WriteCSV(w, spec)
}

// ReadTraceCSV parses a trace produced by WriteTraceCSV.
func ReadTraceCSV(r io.Reader, spec *Spec) (*PacketTrace, error) {
	return sim.ReadCSV(r, spec)
}

// ReplayTrace re-injects a recorded trace on a topology (same or
// different) for apples-to-apples comparison under identical offered
// traffic.
func ReplayTrace(top *Topology, tr *PacketTrace) (*SimResult, error) {
	return sim.Replay(top, tr)
}

// MeshOptions and MeshResult expose the regular-2D-mesh mapping baseline
// (the [9]-[11] approach the paper argues against): cores are mapped to
// tiles minimizing bandwidth×hops and flows routed XY. The result
// reports how many flows island shutdown would sever — the problem
// custom synthesis eliminates.
type (
	MeshOptions = mesh.Options
	MeshResult  = mesh.Result
)

// SynthesizeMesh builds the mesh baseline for a spec.
func SynthesizeMesh(spec *Spec, lib *Library, opt MeshOptions) (*MeshResult, error) {
	return mesh.Synthesize(spec, lib, opt)
}
