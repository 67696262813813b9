// Package experiments regenerates every figure and table of the paper's
// evaluation (§5) from the reproduction's own synthesis flow:
//
//	Fig. 2 — island count vs NoC dynamic power, logical vs
//	         communication-based partitioning (Curves)
//	Fig. 3 — island count vs average zero-load latency (Curves)
//	Fig. 4 — the synthesized topology of the 6-VI logical design (Fig4)
//	Fig. 5 — its floorplan (Fig5)
//	in-text — NoC power / SoC area overhead of shutdown support across
//	         the benchmark suite, ~3% / ~0.5% on average (Tab1)
//	in-text — leakage/total power savings from island shutdown, the
//	         ≥25% headroom cited from [6] (Tab2)
//
// plus the ablations DESIGN.md commits to: the α weight, forbidding the
// intermediate NoC island, and the link data width.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"nocvi/internal/bench"
	"nocvi/internal/cache"
	"nocvi/internal/core"
	"nocvi/internal/export"
	"nocvi/internal/fault"
	"nocvi/internal/mesh"
	"nocvi/internal/model"
	"nocvi/internal/power"
	"nocvi/internal/sim"
	"nocvi/internal/soc"
	"nocvi/internal/viplace"
	"nocvi/internal/wormhole"
)

// IslandCounts is the x-axis of Figs. 2 and 3 (1..7 islands and the
// one-core-per-island extreme, 26 for D26).
var IslandCounts = []int{1, 2, 3, 4, 5, 6, 7, 26}

// Workers sets Options.Workers for every experiment synthesis run
// (0 = core's default, all CPUs; 1 = serial). Results are identical for
// any value — only wall-clock time changes. Set once before running
// experiments; cmd/nocbench wires its -workers flag here.
var Workers int

// Cache, when non-nil, routes every experiment synthesis and campaign
// through the content-addressed result cache: re-running a figure or
// table serves its synthesis runs from disk, byte-identical to fresh
// ones. cmd/nocbench wires its -cache-dir flag here. Set once before
// running experiments.
var Cache *cache.Store

// Survive sets Options.Survivability for every experiment synthesis
// run: each flow is synthesized with this many link-disjoint backup
// routes. The SurviveSweep experiment overrides it per point with its
// own k axis. cmd/nocbench wires its -survive flag here.
var Survive int

// synthesize is the single synthesis entry point of every experiment;
// with a nil Cache it is core.Synthesize.
func synthesize(spec *soc.Spec, lib *model.Library, opt core.Options) (*core.Result, error) {
	return cache.Synthesize(context.Background(), Cache, spec, lib, opt)
}

// defaultOpts are the synthesis options shared by all experiments.
func defaultOpts() core.Options {
	return core.Options{
		AllowIntermediate:       true,
		MaxIntermediateSwitches: 3,
		Workers:                 Workers,
		Survivability:           Survive,
	}
}

// CurvePoint is one x-position of Figs. 2 and 3 for one partitioning
// method.
type CurvePoint struct {
	Islands int
	Method  viplace.Method

	// PowerMW is the NoC dynamic power of the selected design point
	// (Fig. 2 y-axis).
	PowerMW float64

	// LatencyCycles is the mean zero-load latency (Fig. 3 y-axis);
	// SimLatencyCycles is the simulator's confirmation of it.
	LatencyCycles    float64
	SimLatencyCycles float64

	// Switches/Links document the selected design point.
	Switches, Links int
}

// Curves sweeps the island count for both partitioning strategies on
// D26 and reports the Fig. 2 / Fig. 3 series. For each point the
// minimum-power valid design is selected, as the paper's trade-off
// exploration does.
func Curves(lib *model.Library, counts []int) ([]CurvePoint, error) {
	if counts == nil {
		counts = IslandCounts
	}
	var out []CurvePoint
	for _, method := range []viplace.Method{viplace.MethodCommunication, viplace.MethodLogical} {
		for _, n := range counts {
			spec, err := bench.D26Islands(method, n)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s/%d: %w", method, n, err)
			}
			cp, err := synthPoint(spec, lib, method, n)
			if err != nil {
				return nil, err
			}
			out = append(out, *cp)
		}
	}
	return out, nil
}

func synthPoint(spec *soc.Spec, lib *model.Library, method viplace.Method, n int) (*CurvePoint, error) {
	res, err := synthesize(spec, lib, defaultOpts())
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%d islands: %w", method, n, err)
	}
	best := res.Best()
	simRes, err := sim.Run(best.Top, sim.Config{SinglePacket: true})
	if err != nil {
		return nil, err
	}
	return &CurvePoint{
		Islands:          n,
		Method:           method,
		PowerMW:          best.NoCPower.DynW() * 1e3,
		LatencyCycles:    best.MeanLatencyCycles,
		SimLatencyCycles: simRes.MeanFlowLatencyCycles,
		Switches:         best.Top.TotalSwitchCount(),
		Links:            len(best.Top.Links),
	}, nil
}

// FormatCurves renders the two figures as aligned text tables.
func FormatCurves(points []CurvePoint) string {
	byN := map[int]map[viplace.Method]CurvePoint{}
	var ns []int
	for _, p := range points {
		if byN[p.Islands] == nil {
			byN[p.Islands] = map[viplace.Method]CurvePoint{}
			ns = append(ns, p.Islands)
		}
		byN[p.Islands][p.Method] = p
	}
	var b strings.Builder
	b.WriteString("Fig.2 — island count vs NoC dynamic power (mW)\n")
	b.WriteString("islands   comm-based     logical\n")
	for _, n := range ns {
		c, l := byN[n][viplace.MethodCommunication], byN[n][viplace.MethodLogical]
		fmt.Fprintf(&b, "%7d   %10.2f  %10.2f\n", n, c.PowerMW, l.PowerMW)
	}
	b.WriteString("\nFig.3 — island count vs average zero-load latency (cycles)\n")
	b.WriteString("islands   comm-based     logical   (sim: comm / logical)\n")
	for _, n := range ns {
		c, l := byN[n][viplace.MethodCommunication], byN[n][viplace.MethodLogical]
		fmt.Fprintf(&b, "%7d   %10.2f  %10.2f   (%.2f / %.2f)\n",
			n, c.LatencyCycles, l.LatencyCycles, c.SimLatencyCycles, l.SimLatencyCycles)
	}
	return b.String()
}

// Fig4 synthesizes the 6-VI logical-partitioning design of D26 and
// returns its topology in DOT and text form.
func Fig4(lib *model.Library) (dot, txt string, err error) {
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		return "", "", err
	}
	res, err := synthesize(spec, lib, defaultOpts())
	if err != nil {
		return "", "", err
	}
	best := res.Best()
	return export.TopologyDOT(best.Top), export.TopologyText(best.Top), nil
}

// Fig5 floorplans the same design and returns SVG and ASCII renderings.
func Fig5(lib *model.Library) (svg, txt string, err error) {
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		return "", "", err
	}
	res, err := synthesize(spec, lib, defaultOpts())
	if err != nil {
		return "", "", err
	}
	best := res.Best()
	return export.FloorplanSVG(best.Top, best.Placement),
		export.FloorplanText(best.Top, best.Placement, 72), nil
}

// OverheadRow is one benchmark of the Tab1 overhead study.
type OverheadRow struct {
	Bench   string
	Islands int

	// NoCDynMW is the VI-aware NoC's dynamic power; BaselineDynMW the
	// island-oblivious ([15]-style) NoC's on the same SoC.
	NoCDynMW      float64
	BaselineDynMW float64

	// PowerOverheadPct is the increase relative to total SoC active
	// power (the paper's "3%" metric).
	PowerOverheadPct float64

	// NoCAreaMM2 / BaselineAreaMM2 and the SoC-relative area overhead
	// (the paper's "0.5%" metric).
	NoCAreaMM2      float64
	BaselineAreaMM2 float64
	AreaOverheadPct float64
}

// Tab1 computes the shutdown-support overhead across the benchmark
// suite: each SoC is synthesized twice — with its voltage islands, and
// island-oblivious (all cores merged, the [15] baseline) — and the NoC
// power/area deltas are expressed relative to the whole SoC.
func Tab1(lib *model.Library) ([]OverheadRow, error) {
	var rows []OverheadRow
	for _, e := range bench.Entries() {
		spec, err := bench.Islanded(e.Name)
		if err != nil {
			return nil, err
		}
		vi, err := synthesize(spec, lib, defaultOpts())
		if err != nil {
			return nil, fmt.Errorf("experiments: %s (VI): %w", e.Name, err)
		}
		baseSpec := spec.MergedSingleIsland()
		base, err := synthesize(baseSpec, lib, defaultOpts())
		if err != nil {
			return nil, fmt.Errorf("experiments: %s (baseline): %w", e.Name, err)
		}
		bv, bb := vi.Best(), base.Best()
		coreDyn := spec.TotalCoreDynPowerW()
		coreArea := spec.TotalCoreAreaMM2()
		socDyn := coreDyn + bb.NoCPower.DynW()
		socArea := coreArea + bb.NoCAreaMM2
		rows = append(rows, OverheadRow{
			Bench:            e.Name,
			Islands:          len(spec.Islands),
			NoCDynMW:         bv.NoCPower.DynW() * 1e3,
			BaselineDynMW:    bb.NoCPower.DynW() * 1e3,
			PowerOverheadPct: (bv.NoCPower.DynW() - bb.NoCPower.DynW()) / socDyn * 100,
			NoCAreaMM2:       bv.NoCAreaMM2,
			BaselineAreaMM2:  bb.NoCAreaMM2,
			AreaOverheadPct:  (bv.NoCAreaMM2 - bb.NoCAreaMM2) / socArea * 100,
		})
	}
	return rows, nil
}

// Tab1Averages returns the suite-average power and area overheads.
func Tab1Averages(rows []OverheadRow) (powerPct, areaPct float64) {
	if len(rows) == 0 {
		return 0, 0
	}
	for _, r := range rows {
		powerPct += r.PowerOverheadPct
		areaPct += r.AreaOverheadPct
	}
	n := float64(len(rows))
	return powerPct / n, areaPct / n
}

// FormatTab1 renders the overhead table.
func FormatTab1(rows []OverheadRow) string {
	var b strings.Builder
	b.WriteString("Tab.1 — overhead of shutdown support (VI-aware NoC vs island-oblivious baseline)\n")
	b.WriteString("benchmark        isl   NoC mW   base mW   dPower%   NoC mm2   base mm2   dArea%\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %4d %8.2f %9.2f %9.2f %9.3f %10.3f %8.3f\n",
			r.Bench, r.Islands, r.NoCDynMW, r.BaselineDynMW, r.PowerOverheadPct,
			r.NoCAreaMM2, r.BaselineAreaMM2, r.AreaOverheadPct)
	}
	p, a := Tab1Averages(rows)
	fmt.Fprintf(&b, "%-15s %4s %8s %9s %9.2f %9s %10s %8.3f\n", "average", "", "", "", p, "", "", a)
	b.WriteString("paper reports:  ~3% SoC dynamic power, <0.5% SoC area on average\n")
	return b.String()
}

// ShutdownRow is one scenario of the Tab2 savings study.
type ShutdownRow struct {
	Scenario   string
	GatedCores int
	OnMW       float64
	OffMW      float64
	SavingsPct float64
	// Verified is true when the simulator confirmed full delivery of
	// the remaining traffic under the mask.
	Verified bool
}

// Tab2 evaluates island-shutdown scenarios on the 6-VI logical D26
// design: each shutdownable island alone, then standby (all of them).
// Savings are total system power (the paper argues shutdown recovers
// >=25% of overall system power, dwarfing the ~3% NoC overhead).
func Tab2(lib *model.Library) ([]ShutdownRow, error) {
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		return nil, err
	}
	res, err := synthesize(spec, lib, defaultOpts())
	if err != nil {
		return nil, err
	}
	top := res.Best().Top

	var scenarios []power.Scenario
	for i, isl := range spec.Islands {
		if !isl.Shutdownable {
			continue
		}
		off := make([]bool, len(spec.Islands))
		off[i] = true
		scenarios = append(scenarios, power.Scenario{Name: isl.Name + " off", Off: off})
	}
	standby := make([]bool, len(spec.Islands))
	for i, isl := range spec.Islands {
		standby[i] = isl.Shutdownable
	}
	scenarios = append(scenarios, power.Scenario{Name: "standby (all shutdownable off)", Off: standby})

	var rows []ShutdownRow
	for _, sc := range scenarios {
		onW, offW, frac, err := power.Savings(top, sc)
		if err != nil {
			return nil, err
		}
		gated := 0
		for _, isl := range spec.IslandOf {
			if sc.Off[isl] {
				gated++
			}
		}
		verified := top.ValidateShutdownSafeMask(sc.Off) == nil
		rows = append(rows, ShutdownRow{
			Scenario:   sc.Name,
			GatedCores: gated,
			OnMW:       onW * 1e3,
			OffMW:      offW * 1e3,
			SavingsPct: frac * 100,
			Verified:   verified,
		})
	}
	return rows, nil
}

// FormatTab2 renders the shutdown-savings table.
func FormatTab2(rows []ShutdownRow) string {
	var b strings.Builder
	b.WriteString("Tab.2 — island shutdown scenarios on D26 (6 VIs, logical partitioning)\n")
	b.WriteString("scenario                            cores   on mW    off mW   savings   delivery\n")
	for _, r := range rows {
		v := "FAILED"
		if r.Verified {
			v = "ok"
		}
		fmt.Fprintf(&b, "%-35s %5d %8.1f %8.1f %8.1f%%   %s\n",
			r.Scenario, r.GatedCores, r.OnMW, r.OffMW, r.SavingsPct, v)
	}
	b.WriteString("paper cites [6]: shutdown can recover 25% or more of overall system power\n")
	return b.String()
}

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Setting string
	PowerMW float64
	Latency float64
	Links   int
	Err     string
}

// AblAlpha sweeps the VCG weight α. The sweep runs on the single-island
// configuration, where every core competes for the same switches and the
// min-cut objective (bandwidth-heavy at α=1, latency-heavy at α→0)
// actually changes which cores share a switch.
func AblAlpha(lib *model.Library) ([]AblationRow, error) {
	spec, err := bench.D26Islands(viplace.MethodLogical, 1)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, a := range []float64{0.1, 0.3, 0.5, 0.6, 0.8, 1.0} {
		opt := defaultOpts()
		opt.Alpha = a
		rows = append(rows, ablationRow(spec, lib, opt, fmt.Sprintf("alpha=%.1f", a)))
	}
	return rows, nil
}

// AblMid compares allowing vs forbidding the intermediate NoC island on
// the per-core-island extreme (26 VIs), where indirect switches matter
// most.
func AblMid(lib *model.Library) ([]AblationRow, error) {
	spec, err := bench.D26Islands(viplace.MethodLogical, 26)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, allow := range []bool{false, true} {
		opt := defaultOpts()
		opt.AllowIntermediate = allow
		name := "no intermediate VI"
		if allow {
			name = "intermediate VI allowed"
		}
		rows = append(rows, ablationRow(spec, lib, opt, name))
	}
	return rows, nil
}

// AblWidth sweeps the link data width on the 6-VI logical D26 ("we fix
// the data width of the NoC links to a user-defined value ... it could
// be varied in a range and more design points could be explored").
func AblWidth(lib *model.Library) ([]AblationRow, error) {
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, w := range []int{16, 32, 64, 128} {
		l := *lib
		l.LinkWidthBits = w
		rows = append(rows, ablationRow(spec, &l, defaultOpts(), fmt.Sprintf("width=%d", w)))
	}
	return rows, nil
}

// ablationRow synthesizes spec under opt and reports the best point
// under setting, or the synthesis error as an infeasible row.
func ablationRow(spec *soc.Spec, lib *model.Library, opt core.Options, setting string) AblationRow {
	res, err := synthesize(spec, lib, opt)
	if err != nil {
		return AblationRow{Setting: setting, Err: err.Error()}
	}
	best := res.Best()
	return AblationRow{
		Setting: setting,
		PowerMW: best.NoCPower.DynW() * 1e3,
		Latency: best.MeanLatencyCycles,
		Links:   len(best.Top.Links),
	}
}

// FormatAblation renders an ablation sweep.
func FormatAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	b.WriteString("setting                      NoC mW   latency   links\n")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%-26s  infeasible: %s\n", r.Setting, r.Err)
			continue
		}
		fmt.Fprintf(&b, "%-26s %8.2f %9.2f %7d\n", r.Setting, r.PowerMW, r.Latency, r.Links)
	}
	return b.String()
}

// LoadRow is one point of the saturation sweep: the synthesized D26
// network driven at a multiple of its specified bandwidths.
type LoadRow struct {
	Scale          float64
	MeanLatencyNs  float64
	MaxLatencyNs   float64
	ThroughputMBps float64
}

// LoadSweep drives the 6-VI logical D26 design at increasing injection
// rates. Latency must stay near zero-load up to the design point
// (scale 1.0 — the network was provisioned for exactly these bandwidths)
// and climb beyond it; throughput saturates. This extends the paper's
// zero-load latency evaluation with a dynamic view.
func LoadSweep(lib *model.Library, scales []float64) ([]LoadRow, error) {
	if scales == nil {
		scales = []float64{0.25, 0.5, 1.0, 2.0, 4.0, 8.0}
	}
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		return nil, err
	}
	res, err := synthesize(spec, lib, defaultOpts())
	if err != nil {
		return nil, err
	}
	top := res.Best().Top
	var rows []LoadRow
	for _, sc := range scales {
		r, err := sim.Run(top, sim.Config{DurationNs: 50_000, InjectionScale: sc})
		if err != nil {
			return nil, err
		}
		rows = append(rows, LoadRow{
			Scale:          sc,
			MeanLatencyNs:  r.MeanLatencyNs,
			MaxLatencyNs:   r.MaxLatencyNs,
			ThroughputMBps: r.ThroughputBps / 1e6,
		})
	}
	return rows, nil
}

// FormatLoadSweep renders the saturation sweep.
func FormatLoadSweep(rows []LoadRow) string {
	var b strings.Builder
	b.WriteString("Load sweep — D26 (6 logical VIs) under scaled injection\n")
	b.WriteString("scale   mean ns    max ns   delivered MB/s\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%5.2f %9.1f %9.1f %14.0f\n",
			r.Scale, r.MeanLatencyNs, r.MaxLatencyNs, r.ThroughputMBps)
	}
	return b.String()
}

// AblPartitioner compares the greedy agglomerative and spectral
// communication-based island partitioners on D26 across island counts:
// same synthesis engine, different island assignments.
func AblPartitioner(lib *model.Library) ([]AblationRow, error) {
	var rows []AblationRow
	for _, method := range []viplace.Method{viplace.MethodCommunication, viplace.MethodSpectral} {
		for _, n := range []int{3, 5, 7} {
			spec, err := bench.D26Islands(method, n)
			if err != nil {
				return nil, err
			}
			row := ablationRow(spec, lib, defaultOpts(), fmt.Sprintf("%s n=%d (intra %.0f%%)",
				method, n, viplace.IntraIslandBandwidth(spec)*100))
			if row.Err != "" {
				row.Setting = fmt.Sprintf("%s n=%d", method, n) // infeasible rows omit the intra share
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// AblBuffer sweeps the input buffer depth in the flit-level wormhole
// engine on the 6-VI logical D26 design: deeper buffers absorb more
// contention (lower latency, faster drain) at quadratic silicon cost —
// the sizing knob the ×pipes flow leaves to the designer.
func AblBuffer(lib *model.Library) ([]AblationRow, error) {
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		return nil, err
	}
	res, err := synthesize(spec, lib, defaultOpts())
	if err != nil {
		return nil, err
	}
	top := res.Best().Top
	var rows []AblationRow
	for _, depth := range []int{1, 2, 4, 8} {
		wres, err := wormhole.Run(top, wormhole.Config{
			BufferFlits: depth, PacketsPerFlow: 8, InjectionGapCycles: 4,
		})
		if err != nil {
			return nil, err
		}
		setting := fmt.Sprintf("buffers=%d (drain %d cy)", depth, wres.Cycles)
		if wres.Deadlocked {
			rows = append(rows, AblationRow{Setting: setting, Err: "deadlocked"})
			continue
		}
		rows = append(rows, AblationRow{
			Setting: setting,
			PowerMW: 0, // not a power experiment
			Latency: wres.MeanLatencyCycles,
			Links:   wres.Delivered,
		})
	}
	return rows, nil
}

// AblDVS compares nominal-supply NoC domains against AutoVoltage (each
// island's NoC runs at the lowest supply meeting its clock) on the 6-VI
// logical D26 — the voltage-island benefit applied to the interconnect
// itself.
func AblDVS(lib *model.Library) ([]AblationRow, error) {
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, auto := range []bool{false, true} {
		opt := defaultOpts()
		opt.AutoVoltage = auto
		name := "nominal supply (1.0 V everywhere)"
		if auto {
			name = "DVS (supply scaled per island clock)"
		}
		rows = append(rows, ablationRow(spec, lib, opt, name))
	}
	return rows, nil
}

// ModeRow is one operating mode of the Tab3 multi-use-case study.
type ModeRow struct {
	Mode        string
	Flows       int
	IdleIslands int
	NoCDynMW    float64
	SystemMW    float64
	Verified    bool
}

// Tab3 synthesizes one NoC for the union of D26's operating modes and
// evaluates each mode on it with its idle islands power gated — the
// run-time payoff of shutdown support.
func Tab3(lib *model.Library) ([]ModeRow, error) {
	base, cases := bench.D26UseCases()
	merged, err := soc.MergeUseCases(base, cases...)
	if err != nil {
		return nil, err
	}
	spec, err := viplace.Partition(merged, viplace.MethodLogical, 6)
	if err != nil {
		return nil, err
	}
	res, err := synthesize(spec, lib, defaultOpts())
	if err != nil {
		return nil, err
	}
	top := res.Best().Top
	var rows []ModeRow
	for _, uc := range cases {
		off := soc.IdleIslands(spec, uc)
		idle := 0
		for _, o := range off {
			if o {
				idle++
			}
		}
		sp, err := power.SystemForMode(top, uc, off)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ModeRow{
			Mode:        uc.Name,
			Flows:       len(uc.Flows),
			IdleIslands: idle,
			NoCDynMW:    sp.NoC.DynW() * 1e3,
			SystemMW:    sp.TotalW() * 1e3,
			Verified:    top.ValidateShutdownSafeMask(off) == nil,
		})
	}
	return rows, nil
}

// FormatTab3 renders the per-mode table.
func FormatTab3(rows []ModeRow) string {
	var b strings.Builder
	b.WriteString("Tab.3 — one NoC, many modes: D26 synthesized for the union of its use cases\n")
	b.WriteString("mode                 flows   idle islands   NoC dyn mW   system mW   delivery\n")
	for _, r := range rows {
		v := "FAILED"
		if r.Verified {
			v = "ok"
		}
		fmt.Fprintf(&b, "%-20s %5d %14d %12.2f %11.0f   %s\n",
			r.Mode, r.Flows, r.IdleIslands, r.NoCDynMW, r.SystemMW, v)
	}
	return b.String()
}

// CmpRow compares custom synthesis against the regular-mesh mapping
// baseline.
type CmpRow struct {
	Design             string
	NoCDynMW           float64
	LatencyCycles      float64
	LatencyViolations  int
	ShutdownViolations int
	Switches, Links    int
}

// CmpMesh runs the paper's implicit comparison: its custom synthesis
// versus mapping the same SoC onto a regular 2D mesh ([9]-[11]). The
// mesh is island-oblivious, so a fraction of its routes would be
// severed by island shutdown — the count is the paper's motivation made
// quantitative.
func CmpMesh(lib *model.Library) ([]CmpRow, error) {
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		return nil, err
	}
	res, err := synthesize(spec, lib, defaultOpts())
	if err != nil {
		return nil, err
	}
	best := res.Best()
	latViol := 0 // custom synthesis admits no violating design point
	rows := []CmpRow{{
		Design:             "custom (this paper)",
		NoCDynMW:           best.NoCPower.DynW() * 1e3,
		LatencyCycles:      best.MeanLatencyCycles,
		LatencyViolations:  latViol,
		ShutdownViolations: 0,
		Switches:           best.Top.TotalSwitchCount(),
		Links:              len(best.Top.Links),
	}}
	m, err := mesh.Synthesize(spec, lib, mesh.Options{})
	if err != nil {
		return nil, err
	}
	rows = append(rows, CmpRow{
		Design:             "2D mesh mapping [9-11]",
		NoCDynMW:           power.NoC(m.Top).DynW() * 1e3,
		LatencyCycles:      m.Top.MeanZeroLoadLatency(),
		LatencyViolations:  m.LatencyViolations,
		ShutdownViolations: m.ShutdownViolations,
		Switches:           m.Top.TotalSwitchCount(),
		Links:              len(m.Top.Links),
	})
	return rows, nil
}

// FormatCmpMesh renders the comparison.
func FormatCmpMesh(rows []CmpRow) string {
	var b strings.Builder
	b.WriteString("Custom synthesis vs regular-mesh mapping (D26, 6 logical VIs)\n")
	b.WriteString("design                   NoC mW   latency   lat-viol   shutdown-viol   sw   links\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %8.2f %9.2f %10d %15d %4d %7d\n",
			r.Design, r.NoCDynMW, r.LatencyCycles, r.LatencyViolations,
			r.ShutdownViolations, r.Switches, r.Links)
	}
	b.WriteString("the mesh's shutdown violations are flows a gated island would sever —\n")
	b.WriteString("the problem the paper's island discipline eliminates by construction\n")
	return b.String()
}

// FaultRow reports single-link-failure recoverability for one design.
type FaultRow struct {
	Design         string
	Links          int
	RecoverablePct float64
}

// CmpFault quantifies the paper's related-work argument against relying
// on run-time rerouting ([20]): sweep every single-link failure on both
// the custom design and the mesh baseline and count how many the
// surviving links can absorb. Neither guarantees recovery — which is
// why island shutdown must be designed for, not patched around.
func CmpFault(lib *model.Library) ([]FaultRow, error) {
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		return nil, err
	}
	res, err := synthesize(spec, lib, defaultOpts())
	if err != nil {
		return nil, err
	}
	custom, err := fault.Analyze(res.Best().Top)
	if err != nil {
		return nil, err
	}
	m, err := mesh.Synthesize(spec, lib, mesh.Options{})
	if err != nil {
		return nil, err
	}
	meshRep, err := fault.Analyze(m.Top)
	if err != nil {
		return nil, err
	}
	return []FaultRow{
		{Design: "custom (power-minimal)", Links: custom.Links, RecoverablePct: custom.RecoverableFrac() * 100},
		{Design: "2D mesh (used links only)", Links: meshRep.Links, RecoverablePct: meshRep.RecoverableFrac() * 100},
	}, nil
}

// FormatCmpFault renders the recoverability comparison.
func FormatCmpFault(rows []FaultRow) string {
	var b strings.Builder
	b.WriteString("Single-link-failure recoverability (rerouting over surviving links only)\n")
	b.WriteString("design                    links   recoverable\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %6d %12.0f%%\n", r.Design, r.Links, r.RecoverablePct)
	}
	b.WriteString("neither guarantees recovery — the paper's case for designing shutdown\n")
	b.WriteString("support into the topology instead of rerouting around dead components\n")
	return b.String()
}

// CampaignRow summarizes the power-state fault campaign for one design.
type CampaignRow struct {
	Design         string
	States         int
	Sampled        bool
	Violations     int
	LinkFaults     int
	RecoverablePct float64
}

// CampaignSweep synthesizes every suite benchmark and runs the
// power-state fault campaign on its power-minimal design point: every
// subset of shut-downable islands gated (deterministically sampled
// above the default cap), the shutdown invariant checked per state, and
// single-link failures composed under each state. The invariant column
// must read 0 for every design — that is the paper's guarantee — while
// the recoverability column measures the slack beyond it.
func CampaignSweep(lib *model.Library) ([]CampaignRow, error) {
	var rows []CampaignRow
	for _, e := range bench.Entries() {
		spec, err := bench.Islanded(e.Name)
		if err != nil {
			return nil, err
		}
		res, err := synthesize(spec, lib, defaultOpts())
		if err != nil {
			return nil, err
		}
		c, err := cache.RunCampaign(Cache, res.Best().Top, fault.CampaignOptions{Workers: Workers})
		if err != nil {
			return nil, err
		}
		rows = append(rows, CampaignRow{
			Design:         e.Name,
			States:         len(c.States),
			Sampled:        c.Sampled,
			Violations:     c.InvariantViolations,
			LinkFaults:     c.LinkFaults,
			RecoverablePct: c.RecoverableFrac() * 100,
		})
	}
	return rows, nil
}

// SurviveRow is one k of the survivability Pareto sweep: what k
// link-disjoint backup routes per flow cost in power and latency, and
// what they buy in zero-re-route fault absorption.
type SurviveRow struct {
	K int

	// PowerMW / LeakMW / Latency / Links describe the power-minimal
	// design point at this k. Backups add links and ports (power, area)
	// but carry no traffic, so the zero-load latency is the primaries'.
	PowerMW float64
	LeakMW  float64
	Latency float64
	Links   int

	// LinkFaults / ZeroReroute summarize the fault campaign on that
	// design: single-link faults composed under every power state, and
	// how many were absorbed by a pre-synthesized backup with zero
	// re-routing (k=0 designs assert nothing and report 0).
	LinkFaults  int
	ZeroReroute int

	// Err marks an infeasible k (not enough disjoint paths exist).
	Err string
}

// SurviveKs is the default k axis of the survivability sweep.
var SurviveKs = []int{0, 1, 2}

// SurviveSweep sweeps the survivability degree on the 6-VI logical D26
// design: each k is synthesized with k in-loop disjoint-backup
// constraints, then audited by the power-state fault campaign. The rows
// trace the power/latency-vs-robustness Pareto front — the cost of
// provisioned redundancy, in the currency of the paper's Figs. 2/3.
func SurviveSweep(lib *model.Library, ks []int) ([]SurviveRow, error) {
	if ks == nil {
		ks = SurviveKs
	}
	spec, err := bench.D26Islands(viplace.MethodLogical, 6)
	if err != nil {
		return nil, err
	}
	var rows []SurviveRow
	for _, k := range ks {
		opt := defaultOpts()
		opt.Survivability = k
		res, err := synthesize(spec, lib, opt)
		if err != nil {
			rows = append(rows, SurviveRow{K: k, Err: err.Error()})
			continue
		}
		best := res.Best()
		c, err := cache.RunCampaign(Cache, best.Top, fault.CampaignOptions{
			Workers:       Workers,
			Survivability: k,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, SurviveRow{
			K:           k,
			PowerMW:     best.NoCPower.DynW() * 1e3,
			LeakMW:      best.NoCPower.LeakW() * 1e3,
			Latency:     best.MeanLatencyCycles,
			Links:       len(best.Top.Links),
			LinkFaults:  c.LinkFaults,
			ZeroReroute: c.ZeroReroute,
		})
	}
	return rows, nil
}

// FormatSurvive renders the survivability Pareto sweep.
func FormatSurvive(rows []SurviveRow) string {
	var b strings.Builder
	b.WriteString("Survivability sweep — D26 (6 logical VIs): power/latency vs k disjoint backups\n")
	b.WriteString("k   NoC mW   leak mW   latency   links   link-faults   zero-reroute\n")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(&b, "%d   infeasible: %s\n", r.K, r.Err)
			continue
		}
		fmt.Fprintf(&b, "%d %8.2f %9.2f %9.2f %7d %13d %14d\n",
			r.K, r.PowerMW, r.LeakMW, r.Latency, r.Links, r.LinkFaults, r.ZeroReroute)
	}
	b.WriteString("backups are cold standbys: leakage and ports are paid up front, primary\n")
	b.WriteString("routes and zero-load latency are untouched; at k>=1 every single-link\n")
	b.WriteString("fault under every power state must be absorbed with zero re-routing\n")
	return b.String()
}

// FormatCampaign renders the suite-wide campaign table.
func FormatCampaign(rows []CampaignRow) string {
	var b strings.Builder
	b.WriteString("Power-state fault campaign (link faults composed under every power state)\n")
	b.WriteString("design            states   invariant-viol   link-faults   recoverable\n")
	for _, r := range rows {
		sampled := " "
		if r.Sampled {
			sampled = "*"
		}
		fmt.Fprintf(&b, "%-16s %6d%s %16d %13d %12.0f%%\n",
			r.Design, r.States, sampled, r.Violations, r.LinkFaults, r.RecoverablePct)
	}
	b.WriteString("* sampled state space; invariant violations must be zero for every\n")
	b.WriteString("synthesized design — gating any island subset never severs surviving traffic\n")
	return b.String()
}
