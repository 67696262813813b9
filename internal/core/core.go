// Package core implements the paper's contribution: Algorithm 1, the
// custom NoC topology synthesis flow that supports shutdown of voltage
// islands.
//
// The flow, per design point:
//
//  1. determine the NoC clock of every island from the heaviest NI link
//     it must sustain, and from it the maximum feasible switch size
//     (max_sw_size_j) — bigger crossbars cannot meet higher clocks;
//  2. derive the minimum switch count per island;
//  3. sweep the switch count of every island from that minimum up to one
//     switch per core, partitioning each island's VI communication graph
//     (VCG) with balanced min-cut so heavily-communicating cores share a
//     switch;
//  4. sweep the number of indirect switches in the optional intermediate
//     NoC island (never shut down);
//  5. route every flow in decreasing bandwidth order over least-cost
//     paths that only use switches in the source island, the destination
//     island, or the intermediate island — the discipline that makes
//     island shutdown safe by construction;
//  6. floorplan valid points, compute wire lengths and power, and save
//     the point for Pareto selection.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"

	"nocvi/internal/deadlock"
	"nocvi/internal/floorplan"
	"nocvi/internal/model"
	"nocvi/internal/partition"
	"nocvi/internal/power"
	"nocvi/internal/route"
	"nocvi/internal/soc"
	"nocvi/internal/topology"
	"nocvi/internal/vcg"
)

// Options configures the synthesis sweep.
type Options struct {
	// Alpha is the VCG bandwidth-vs-latency weight of Definition 1.
	// Zero selects vcg.DefaultAlpha.
	Alpha float64

	// AllowIntermediate permits creating the intermediate NoC island
	// ("we take the availability of power and ground lines for the
	// intermediate VI as an input").
	AllowIntermediate bool

	// MaxIntermediateSwitches caps the indirect-switch sweep; zero
	// derives it from the largest island.
	MaxIntermediateSwitches int

	// IntermediateVoltage supplies the NoC island; zero selects 1.0 V.
	IntermediateVoltage float64

	// MaxDesignPoints stops the sweep after this many valid points
	// (0 = exhaustive).
	MaxDesignPoints int

	// Router and Floorplan pass through to the respective stages.
	Router    route.Options
	Floorplan floorplan.Options

	// Partition passes through to the min-cut partitioner.
	Partition partition.Options

	// SpectralPartition selects recursive spectral bisection instead of
	// the Fiduccia–Mattheyses engine for the core-to-switch min-cut
	// (Algorithm 1 step 11).
	SpectralPartition bool

	// AutoVoltage scales each island's NoC supply down to the lowest
	// voltage that meets its clock (model.VoltageForFreq) instead of
	// using the spec island's nominal supply — the voltage-island
	// benefit applied to the NoC domains themselves.
	AutoVoltage bool

	// Workers bounds the number of goroutines evaluating candidate
	// design points concurrently. Zero or negative selects the
	// documented default, runtime.GOMAXPROCS(0) — the number of
	// goroutines the runtime will actually run in parallel, which
	// respects GOMAXPROCS env overrides and `go test -cpu` lanes where
	// runtime.NumCPU() would oversubscribe. One evaluates strictly
	// serially. The normalization lives in one place (Options.workers);
	// the CLIs pass the flag through untouched, so `-workers 0` means
	// the same thing everywhere. Every worker count yields identical
	// results — same Points, same order, same metrics — because every
	// candidate is an index of the design space that any worker decodes
	// on the fly, and outcomes are folded in index order regardless of
	// completion order.
	Workers int

	// NoPrune disables the admissible-bound pruning layer (bounds.go):
	// every candidate is fully evaluated, exactly as the sweeps ran
	// before pruning existed. Pruning never changes winners — Best,
	// BestLatency, the Pareto front over point values, errors of real
	// runs and relaxation outcomes are identical either way — but with
	// pruning Result.Points holds the canonical branch-and-bound subset
	// (points not strictly dominated, in both power and latency, by an
	// earlier violation-free point) instead of every feasible candidate.
	// Because the two modes' Points differ, NoPrune participates in
	// cache-key digests. MaxDesignPoints > 0 implies the incumbent layer
	// is off (truncation counts every feasible point); the infeasibility
	// fast checks still apply.
	NoPrune bool

	// Relax opts into the degradation ladder: when the sweep finds no
	// valid design point, the spec is retried under cumulative
	// Algorithm-1-style relaxations (survivability step-down, more
	// indirect switches, latency slack ×1.1, larger max switch size)
	// instead of failing hard. The applied relaxations are stamped on
	// the Result and on every DesignPoint it contains. See relax.go.
	Relax bool

	// Survivability requires k+1 link-disjoint island-legal routes per
	// flow: the primary plus k pre-synthesized cold-standby backups,
	// searched in-loop by the router (see route.Options.Survivability)
	// and proven by topology.ValidateSurvivable before a candidate may
	// become a design point. At k >= 1 any single-link fault under any
	// legal power state is absorbed by switching the severed flow onto
	// a backup with zero re-routing. Zero (the default) synthesizes
	// byte-identically to an engine without the feature. This is the
	// canonical survivability knob — synthesizeAttempt normalizes it
	// into Router.Survivability, overwriting whatever the caller put
	// there — and it participates in cache-key digests.
	Survivability int
}

func (o Options) alpha() float64 {
	if o.Alpha == 0 { //noclint:ignore floateq 0 is the documented unset sentinel for Alpha
		return vcg.DefaultAlpha
	}
	return o.Alpha
}

func (o Options) midVoltage() float64 {
	if o.IntermediateVoltage <= 0 {
		return 1.0
	}
	return o.IntermediateVoltage
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// DesignPoint is one valid synthesized design.
type DesignPoint struct {
	Top       *topology.Topology
	Placement *floorplan.Placement

	// SwitchCounts is the direct switch count per island; MidSwitches
	// the indirect count in the intermediate NoC island.
	SwitchCounts []int
	MidSwitches  int

	// NoCPower is the breakdown after floorplanning (link lengths set).
	NoCPower power.Breakdown

	// MeanLatencyCycles is the average zero-load latency over all flows
	// (Fig. 3 metric).
	MeanLatencyCycles float64

	// NoCAreaMM2 is the silicon cost of the network.
	NoCAreaMM2 float64

	// WireViolations counts links exceeding the single-cycle wire
	// budget after placement.
	WireViolations int

	// FloorplanOpt records the floorplan options the point was
	// synthesized with, so RefinePlacement re-floorplans under the same
	// whitespace/annotation settings instead of zero-value defaults.
	FloorplanOpt floorplan.Options

	// Relaxations lists the degradation-ladder rungs (see Options.Relax)
	// that were in force when the point was synthesized; nil for points
	// of the unrelaxed spec.
	Relaxations []string
}

// Result is the outcome of a synthesis run.
type Result struct {
	Spec *soc.Spec

	// IslandFreqHz, MaxSwitchSize and MinSwitches record step 1-2
	// outcomes per island (spec islands only).
	IslandFreqHz  []float64
	MaxSwitchSize []int
	MinSwitches   []int

	// Points holds the valid design points found: every one under
	// Options.NoPrune (or a MaxDesignPoints cap), otherwise the
	// canonical branch-and-bound subset — feasible points not strictly
	// dominated, in both power and latency, by an earlier
	// violation-free point (see bounds.go). Both forms are identical
	// across worker counts, and both yield the same Best, BestLatency
	// and Pareto-front values.
	Points []DesignPoint

	// Explored counts attempted (switch-count, mid-count) combinations —
	// evaluated, bound-pruned or stage-pruned alike; PruneStats splits
	// it three ways (Explored == Evaluated + BoundPruned + StagePruned).
	// Feasible counts the points kept on Points.
	Explored, Feasible int

	// Truncated reports that the sweep stopped early because
	// MaxDesignPoints was reached: Explored and Feasible then reflect
	// only the evaluated prefix of the design space, not all of it.
	Truncated bool

	// Partial reports that the sweep was cut short by context
	// cancellation or deadline. The result then holds everything found
	// up to the stopping point — exactly the prefix a serial sweep of
	// the same spec would have produced — instead of being discarded.
	Partial bool

	// StopReason records why the sweep stopped: StopComplete,
	// StopTruncated, StopCanceled or StopDeadline.
	StopReason string

	// Errors records candidates whose evaluation panicked. Each panic is
	// recovered on the worker that hit it, converted into a structured
	// CandidateError, and the sweep continues; the slice is folded in
	// candidate order, so its content is identical for every worker
	// count.
	Errors []CandidateError

	// Relaxations lists the degradation-ladder rungs applied to obtain
	// this result (Options.Relax); nil when the spec synthesized as
	// given.
	Relaxations []string

	// CacheStats reports how the content-addressed cache layer served
	// this result; all-zero when the run bypassed the cache. It is
	// bookkeeping about the run, not part of the result's identity:
	// the cache codec never encodes it and digest comparisons zero it,
	// so a cached result and a fresh one still compare byte-identical.
	CacheStats CacheStats

	// PruneStats reports the branch-and-bound layer's work (bounds.go).
	// Like CacheStats it is bookkeeping about the run, not part of the
	// result's identity: whether a given candidate was pruned cheaply or
	// evaluated and then discarded depends on worker timing, so the
	// split is schedule-dependent — never encoded by the cache codec and
	// zeroed in digest and identity comparisons. The winner set never
	// depends on it.
	PruneStats PruneStats
}

// PruneStats counts the admissible-bound pruning layer's decisions over
// one run's candidates. The three-way split is exact:
//
//	Explored == Evaluated + BoundPruned + StagePruned
//
// holds for every run, and under Options.NoPrune (or a MaxDesignPoints
// cap, which disables the incumbent layer) Evaluated == Explored with
// the prune counters zero.
type PruneStats struct {
	// Evaluated counts candidates that were not pruned: fully built and
	// costed (kept points and routing/floorplan-infeasible candidates
	// alike), failed partitionings, and recovered panics. Infeasibility
	// discovered by evaluation is not pruning.
	Evaluated int

	// BoundPruned counts candidates dismissed before evaluation — the
	// candidate-local infeasibility proofs (which skip partitioning
	// entirely) or an incumbent strictly dominating the candidate's
	// (power, latency) lower bounds — plus completed points the
	// canonical fold discarded on the same lower-bound test.
	BoundPruned int

	// StagePruned counts evaluations aborted at a staged bound re-check
	// inside buildPoint (post-route, pre-floorplan), plus completed
	// points the canonical fold discarded on the refined post-route
	// test.
	StagePruned int

	// Feasible counts every candidate observed to complete with a valid
	// design point, including points the canonical fold then discarded
	// as dominated. The streaming sweep reports its observed feasible
	// count here because SweepResult.Feasible must stay deterministic.
	Feasible int
}

// Pruned returns the total pruned candidates, both flavors.
func (s PruneStats) Pruned() int { return s.BoundPruned + s.StagePruned }

// CacheStats counts the cache layer's contribution to one synthesis
// run (see internal/cache). Hits counts full-result cache hits (the
// run did no synthesis at all) and Misses full-result lookups that fell
// through to the engine. WarmStarts is always zero: the per-island
// partition persistence it counted was removed, and the field remains
// only because the repo benchmark still reports it.
type CacheStats struct {
	Hits       int
	Misses     int
	WarmStarts int
}

// String renders the stats the way the CLIs report them.
func (s CacheStats) String() string {
	if s.Hits > 0 {
		return "full hit"
	}
	return "miss"
}

// StopReason values recorded on Result.StopReason.
const (
	// StopComplete: the sweep evaluated the entire candidate space.
	StopComplete = "complete"
	// StopTruncated: MaxDesignPoints was reached.
	StopTruncated = "max-design-points"
	// StopCanceled: the context was canceled mid-sweep.
	StopCanceled = "canceled"
	// StopDeadline: the context deadline passed mid-sweep.
	StopDeadline = "deadline"
)

// ErrInfeasible marks synthesis failures the Relax degradation ladder
// may retry: no switch meets an island's clock, or the sweep found no
// valid design point. Malformed specs and libraries fail with ordinary
// errors that no relaxation can repair.
var ErrInfeasible = errors.New("spec infeasible")

// CandidateError is one candidate design point whose evaluation
// panicked. The sweep records it and moves on instead of dying: a panic
// in one corner of the design space must not cost the caller every
// other point already found.
type CandidateError struct {
	// SwitchCounts and MidSwitches identify the candidate.
	SwitchCounts []int
	MidSwitches  int

	// Panic is the recovered panic value; Stack the normalized frames
	// from the panic site down to the evaluation boundary (addresses
	// and caller frames stripped, so the same panic produces the same
	// stack on any worker count).
	Panic string
	Stack string
}

func (e *CandidateError) Error() string {
	//noclint:ignore bannedcall error rendering, not a cache key; runs once per recovered panic
	return fmt.Sprintf("core: candidate %v/mid=%d panicked: %s", e.SwitchCounts, e.MidSwitches, e.Panic)
}

// Synthesize runs Algorithm 1 on the spec.
func Synthesize(spec *soc.Spec, lib *model.Library, opt Options) (*Result, error) {
	return SynthesizeContext(context.Background(), spec, lib, opt)
}

// SynthesizeContext runs Algorithm 1 on the spec, evaluating candidate
// design points across opt.Workers goroutines.
//
// The engine degrades instead of failing hard. Context cancellation or
// deadline stops the sweep and returns the best-so-far partial result
// (Result.Partial, Result.StopReason) with a nil error; sweeps that run
// to completion are bit-identical to what they produced before partial
// results existed. A panicking candidate is recovered on its worker,
// recorded on Result.Errors, and the sweep continues. With Options.Relax
// an infeasible spec is retried down the degradation ladder (see
// relax.go) before the infeasibility is reported.
func SynthesizeContext(ctx context.Context, spec *soc.Spec, lib *model.Library, opt Options) (*Result, error) {
	res, err := synthesizeAttempt(ctx, spec, lib, opt)
	if err == nil || !opt.Relax || !errors.Is(err, ErrInfeasible) || ctx.Err() != nil {
		return res, err
	}
	return relaxedSynthesize(ctx, spec, lib, opt, err)
}

// synthesizeAttempt is one unrelaxed run of Algorithm 1 on one spec:
// steps 3-17 over the diagonal space, evaluated by the sweep driver and
// folded in index order by the ordered collector, so the outcome is
// identical for every worker count.
func synthesizeAttempt(ctx context.Context, spec *soc.Spec, lib *model.Library, opt Options) (*Result, error) {
	env, err := newSweepEnv(spec, lib, opt)
	if err != nil {
		return nil, err
	}
	res := &Result{Spec: spec, IslandFreqHz: env.freqs, MaxSwitchSize: env.maxSizes, MinSwitches: env.minSwitches}
	// The incumbent pruner requires an uncapped sweep: under
	// MaxDesignPoints the truncation point must count every feasible
	// point, so only the infeasibility fast checks apply there (they are
	// result-neutral: a skipped candidate could never build). A capped
	// sweep folds in rounds of workers*4 indices so it stops close to
	// the cap instead of evaluating the whole space.
	env.ordered = true
	if env.bounds != nil && opt.MaxDesignPoints == 0 {
		env.pruner = &incumbentPruner{}
	}
	space := env.diagonal()
	size := space.Size()
	round := size
	if opt.MaxDesignPoints > 0 {
		round = min(size, uint64(opt.workers()*4))
	}
	col := &orderedCollector{res: res, env: env, total: size, outs: make([]evalOutcome, round)}
	if env.drive(ctx, space, size, round, col) {
		// Cut short by the context: everything found so far is the answer.
		// An empty partial result is still a result, not an error — the
		// caller asked the sweep to stop, and it did.
		res.Partial, res.StopReason = true, stopReason(ctx)
		return res, nil
	}
	if res.Truncated {
		res.StopReason = StopTruncated
	} else {
		res.StopReason = StopComplete
	}
	if len(res.Points) == 0 {
		return res, fmt.Errorf("core: no valid design point for %q (explored %d): %w", spec.Name, res.Explored, ErrInfeasible)
	}
	return res, nil
}

// orderedCollector is Synthesize's collector: it buffers each round's
// outcomes by index and folds them into the Result in index order, so
// Points, Explored, Feasible, Truncated and Errors never depend on
// completion order.
type orderedCollector struct {
	res   *Result
	env   *sweepEnv
	total uint64
	lo    uint64        // first index of the current round
	outs  []evalOutcome // the current round's outcomes, at idx - lo
}

func (c *orderedCollector) add(_ int, _ *buildContext, idx uint64, _ []int, _ int, out evalOutcome) {
	c.outs[idx-c.lo] = out
}

func (c *orderedCollector) fold(lo, hi uint64) bool {
	for i := lo; i < hi; i++ {
		if c.collect(c.outs[i-lo]) {
			return true
		}
	}
	c.lo = hi
	return false
}

// collect folds one evaluated candidate into the result in index order.
// It returns true when the sweep should stop (MaxDesignPoints reached).
// Every attempted candidate counts toward Explored — whether it was
// pruned, its partitioning failed, its routing/floorplanning was
// infeasible, or its evaluation panicked (recorded on res.Errors).
//
// With the incumbent layer active, the fold is also the canonical
// pruning authority: every completed point is re-checked against the
// kept points so far (prunedBy), a decision that depends only on
// earlier candidates — never on worker timing — so res.Points is
// identical for every worker count even though which candidates the
// workers managed to prune cheaply is not. A worker-side prune always
// implies the canonical discard, so pruning can only move a candidate
// between the PruneStats buckets, never into Points.
func (c *orderedCollector) collect(out evalOutcome) (stop bool) {
	res, opt := c.res, c.env.opt
	res.Explored++
	switch out.pruned {
	case pruneBound:
		res.PruneStats.BoundPruned++
		return false
	case pruneStage:
		res.PruneStats.StagePruned++
		return false
	}
	if out.err != nil {
		res.PruneStats.Evaluated++
		res.Errors = append(res.Errors, *out.err)
		return false
	}
	if out.dp == nil {
		res.PruneStats.Evaluated++
		return false
	}
	res.PruneStats.Feasible++
	if c.env.pruner != nil {
		switch prunedBy(res.Points, out, opt.Floorplan.SkipAnnotate) {
		case pruneBound:
			res.PruneStats.BoundPruned++
			return false
		case pruneStage:
			res.PruneStats.StagePruned++
			return false
		}
	}
	res.PruneStats.Evaluated++
	res.Feasible++
	res.Points = append(res.Points, *out.dp)
	if opt.MaxDesignPoints > 0 && len(res.Points) >= opt.MaxDesignPoints {
		res.Truncated = uint64(res.Explored) < c.total
		return true
	}
	return false
}

// IslandClocks implements step 1: the NoC clock of each island is fixed
// by the heaviest aggregate NI bandwidth of any core in the island (the
// NI<->switch link must carry all of the core's traffic), quantized to
// the library clock grid; the max switch size follows from the clock.
func IslandClocks(spec *soc.Spec, lib *model.Library) (freqs []float64, maxSizes []int, err error) {
	egress, ingress := spec.AggregateCoreBandwidth()
	nIsl := len(spec.Islands)
	freqs = make([]float64, nIsl)
	maxSizes = make([]int, nIsl)
	for j := 0; j < nIsl; j++ {
		var peak float64
		for _, c := range spec.CoresIn(soc.IslandID(j)) {
			peak = math.Max(peak, math.Max(egress[c], ingress[c]))
		}
		freqs[j] = lib.MinFreqForBandwidth(peak)
		maxSizes[j] = lib.MaxSwitchSize(freqs[j])
		if maxSizes[j] == 0 {
			return nil, nil, fmt.Errorf(
				"core: island %d requires %.0f MHz which no switch meets; widen links: %w", j, freqs[j]/1e6, ErrInfeasible)
		}
		if maxSizes[j] > len(spec.Cores)+nIsl+8 {
			// Unbounded in practice; clamp for sizing arithmetic.
			maxSizes[j] = len(spec.Cores) + nIsl + 8
		}
	}
	return freqs, maxSizes, nil
}

// buildPoint constructs, routes, floorplans and costs one candidate
// design inside the worker's arena. An error means the point is
// infeasible. On success the built topology and placement are handed
// off to the returned DesignPoint and the arena forgets them (a
// collector that only summarizes the point may hand both back); on
// failure they stay pooled for the next candidate.
func buildPoint(bc *buildContext, counts []int, parts [][]int, mid int) (*DesignPoint, error) {
	env := bc.env
	lib, opt := env.lib, env.opt

	top := bc.takeTop()
	for j, f := range env.freqs {
		top.SetIslandFreq(soc.IslandID(j), f)
		if opt.AutoVoltage {
			top.SetIslandVoltage(soc.IslandID(j), lib.VoltageForFreq(f))
		}
	}
	// Direct switches per island, one per partition. AddSwitch assigns
	// IDs sequentially, so island j's switches occupy the half-open ID
	// range starting at the sum of the preceding islands' counts — no
	// per-candidate ID table needed.
	for j, k := range counts {
		for p := 0; p < k; p++ {
			top.AddSwitch(soc.IslandID(j), false)
		}
	}
	base := 0
	for j, k := range counts {
		for i, c := range env.islandCores[j] {
			if err := top.AttachCore(c, topology.SwitchID(base+parts[j][i])); err != nil {
				return nil, err
			}
		}
		base += k
	}
	if mid > 0 {
		midV := opt.midVoltage()
		if opt.AutoVoltage {
			midV = lib.VoltageForFreq(env.midFreq)
		}
		ni := top.AddNoCIsland(env.midFreq, midV)
		for p := 0; p < mid; p++ {
			top.AddSwitch(ni, true)
		}
	}

	// Step 15: route flows in bandwidth order (pre-sorted once per
	// sweep, shared read-only).
	r := bc.takeRouter(top)
	if err := r.RouteFlows(env.flows); err != nil {
		return nil, err
	}
	// A design point whose routes could deadlock is invalid; the island
	// discipline makes this rare, but it is verified, not assumed.
	if err := deadlock.CheckWith(top, &bc.dl); err != nil {
		return nil, err
	}

	// Staged bound re-tightening: with the routes fixed, the point's
	// mean latency is final (zero-load latency never depends on wire
	// lengths) and its power is final up to the link-wire terms the
	// floorplan adds — or final outright under SkipAnnotate, where link
	// lengths stay at the power model's default so the pre-floorplan
	// breakdown is the post-floorplan one bit-for-bit. If an earlier
	// incumbent strictly dominates both, floorplanning and validation
	// cannot save this candidate. Under SkipAnnotate the staged
	// breakdown is kept as the point's NoCPower.
	var nocPower power.Breakdown
	staged := false
	if pr := env.pruner; pr != nil {
		var stagePowerW float64
		if opt.Floorplan.SkipAnnotate {
			nocPower, staged = power.NoCWith(top, &bc.pw), true
			stagePowerW = nocPower.DynW()
		} else {
			stagePowerW = power.NoCSansLinkWires(top, &bc.pw).DynW()
		}
		if pr.dominates(bc.pruneIdx, stagePowerW, top.MeanZeroLoadLatency()) {
			return nil, errStagePruned
		}
	}

	// Survivability as a feasibility predicate: the router already
	// failed candidates it could not give k disjoint backups, and this
	// proves the property it claims to have established — per-flow
	// backup count, structure, island legality, latency and pairwise
	// link-disjointness — before the candidate may become a point.
	if k := opt.Survivability; k > 0 {
		if err := top.ValidateSurvivable(k); err != nil {
			return nil, err
		}
	}

	// Floorplan, then validate with real wire lengths.
	pl, err := floorplan.PlaceWith(top, opt.Floorplan, &bc.fp)
	if err != nil {
		return nil, err
	}
	if err := top.Validate(); err != nil {
		return nil, err
	}
	if !staged {
		nocPower = power.NoCWith(top, &bc.pw)
	}

	dp := &DesignPoint{
		Top:               top,
		Placement:         pl,
		SwitchCounts:      append([]int(nil), counts...),
		MidSwitches:       mid,
		NoCPower:          nocPower,
		MeanLatencyCycles: top.MeanZeroLoadLatency(),
		NoCAreaMM2:        power.NoCAreaMM2(top),
		WireViolations:    len(floorplan.WireDelayViolations(top, pl)),
		FloorplanOpt:      opt.Floorplan,
	}
	bc.top = nil // escaped into the design point: never reset again
	return dp, nil
}

// Best returns the design point with the lowest NoC dynamic power,
// preferring points without wire-delay violations. Nil when empty.
func (r *Result) Best() *DesignPoint {
	return r.argmin(func(d *DesignPoint) float64 { return d.NoCPower.DynW() })
}

// BestLatency returns the design point with the lowest mean zero-load
// latency, preferring points without wire-delay violations.
func (r *Result) BestLatency() *DesignPoint {
	return r.argmin(func(d *DesignPoint) float64 { return d.MeanLatencyCycles })
}

// argmin selects the minimal point under an explicit deterministic
// ordering: fewest wire violations, then lowest metric, then — on exact
// metric ties — lowest total direct switch count, then lowest
// intermediate switch count. The tie-break makes the selection
// independent of Points ordering, so serial and parallel sweeps (whose
// Points order is canonical anyway) can never disagree.
func (r *Result) argmin(metric func(*DesignPoint) float64) *DesignPoint {
	var best *DesignPoint
	bestViol := math.MaxInt32
	bestVal := math.Inf(1)
	for i := range r.Points {
		d := &r.Points[i]
		v := metric(d)
		better := false
		switch {
		case d.WireViolations != bestViol:
			better = d.WireViolations < bestViol
		case v != bestVal: //noclint:ignore floateq exact compare keeps the argmin tie-break chain bit-identical across serial and parallel sweeps
			better = v < bestVal
		case best != nil && totalSwitches(d) != totalSwitches(best):
			better = totalSwitches(d) < totalSwitches(best)
		case best != nil:
			better = d.MidSwitches < best.MidSwitches
		}
		if better {
			best, bestViol, bestVal = d, d.WireViolations, v
		}
	}
	return best
}

func totalSwitches(d *DesignPoint) int {
	n := 0
	for _, k := range d.SwitchCounts {
		n += k
	}
	return n
}

// RefinePlacement re-floorplans the design point with the annealing
// placement optimizer (island orders that shorten traffic-weighted
// wires), then refreshes the wire-dependent metrics: link lengths, NoC
// power and wire-delay violations. iters <= 0 selects the optimizer's
// default budget.
func (d *DesignPoint) RefinePlacement(iters int) error {
	pl, err := floorplan.PlaceOptimized(d.Top, d.FloorplanOpt, iters)
	if err != nil {
		return err
	}
	d.Placement = pl
	d.NoCPower = power.NoC(d.Top)
	d.WireViolations = len(floorplan.WireDelayViolations(d.Top, pl))
	return nil
}
