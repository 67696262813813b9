package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"nocvi/internal/model"
	"nocvi/internal/soc"
)

// SweepOptions configures SynthesizeSweep, the full-factorial streaming
// sweep. Unlike Synthesize's diagonal walk (every island's switch count
// incremented in lockstep), the streaming sweep enumerates the cross
// product of per-island switch-count ranges — spaces that reach millions
// of design points on 100+-core, 10+-island SoCs.
type SweepOptions struct {
	// WidthPerIsland caps how many switch-count values each island
	// contributes, counted up from the island's minimum feasible count.
	// Zero sweeps the full range, up to one switch per core. The cap is
	// how callers shape the cross product: 12 islands at width 4 is a
	// 16.7M-point space.
	WidthPerIsland int

	// Limit bounds the number of evaluated candidates (0 = exhaustive).
	// A limited sweep evaluates exactly the first Limit indices of the
	// enumeration order, so results stay deterministic. Limit is
	// required when the space size saturates uint64.
	Limit uint64

	// MaxErrors caps the recorded CandidateErrors (0 = 32). The errors
	// kept are the ones with the smallest candidate indices; the total
	// count is always reported.
	MaxErrors int
}

func (o SweepOptions) maxErrors() int {
	if o.MaxErrors <= 0 {
		return 32
	}
	return o.MaxErrors
}

// SweepPoint is the compact summary of one feasible candidate that the
// streaming sweep retains: the candidate's identity and its headline
// metrics, a few dozen bytes instead of a full DesignPoint with its
// topology and placement. The sweep's memory footprint is the Pareto
// front plus two argmin slots of these, independent of space size.
type SweepPoint struct {
	// Index is the candidate's position in the enumeration order (mid
	// varies fastest, then the last island's switch count, and so on).
	Index uint64

	SwitchCounts []int
	MidSwitches  int

	// PowerW is the NoC dynamic power (the Best() metric), LatencyCycles
	// the mean zero-load latency, AreaMM2 the NoC silicon cost.
	PowerW         float64
	LatencyCycles  float64
	AreaMM2        float64
	WireViolations int
}

// SweepResult is the outcome of a streaming sweep. Completed sweeps are
// byte-identical for every worker count: the collectors are order-
// independent (total-order argmin, exact Pareto merge, index-sorted
// errors). A sweep stopped by its context (Partial) has evaluated
// exactly the index prefix [0, Explored): under Options.NoPrune it
// equals a sweep with Limit = Explored apart from the stop fields
// (Truncated, Partial, StopReason). Where the prefix ends depends on
// when the stop landed.
type SweepResult struct {
	Spec *soc.Spec

	// Size is the full enumerated space (saturating at MaxUint64);
	// Explored the candidates actually decoded and dispositioned —
	// evaluated, bound-pruned or stage-pruned, the exact three-way split
	// PruneStats reports. Feasible counts the evaluated candidates that
	// yielded a valid design point; under pruning it is zeroed (which
	// candidates the incumbent bound skips is schedule-dependent, and a
	// completed sweep must stay byte-identical across worker counts —
	// the observed completion count moves to PruneStats.Feasible).
	Size     uint64
	Explored uint64
	Feasible uint64

	// Truncated reports Limit < Size; Partial a context stop. StopReason
	// takes the same values as Result.StopReason.
	Truncated  bool
	Partial    bool
	StopReason string

	// BestPower and BestLatency are the argmin design points, rebuilt in
	// full (topology, placement) from their winning indices after the
	// sweep; nil when nothing was feasible. Both argmins use the Best()/
	// BestLatency() ordering — wire violations, metric, total switches,
	// mid — extended by candidate index into a total order, so the
	// selection cannot depend on evaluation order.
	BestPower   *DesignPoint
	BestLatency *DesignPoint

	// BestPowerPoint and BestLatencyPoint are the winners' summaries.
	BestPowerPoint   *SweepPoint
	BestLatencyPoint *SweepPoint

	// Front is the exact power/latency Pareto front over all feasible
	// candidates, sorted by ascending power. Candidates with identical
	// (power, latency) are collapsed to the lowest index.
	Front []SweepPoint

	// Errors holds the recovered candidate panics with the smallest
	// indices, at most MaxErrors of them; ErrorCount is the true total.
	// Panics are the one exception to cross-worker identity under
	// pruning: whether a panicking candidate is pruned before it can
	// panic depends on incumbent timing, so a sweep that records errors
	// is only schedule-independent under Options.NoPrune. (Panics mark
	// engine bugs; healthy sweeps record none.)
	Errors     []CandidateError
	ErrorCount uint64

	// CacheStats reports the content-addressed cache layer's
	// contribution to this sweep (see Result.CacheStats); all-zero when
	// the run bypassed the cache. Never encoded and zeroed in digests,
	// so cached and fresh sweeps compare byte-identical.
	CacheStats CacheStats

	// PruneStats is the branch-and-bound layer's disposition of the
	// explored candidates (see Result.PruneStats). The counter split is
	// schedule-dependent under the shared incumbent bound; like
	// CacheStats it is run bookkeeping — never encoded, zeroed in
	// digests and comparisons.
	PruneStats PruneStats
}

// sweepBetter is the total order behind both argmins: fewest wire
// violations, lowest metric, fewest direct switches, fewest mid
// switches, lowest index. The index tiebreak mirrors serial first-wins
// and makes the order total, so merging per-worker minima is exact.
func sweepBetter(a, b *SweepPoint, metric func(*SweepPoint) float64) bool {
	if a.WireViolations != b.WireViolations {
		return a.WireViolations < b.WireViolations
	}
	av, bv := metric(a), metric(b)
	if av != bv { //noclint:ignore floateq exact compare keeps the argmin chain bit-identical across worker counts
		return av < bv
	}
	if as, bs := sumCounts(a.SwitchCounts), sumCounts(b.SwitchCounts); as != bs {
		return as < bs
	}
	if a.MidSwitches != b.MidSwitches {
		return a.MidSwitches < b.MidSwitches
	}
	return a.Index < b.Index
}

func sumCounts(counts []int) int {
	n := 0
	for _, k := range counts {
		n += k
	}
	return n
}

func powerOf(p *SweepPoint) float64   { return p.PowerW }
func latencyOf(p *SweepPoint) float64 { return p.LatencyCycles }

// pruneFront reduces pts to the exact Pareto front of (power, latency)
// minimization, ascending by power, with equal (power, latency) pairs
// collapsed to the lowest index. Sorting makes the result independent
// of input order, which is what lets per-worker fronts merge exactly.
func pruneFront(pts []SweepPoint) []SweepPoint {
	sort.Slice(pts, func(i, j int) bool {
		a, b := &pts[i], &pts[j]
		if a.PowerW != b.PowerW { //noclint:ignore floateq exact dominance keeps the front bit-identical across worker counts
			return a.PowerW < b.PowerW
		}
		if a.LatencyCycles != b.LatencyCycles { //noclint:ignore floateq exact dominance keeps the front bit-identical across worker counts
			return a.LatencyCycles < b.LatencyCycles
		}
		return a.Index < b.Index
	})
	out := pts[:0]
	bestLat := math.Inf(1)
	for i := range pts {
		if pts[i].LatencyCycles < bestLat {
			out = append(out, pts[i])
			bestLat = pts[i].LatencyCycles
		}
	}
	return out
}

// sweepCollector accumulates one worker's share of the sweep with
// bounded memory: two argmin slots, a Pareto buffer pruned in place
// whenever it fills, bounded errors, and counters.
type sweepCollector struct {
	explored   uint64
	pruneBound uint64
	pruneStage uint64
	feasible   uint64

	bestPower   *SweepPoint
	bestLatency *SweepPoint

	front []SweepPoint

	errs     []CandidateError
	errIdx   []uint64 // candidate index of each recorded error
	errCount uint64
	errCap   int
}

// frontBuffer bounds the unpruned Pareto buffer. Pruning is O(n log n)
// and discards dominated points, so the buffer oscillates between the
// true front size and this cap plus the front size.
const frontBuffer = 512

func (sc *sweepCollector) addFeasible(p SweepPoint) {
	sc.feasible++
	if sc.bestPower == nil || sweepBetter(&p, sc.bestPower, powerOf) {
		cp := p
		sc.bestPower = &cp
	}
	if sc.bestLatency == nil || sweepBetter(&p, sc.bestLatency, latencyOf) {
		cp := p
		sc.bestLatency = &cp
	}
	sc.front = append(sc.front, p)
	if len(sc.front) >= frontBuffer {
		sc.front = pruneFront(sc.front)
	}
}

func (sc *sweepCollector) addError(idx uint64, ce *CandidateError) {
	sc.errCount++
	// A worker claims ascending indices, so its first errCap errors are
	// its smallest; recording stops there. The globally smallest errCap
	// errors are each among their own worker's smallest, so the merge
	// below still selects them exactly.
	if len(sc.errs) < sc.errCap {
		sc.errs = append(sc.errs, *ce)
		sc.errIdx = append(sc.errIdx, idx)
	}
}

// streamCollectors is SynthesizeSweep's collector: one bounded-memory
// sweepCollector per worker, merged after the sweep. It keeps only the
// SweepPoint summary of a feasible point and hands the point's topology
// and placement back to the worker's arena, so the sweep allocates
// neither per point after warm-up. Nothing it keeps depends on order,
// so it never needs a fold.
type streamCollectors []*sweepCollector

func (cs streamCollectors) add(w int, bc *buildContext, idx uint64, counts []int, mid int, out evalOutcome) {
	col := cs[w]
	col.explored++
	switch {
	case out.pruned == pruneBound:
		col.pruneBound++
	case out.pruned == pruneStage:
		col.pruneStage++
	case out.err != nil:
		col.addError(idx, out.err)
	case out.dp != nil:
		col.addFeasible(SweepPoint{
			Index:          idx,
			SwitchCounts:   append([]int(nil), counts...),
			MidSwitches:    mid,
			PowerW:         out.dp.NoCPower.DynW(),
			LatencyCycles:  out.dp.MeanLatencyCycles,
			AreaMM2:        out.dp.NoCAreaMM2,
			WireViolations: out.dp.WireViolations,
		})
		// Reclaim: the point was summarized, not published.
		bc.top = out.dp.Top
		bc.fp.Recycle(out.dp.Placement)
	}
}

func (streamCollectors) fold(lo, hi uint64) bool { return false }

// SynthesizeSweep runs Algorithm 1 over the full cross product of
// per-island switch-count ranges — the design space Synthesize's
// diagonal walk only samples — through the same streaming driver as
// Synthesize. No candidate list is ever materialized: workers claim
// index blocks from an atomic cursor and decode each index in place,
// so a 10⁶-point space costs the same memory as a 10²-point one. Only
// compact SweepPoint summaries are retained (argmins plus the Pareto
// front); the two winning design points are rebuilt in full after the
// sweep.
//
// Completed sweeps are byte-identical for every Options.Workers value.
// Options.MaxDesignPoints and Options.Relax do not apply to the
// streaming sweep; use SweepOptions.Limit to bound work.
//
// Unless Options.NoPrune is set, the sweep runs branch-and-bound:
// candidates whose admissible lower bounds (see bounds.go) are strictly
// dominated in both objectives by an already-completed violation-free
// point are skipped, and evaluations are aborted at a staged bound
// re-check after routing. Every reported winner — both argmins and the
// whole Pareto front — is byte-identical to the unpruned sweep's: a
// pruned candidate is provably beaten by a retained point on every
// selection key, so it could not have appeared in any of them.
// SweepResult.Explored still covers every index; PruneStats says how
// each was dispositioned.
func SynthesizeSweep(ctx context.Context, spec *soc.Spec, lib *model.Library, opt Options, sw SweepOptions) (*SweepResult, error) {
	env, err := newSweepEnv(spec, lib, opt)
	if err != nil {
		return nil, err
	}
	return env.sweep(ctx, sw)
}

// sweep is SynthesizeSweep after the prologue.
func (env *sweepEnv) sweep(ctx context.Context, sw SweepOptions) (*SweepResult, error) {
	space := env.factorial(sw.WidthPerIsland)
	res := &SweepResult{Spec: env.spec, Size: space.Size()}
	limit := res.Size
	if sw.Limit > 0 && sw.Limit < limit {
		limit = sw.Limit
		res.Truncated = true
	}
	if res.Size == math.MaxUint64 && sw.Limit == 0 {
		return nil, fmt.Errorf("core: sweep space size overflows uint64; set SweepOptions.Limit")
	}
	if env.bounds != nil {
		env.pruner = &incumbentPruner{}
	}
	cols := make(streamCollectors, env.opt.workers())
	for w := range cols {
		cols[w] = &sweepCollector{errCap: sw.maxErrors()}
	}
	partial := env.drive(ctx, space, limit, limit, cols)

	// Merge the per-worker collectors. Every reduction is order-
	// independent: the argmins under a total order, the front by exact
	// dominance after a global sort, the errors by index.
	var bestP, bestL *SweepPoint
	var front []SweepPoint
	type idxErr struct {
		idx uint64
		ce  CandidateError
	}
	var errs []idxErr
	for _, col := range cols {
		res.Explored += col.explored
		res.PruneStats.BoundPruned += int(col.pruneBound)
		res.PruneStats.StagePruned += int(col.pruneStage)
		res.Feasible += col.feasible
		res.ErrorCount += col.errCount
		if col.bestPower != nil && (bestP == nil || sweepBetter(col.bestPower, bestP, powerOf)) {
			bestP = col.bestPower
		}
		if col.bestLatency != nil && (bestL == nil || sweepBetter(col.bestLatency, bestL, latencyOf)) {
			bestL = col.bestLatency
		}
		front = append(front, col.front...)
		for i := range col.errs {
			errs = append(errs, idxErr{col.errIdx[i], col.errs[i]})
		}
	}
	res.PruneStats.Evaluated = int(res.Explored) - res.PruneStats.Pruned()
	res.PruneStats.Feasible = int(res.Feasible)
	if env.pruner != nil {
		// Which candidates the incumbent skipped is schedule-dependent, so
		// the completion count is too; the deterministic headline field is
		// zeroed (the observed count stays in PruneStats) to keep the
		// sweep byte-identical across worker counts.
		res.Feasible = 0
	}
	res.Front = pruneFront(front)
	sort.Slice(errs, func(i, j int) bool { return errs[i].idx < errs[j].idx })
	if len(errs) > sw.maxErrors() {
		errs = errs[:sw.maxErrors()]
	}
	for _, e := range errs {
		res.Errors = append(res.Errors, e.ce)
	}
	res.BestPowerPoint = bestP
	res.BestLatencyPoint = bestL

	switch {
	case partial:
		res.Partial, res.StopReason = true, stopReason(ctx)
	case res.Truncated:
		res.StopReason = StopTruncated
	default:
		res.StopReason = StopComplete
	}

	// Rebuild the winning design points in full. The build is the same
	// deterministic function the sweep ran, so it cannot fail now.
	rebuild := func(p *SweepPoint) *DesignPoint {
		if p == nil {
			return nil
		}
		counts := make([]int, len(env.islandCores))
		parts := make([][]int, len(counts))
		mid := space.Decode(p.Index, counts)
		for j, k := range counts {
			parts[j] = env.table.entry(j, k, nil).part
		}
		dp, err := buildPoint(newBuildContext(env), counts, parts, mid)
		if err != nil {
			panic(fmt.Sprintf("core: sweep winner %v/mid=%d failed rebuild: %v", counts, mid, err)) //noclint:ignore bannedcall cold-path invariant panic, not a cache key
		}
		return dp
	}
	res.BestPower = rebuild(bestP)
	if bestL != nil && bestP != nil && bestL.Index == bestP.Index {
		res.BestLatency = res.BestPower
	} else {
		res.BestLatency = rebuild(bestL)
	}
	return res, nil
}
