package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"

	"nocvi/internal/graph"
	"nocvi/internal/model"
	"nocvi/internal/partition"
	"nocvi/internal/soc"
	"nocvi/internal/vcg"
)

// sweepEnv is the read-only context shared by every worker of one
// synthesis sweep: the spec, the library, the step-1/2 outcomes, the
// pre-sorted flow list, the bounds environment and the lazy partition
// table. Workers never write through it except into the table's once
// latches and the incumbent's atomic slots.
type sweepEnv struct {
	spec        *soc.Spec
	lib         *model.Library
	opt         Options
	freqs       []float64
	maxSizes    []int
	minSwitches []int
	maxMid      int
	midFreq     float64
	islandCores [][]soc.CoreID
	flows       []soc.Flow // decreasing-bandwidth order, shared read-only

	// bounds is the branch-and-bound layer's per-run environment
	// (bounds.go); nil under Options.NoPrune.
	bounds *boundsEnv
	table  *partTable

	// pruner is the shared incumbent bound; nil when pruning is off
	// (Options.NoPrune). ordered restricts its witnesses to earlier
	// indices, which Synthesize's in-order fold re-derives canonically;
	// the streaming collectors are winner-invariant under any witness
	// and leave it false.
	pruner  *incumbentPruner
	ordered bool

	// arenas holds drive's worker arenas, arenas[w] for worker w, bound
	// to this env from the pool; they outlive the pass so the sweep
	// rebuilds its winners in arenas[0], and go back to the pool when
	// the call returns.
	arenas []*buildContext
}

// newSweepEnv is the one prologue of both sweeps: input validation,
// option normalization, Algorithm 1's steps 1-2 (island clocks,
// max switch sizes, minimum switch counts), the intermediate island's
// switch range and clock, the island VCGs, the bounds environment and
// the lazy partition table. The entry point picks the candidate space,
// the collector and whether an incumbent pruner applies.
func newSweepEnv(spec *soc.Spec, lib *model.Library, opt Options) (*sweepEnv, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := lib.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Every stage and every worker's router reads the normalized copy
	// through the env.
	opt = opt.Normalized()

	// Step 1: island NoC clocks and max switch sizes.
	freqs, maxSizes, err := IslandClocks(spec, lib)
	if err != nil {
		return nil, err
	}
	nIsl := len(spec.Islands)
	env := &sweepEnv{
		spec:        spec,
		lib:         lib,
		opt:         opt,
		freqs:       freqs,
		maxSizes:    maxSizes,
		minSwitches: make([]int, nIsl),
		midFreq:     lib.FreqGridHz,
		islandCores: make([][]soc.CoreID, nIsl),
		flows:       spec.SortFlowsByBandwidth(),
	}
	// Step 2: minimum switch count per island. A direct switch must
	// keep one port free for inter-switch links, hence the -1.
	maxCores := 0
	for j := 0; j < nIsl; j++ {
		env.islandCores[j] = spec.CoresIn(soc.IslandID(j))
		n := len(env.islandCores[j])
		usable := maxSizes[j] - 1
		if usable < 1 {
			return nil, fmt.Errorf("core: island %d needs %.0f MHz, too fast for any usable switch: %w",
				j, freqs[j]/1e6, ErrInfeasible)
		}
		env.minSwitches[j] = max((n+usable-1)/usable, 1)
		maxCores = max(maxCores, n)
		env.midFreq = max(env.midFreq, freqs[j])
	}
	if opt.AllowIntermediate {
		env.maxMid = opt.MaxIntermediateSwitches
		if env.maxMid <= 0 {
			env.maxMid = maxCores
		}
	}

	vcgs, err := vcg.BuildAll(spec, opt.Alpha)
	if err != nil {
		return nil, err
	}
	if !opt.NoPrune {
		env.bounds = newBoundsEnv(spec, lib, opt, freqs, env.islandCores)
	}
	env.table = newPartTable(env, vcgs)
	return env, nil
}

// candidateSpace is an enumerated design space: Size candidates, each
// index decoding into per-island switch counts (written into counts)
// and an intermediate-switch count. Decoding is pure arithmetic, so any
// worker decodes any index and no candidate list is ever built.
type candidateSpace interface {
	Size() uint64
	Decode(idx uint64, counts []int) (mid int)
}

// diagonalSpace is Algorithm 1's walk, the space Synthesize explores:
// vector i raises every island's switch count in lockstep from its
// minimum, clamped at one switch per core — counts[j] = min(min_j + i,
// n_j) — up to the first vector with every island clamped, and mid
// varies fastest. Two vectors can only coincide once every island is
// clamped, which is where the walk ends, so no vector repeats.
type diagonalSpace struct {
	min, n  []int
	vectors int
	midDim  int
}

func (env *sweepEnv) diagonal() *diagonalSpace {
	s := &diagonalSpace{min: env.minSwitches, n: make([]int, len(env.islandCores)), vectors: 1, midDim: env.maxMid + 1}
	for j, cores := range env.islandCores {
		s.n[j] = len(cores)
		s.vectors = max(s.vectors, s.n[j]-s.min[j]+1)
	}
	return s
}

func (s *diagonalSpace) Size() uint64 { return uint64(s.vectors) * uint64(s.midDim) }

func (s *diagonalSpace) Decode(idx uint64, counts []int) (mid int) {
	i := int(idx / uint64(s.midDim))
	for j := range counts {
		counts[j] = min(s.min[j]+i, s.n[j])
	}
	return int(idx % uint64(s.midDim))
}

// factorialSpace is SynthesizeSweep's full cross product of per-island
// switch-count ranges plus the mid dimension, as a mixed-radix index:
// mid varies fastest, then the last island's count, and so on.
type factorialSpace struct {
	min    []int // per-island lowest switch count
	width  []int // per-island range width (>= 1)
	midDim int   // maxMid + 1
}

// factorial returns the cross product with each island's range capped
// at width values (0 = up to one switch per core).
func (env *sweepEnv) factorial(width int) *factorialSpace {
	s := &factorialSpace{min: env.minSwitches, width: make([]int, len(env.islandCores)), midDim: env.maxMid + 1}
	for j, cores := range env.islandCores {
		hi := max(len(cores), s.min[j])
		if width > 0 {
			hi = min(hi, s.min[j]+width-1)
		}
		s.width[j] = hi - s.min[j] + 1
	}
	return s
}

// Size returns the cross-product size, saturating at MaxUint64.
func (s *factorialSpace) Size() uint64 {
	total := uint64(s.midDim)
	for _, w := range s.width {
		if total > math.MaxUint64/uint64(w) {
			return math.MaxUint64
		}
		total *= uint64(w)
	}
	return total
}

// Decode writes candidate idx's switch counts into counts and returns
// its mid value. Index 0 is every island at its minimum with mid 0.
func (s *factorialSpace) Decode(idx uint64, counts []int) (mid int) {
	mid = int(idx % uint64(s.midDim))
	idx /= uint64(s.midDim)
	for j := len(s.width) - 1; j >= 0; j-- {
		w := uint64(s.width[j])
		counts[j] = s.min[j] + int(idx%w)
		idx /= w
	}
	return mid
}

// partTable memoizes Algorithm 1 step 11 for both spaces: entry [j][k]
// is island j's VCG min-cut into k switches with its branch-and-bound
// pieces. Entries are resolved lazily by the first worker that needs
// one, through that worker's partition scratch, under the entry's once
// latch; the cut is a deterministic function of (graph, k, options),
// so which worker wins the latch is immaterial, and once.Do's
// happens-before edge lets every later reader go lock-free. A candidate
// only touches the table after the infeasibility proofs passed, so
// nothing is cut that no surviving candidate needs. The table has
// Σ_j (n_j + 1) entries.
type partTable struct {
	graphs  []*graph.Undirected // island VCGs, undirected
	opts    []partition.Options // per island, MaxPartSize clamped
	bounds  *boundsEnv
	entries [][]partEntry
}

type partEntry struct {
	once sync.Once
	part []int
	err  error

	// piece and cross are islandPiece's power/latency contributions for
	// this cut, summed per candidate; infeas marks a cut proven unable
	// to validate. Filled only when pruning is on.
	piece  float64
	cross  int
	infeas bool
}

// newPartTable materializes each island VCG's undirected view and its
// partitioner options — MaxPartSize clamped to the island's max switch
// size — behind an empty table.
func newPartTable(env *sweepEnv, vcgs []*vcg.VCG) *partTable {
	n := len(vcgs)
	t := &partTable{graphs: make([]*graph.Undirected, n), opts: make([]partition.Options, n), bounds: env.bounds, entries: make([][]partEntry, n)}
	for j, v := range vcgs {
		pOpt := env.opt.Partition
		cap := env.maxSizes[j] - 1
		if pOpt.MaxPartSize == 0 || cap < pOpt.MaxPartSize {
			pOpt.MaxPartSize = cap
		}
		t.graphs[j], t.opts[j] = v.Undirected(), pOpt
		// Both spaces keep k within [0, max(n_j, min_j)].
		t.entries[j] = make([]partEntry, max(len(env.islandCores[j]), env.minSwitches[j])+1)
	}
	return t
}

// entry returns island j cut into k switches, resolving it through sc
// on first touch.
func (t *partTable) entry(j, k int, sc *partition.Scratch) *partEntry {
	e := &t.entries[j][k]
	e.once.Do(func() {
		e.part, e.err = sc.KWay(t.graphs[j], k, t.opts[j])
		if t.bounds != nil && e.err == nil {
			e.piece, e.cross, e.infeas = t.bounds.islandPiece(j, k, e.part)
		}
	})
	return e
}

// evalOutcome is one candidate's evaluation: a valid design point, a
// recovered panic, a prune verdict, or none of those (the candidate was
// infeasible). powerLB and latLB are the candidate's lower bounds when
// the bounds layer priced it; the ordered fold re-tests them.
type evalOutcome struct {
	dp     *DesignPoint
	err    *CandidateError
	pruned uint8 // pruneNone, pruneBound or pruneStage

	powerLB, latLB float64
}

// testHookEvalStart, when non-nil, runs at the top of every candidate
// evaluation — inside the panic boundary, on the evaluating goroutine.
// Tests use it to inject panics into chosen candidates and to cancel
// contexts after a deterministic number of evaluations. Always nil in
// production; set it only in tests that run sweeps sequentially.
var testHookEvalStart func(counts []int, mid int)

// evaluate runs one decoded candidate through the pipeline on the
// worker owning bc: the infeasibility proofs (a provably doomed
// candidate is never partitioned), the partitions and bound pieces from
// the lazy table, the incumbent check against the candidate's lower
// bounds, then buildPoint behind the panic boundary; a completed
// violation-free point is published as an incumbent. parts is
// worker-owned scratch.
func (env *sweepEnv) evaluate(bc *buildContext, idx uint64, counts []int, parts [][]int, mid int) (out evalOutcome) {
	if be := env.bounds; be != nil {
		if be.specInfeasible {
			return evalOutcome{pruned: pruneBound}
		}
		for j, k := range counts {
			if be.islandInfeasible(j, k) {
				return evalOutcome{pruned: pruneBound}
			}
		}
	}
	var swLB float64
	cross, infeas := 0, false
	for j, k := range counts {
		e := env.table.entry(j, k, &bc.part)
		if e.err != nil {
			return out // no k-way cut fits: attempted, infeasible
		}
		parts[j] = e.part
		swLB += e.piece
		cross += e.cross
		infeas = infeas || e.infeas
	}
	if infeas {
		return evalOutcome{pruned: pruneBound} // a cut proven unable to validate
	}
	before := uint64(math.MaxUint64) // incumbent witnesses accepted: see sweepEnv.ordered
	if env.ordered {
		before = idx
	}
	if env.bounds != nil {
		out.powerLB, out.latLB = env.bounds.combine(swLB, cross)
		if env.pruner != nil && env.pruner.dominates(before, out.powerLB, out.latLB) {
			return evalOutcome{pruned: pruneBound}
		}
	}
	bc.pruneIdx = before
	out.dp, out.err, out.pruned = safeEval(bc, counts, parts, mid)
	if env.pruner != nil && out.dp != nil && out.dp.WireViolations == 0 {
		env.pruner.publish(idx, out.dp.NoCPower.DynW(), out.dp.MeanLatencyCycles)
	}
	return out
}

// safeEval builds one candidate behind the sweep's panic boundary. A
// panic is converted into a CandidateError carrying the candidate's
// parameters and a normalized stack, and the worker's arena contents
// are dropped — a panic can leave the pooled topology, router or
// floorplan scratch half mutated, so the next candidate starts from
// fresh allocations, and the emptied arena is what goes back to the
// pool.
func safeEval(bc *buildContext, counts []int, parts [][]int, mid int) (dp *DesignPoint, ce *CandidateError, pruned uint8) {
	defer func() {
		if r := recover(); r != nil {
			dp, pruned = nil, pruneNone
			ce = &CandidateError{
				SwitchCounts: append([]int(nil), counts...),
				MidSwitches:  mid,
				//noclint:ignore bannedcall stringifying a recovered panic value, off the hot path
				Panic: fmt.Sprint(r),
				Stack: normalizeStack(debug.Stack()),
			}
			*bc = buildContext{env: bc.env}
		}
	}()
	if testHookEvalStart != nil {
		testHookEvalStart(counts, mid)
	}
	dp, err := buildPoint(bc, counts, parts, mid)
	if errors.Is(err, errStagePruned) {
		return nil, nil, pruneStage
	}
	return dp, nil, pruneNone
}

// normalizeStack reduces a debug.Stack dump to the frames between the
// panic site and the evaluation boundary. The goroutine header,
// argument values, code offsets and runtime frames are stripped, and
// the walk stops at safeEval itself — everything below it depends on
// the worker schedule. The same panic therefore yields a byte-identical
// stack on any worker count, which is what lets the recorded errors
// compare equal across sweep configurations.
func normalizeStack(stack []byte) string {
	lines := strings.Split(string(stack), "\n")
	var b strings.Builder
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		if line == "" || strings.HasPrefix(line, "goroutine ") || strings.HasPrefix(line, "\t") {
			continue // header, or a location line of a skipped frame
		}
		fn := line
		if j := strings.IndexByte(fn, '('); j >= 0 {
			fn = fn[:j]
		}
		if fn == "nocvi/internal/core.safeEval" {
			break // evaluation boundary: frames below depend on the schedule
		}
		if fn == "panic" || strings.HasPrefix(fn, "runtime.") ||
			strings.HasPrefix(fn, "runtime/debug.") ||
			strings.HasPrefix(fn, "nocvi/internal/core.safeEval.func") {
			continue
		}
		loc := ""
		if i+1 < len(lines) && strings.HasPrefix(lines[i+1], "\t") {
			loc = strings.TrimSpace(lines[i+1])
			if j := strings.LastIndex(loc, " +0x"); j >= 0 {
				loc = loc[:j]
			}
			i++
		}
		b.WriteString(fn)
		if loc != "" {
			b.WriteString("\n\t")
			b.WriteString(loc)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// collector receives one sweep's outcomes. add runs on the evaluating
// worker's goroutine (w indexes the worker) for every evaluated index,
// before that worker builds its next candidate: out.dp is still the
// worker's arena point.
type collector interface {
	add(w int, idx uint64, out evalOutcome)
}

// drive evaluates indices [0, limit) of the space, limit >= 1, across
// Options.Workers goroutines in one pass. Workers claim contiguous
// index blocks from an atomic cursor — no producer, no channel — and
// always finish a block they claimed before looking at the context
// again, so whenever the sweep stops the evaluated set is exactly the
// prefix [0, done): a canceled sweep holds what a serial sweep of the
// same space would have found up to that index. The block size follows
// from the space size and the worker count, down to a single index on
// small spaces, so a stop never overshoots by more than a sliver of the
// space. Each worker builds in one arena, env.arenas[w], taken from the
// process-wide pool for the whole sweep; the caller hands the arenas
// back with releaseArenas once it has published its last build. One
// worker is the same path with one goroutine. The sweep is partial
// exactly when done < limit.
func (env *sweepEnv) drive(ctx context.Context, space candidateSpace, limit uint64, col collector) (done uint64) {
	n := int(min(uint64(env.opt.workers()), limit))
	block := min(max(limit/uint64(n*16), 1), 4096)
	env.takeArenas(n)
	var cursor atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bc := env.arenas[w]
			counts := make([]int, len(env.islandCores))
			parts := make([][]int, len(counts))
			for ctx.Err() == nil {
				b := cursor.Add(block)
				a := b - block
				if a >= limit {
					return
				}
				for idx := a; idx < min(b, limit); idx++ {
					mid := space.Decode(idx, counts)
					col.add(w, idx, env.evaluate(bc, idx, counts, parts, mid))
				}
			}
		}(w)
	}
	wg.Wait()
	return min(cursor.Load(), limit)
}

// stopReason maps the stopped context of a partial sweep onto
// StopDeadline or StopCanceled.
func stopReason(ctx context.Context) string {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return StopDeadline
	}
	return StopCanceled
}
