// Admissible lower bounds and incumbent pruning — the branch-and-bound
// layer of the sweep driver (driver.go), shared by both candidate
// spaces.
//
// Every candidate of a sweep is a (switch-count vector, intermediate
// switch count) pair. Before the expensive buildPoint pipeline runs,
// this layer computes two candidate-local lower bounds from the spec and
// the candidate's partitions alone:
//
//   - a power bound: the exact NI dynamic power (it depends only on the
//     spec's aggregate core bandwidth), an admissible FIFO term (every
//     inter-island flow crosses at least one island boundary at a
//     voltage at least max(src, dst)), and per-switch dynamic power at
//     the provable minimum port count and traffic of each partition —
//     intermediate-switch power is bounded by zero, and link-wire power
//     is bounded by zero unless Floorplan.SkipAnnotate fixes every link
//     at the default length (see boundsEnv.linkExact);
//   - a latency bound: the per-flow minimum zero-load latency given
//     which flows the partition forces across switch (and island)
//     boundaries, averaged exactly like DesignPoint.MeanLatencyCycles.
//
// Both are admissible — never above the exact metrics of any design
// point the candidate can produce — so discarding a candidate whose
// bounds are strictly dominated (in BOTH dimensions) by an already
// completed, violation-free point can never discard an argmin winner or
// a Pareto-front member: the dominating point beats everything the
// candidate could have become. Exact metric ties are never pruned,
// which keeps the argmin tie-break chains intact. The per-island terms
// (islandPiece) are computed once per (island, switch count) entry of
// the partition table and summed per candidate in island order, then
// folded by combine. The same arithmetic yields fast infeasibility
// proofs (port-capacity and minimum-latency checks) that the sweep driver
// runs before a candidate touches the table, so a doomed candidate is
// never partitioned.
//
// The incumbent is shared across workers through a few atomic slots
// that only ever tighten (CAS min-loops under different scalarization
// keys). Which worker published an incumbent first is schedule-
// dependent, so pruning decisions alone would not be reproducible. The
// two collectors deal with that differently: Synthesize's ordered
// collector only accepts earlier-index witnesses and re-checks every
// completed candidate canonically at fold time (see prunedBy and
// orderedCollector.collect), which makes Points identical for every
// worker count; SynthesizeSweep's streaming collectors are
// winner-invariant under any sound removal (see stream.go). PruneStats
// reports what happened; it is bookkeeping, never part of a result's
// identity.
package core

import (
	"errors"
	"sync/atomic"

	"nocvi/internal/model"
	"nocvi/internal/power"
	"nocvi/internal/route"
	"nocvi/internal/soc"
)

// powerLBBackoff shaves a relative epsilon off the power lower bound.
// The bound's terms equal the engine's own power terms bit-for-bit, but
// they are summed in a different grouping; the 1e-9 relative backoff
// absorbs any summation-order rounding (at most a few ulps) so the
// bound stays admissible down to the last bit. Latency bounds need no
// backoff: the traversal-cycle constants are small integers, so the
// per-flow sums are integer-exact in float64.
const powerLBBackoff = 1 - 1e-9

// boundCapSlack is the multiplicative tolerance of the infeasibility
// checks. topology.Validate tolerates overload up to 1+1e-9, so proving
// a candidate infeasible requires exceeding capacity by strictly more;
// 1e-6 keeps a three-orders-of-magnitude safety margin.
const boundCapSlack = 1 + 1e-6

// errStagePruned is buildPoint's abort signal when the staged bound
// re-check (post-route, pre-floorplan) finds the candidate strictly
// dominated by an incumbent. It marks a pruned candidate, not an
// infeasible one.
var errStagePruned = errors.New("core: candidate pruned by staged incumbent bound")

// Prune outcomes of one candidate (evalOutcome.pruned).
const (
	pruneNone uint8 = iota
	// pruneBound: dismissed before evaluation — provable infeasibility
	// or an incumbent strictly dominating the candidate's lower bounds.
	pruneBound
	// pruneStage: evaluation started and was aborted at a staged bound
	// re-check inside buildPoint.
	pruneStage
)

// boundFlow is one intra-island flow in island-local core indices.
type boundFlow struct {
	a, b   int
	bw     float64
	maxLat float64
}

// boundEndpoint is one endpoint an inter-island flow pins inside an
// island: the local core index and the flow bandwidth the core's switch
// must carry.
type boundEndpoint struct {
	local int
	bw    float64
}

// boundsEnv precomputes, once per synthesis run, everything the
// candidate-local bounds need: per-island electrical facts, the flow
// structure in island-local indices, and the candidate-independent
// power and latency terms.
type boundsEnv struct {
	lib   *model.Library
	freqs []float64

	// Per island: the NoC supply the power model uses, the capacity of
	// any link touching the island, the largest switch size Validate
	// accepts at the island's clock, and the core count.
	volts   []float64
	linkCap []float64
	sizeCap []int
	nCores  []int

	// Per island: total inter-island bandwidth sourced/sunk there, the
	// intra-island flows, and the endpoints inter-island flows pin.
	interEgress  []float64
	interIngress []float64
	intra        [][]boundFlow
	interEnd     [][]boundEndpoint

	// fixedPowerW is the candidate-independent part of the power bound:
	// the exact NI dynamic sum, the admissible FIFO term, and (under
	// linkExact) the admissible per-inter-flow link term. latSumBase
	// is the latency-cycle sum with every intra flow at its same-switch
	// minimum; nFlows the divisor MeanLatencyCycles uses.
	fixedPowerW float64
	latSumBase  float64
	nFlows      int

	// linkExact is set under Floorplan.SkipAnnotate: link lengths then
	// stay at the power model's default, making link dynamic power a
	// pure function of routed traffic. The bounds gain an admissible
	// per-crossing link term (every cross-switch flow traverses at
	// least one link at the default length), and the staged re-check
	// can price the candidate's power exactly. With annotation on, the
	// floorplanner owns the lengths, which have no provable floor — the
	// link terms are then bounded by zero and pruning bites far less.
	linkExact bool

	// specInfeasible: some flow violates a bound no candidate can fix
	// (a latency constraint under the routing-model minimum, or a
	// bandwidth above every link capacity on its path class). Every
	// candidate of the sweep is then provably infeasible.
	specInfeasible bool
}

// newBoundsEnv builds the bounds environment for one run. freqs and
// islandCores are the step-1/2 outcomes the run already computed.
func newBoundsEnv(spec *soc.Spec, lib *model.Library, opt Options, freqs []float64, islandCores [][]soc.CoreID) *boundsEnv {
	nIsl := len(spec.Islands)
	be := &boundsEnv{
		lib:          lib,
		freqs:        freqs,
		volts:        make([]float64, nIsl),
		linkCap:      make([]float64, nIsl),
		sizeCap:      make([]int, nIsl),
		nCores:       make([]int, nIsl),
		interEgress:  make([]float64, nIsl),
		interIngress: make([]float64, nIsl),
		intra:        make([][]boundFlow, nIsl),
		interEnd:     make([][]boundEndpoint, nIsl),
		nFlows:       len(spec.Flows),
		linkExact:    opt.Floorplan.SkipAnnotate,
	}
	for j := 0; j < nIsl; j++ {
		be.volts[j] = spec.Islands[j].VoltageV
		if opt.AutoVoltage {
			be.volts[j] = lib.VoltageForFreq(freqs[j])
		}
		be.linkCap[j] = lib.LinkCapacityBps(freqs[j])
		// The largest size Validate accepts: it rejects switches whose
		// SwitchMaxFreqHz falls below the island clock minus 1 Hz.
		be.sizeCap[j] = lib.MaxSwitchSize(freqs[j] - 1)
		be.nCores[j] = len(islandCores[j])
	}
	local := make([]int, len(spec.Cores))
	for j := range islandCores {
		for i, c := range islandCores[j] {
			local[c] = i
		}
	}
	minIntra := route.MinZeroLoadLatencyCycles(false, false)
	minInter := route.MinZeroLoadLatencyCycles(true, true)
	var fifoLB float64
	for _, f := range spec.Flows {
		s, d := spec.IslandOf[f.Src], spec.IslandOf[f.Dst]
		if s == d {
			be.intra[s] = append(be.intra[s], boundFlow{
				a: local[f.Src], b: local[f.Dst], bw: f.BandwidthBps, maxLat: f.MaxLatencyCycles,
			})
			be.latSumBase += minIntra
			if f.MaxLatencyCycles > 0 && f.MaxLatencyCycles < minIntra {
				be.specInfeasible = true
			}
			continue
		}
		be.interEgress[s] += f.BandwidthBps
		be.interIngress[d] += f.BandwidthBps
		be.interEnd[s] = append(be.interEnd[s], boundEndpoint{local: local[f.Src], bw: f.BandwidthBps})
		be.interEnd[d] = append(be.interEnd[d], boundEndpoint{local: local[f.Dst], bw: f.BandwidthBps})
		be.latSumBase += minInter
		if f.MaxLatencyCycles > 0 && f.MaxLatencyCycles < minInter {
			be.specInfeasible = true
		}
		// Any route of this flow leaves the source island and enters the
		// destination island, so some link on it is capped at the slower
		// of the two island clocks (the intermediate island clocks at
		// the maximum frequency and never lowers a link's capacity).
		minF := freqs[s]
		if freqs[d] < minF {
			minF = freqs[d]
		}
		if f.BandwidthBps > lib.LinkCapacityBps(minF)*boundCapSlack {
			be.specInfeasible = true
		}
		// Admissible FIFO term: a direct crossing synchronizes at
		// max(vSrc, vDst); a detour through the intermediate island has
		// a crossing out of the source (≥ vSrc) and one into the
		// destination (≥ vDst), the larger of which is ≥ max(vSrc, vDst)
		// — so every route's FIFO power is at least this single term.
		vLo, vHi := be.volts[s], be.volts[d]
		if vLo > vHi {
			vLo, vHi = vHi, vLo
		}
		fifoLB += lib.FIFODynPowerW(vLo, vHi, f.BandwidthBps)
		// Under SkipAnnotate every link is priced at the default length,
		// so an admissible link term exists: the flow's route traverses at
		// least one link whose max endpoint voltage is at least
		// max(vSrc, vDst), by the same crossing argument as the FIFO term
		// (dynamic scaling is monotone in voltage).
		if be.linkExact {
			fifoLB += lib.LinkDynPowerW(power.DefaultLinkLengthMM, vHi, f.BandwidthBps)
		}
	}
	// The NI term is exact, not a bound: NI traffic is the core's
	// aggregate egress+ingress regardless of topology, summed in core-ID
	// order exactly like the power package sums it.
	egress, ingress := spec.AggregateCoreBandwidth()
	var niW float64
	for c := range spec.Cores {
		niW += lib.NIDynPowerW(be.volts[spec.IslandOf[c]], egress[c]+ingress[c])
	}
	be.fixedPowerW = niW + fifoLB
	return be
}

// islandInfeasible is the stage-0 port-capacity proof for island j at k
// switches, requiring no partition: k switches of at most sizeCap ports
// leave k*sizeCap - nCores ports free for links in each direction, every
// boundary link touching the island is capped at the island's link
// capacity, and all inter-island traffic sourced (sunk) in the island
// must cross boundary out-links (in-links). When the demand provably
// exceeds that headroom — or the cores cannot even fit on k maximal
// switches — no candidate using (j, k) can validate.
func (be *boundsEnv) islandInfeasible(j, k int) bool {
	freePorts := k*be.sizeCap[j] - be.nCores[j]
	if freePorts < 0 {
		return true
	}
	capW := float64(freePorts) * be.linkCap[j] * boundCapSlack
	return be.interEgress[j] > capW || be.interIngress[j] > capW
}

// islandPiece computes island j's contribution to the candidate-local
// bounds once its partition is known: the summed minimum switch dynamic
// power (each switch at least its attached cores plus one boundary port
// when any flow crosses it, carrying at least the traffic of the flows
// it terminates, plus — under linkExact — one default-length link per
// cross-switch flow), the number of intra-island flows the partition forces
// across switches (each raises that flow's latency minimum), and an
// island-local infeasibility verdict (a cross-switch flow whose latency
// constraint or bandwidth no link can meet).
func (be *boundsEnv) islandPiece(j, k int, part []int) (swPowerW float64, crossFlows int, infeasible bool) {
	if be.islandInfeasible(j, k) {
		return 0, 0, true
	}
	cores := make([]int, k)
	traffic := make([]float64, k)
	boundary := make([]bool, k)
	for _, p := range part {
		cores[p]++
	}
	minCross := route.MinZeroLoadLatencyCycles(true, false)
	for _, f := range be.intra[j] {
		pa, pb := part[f.a], part[f.b]
		if pa == pb {
			traffic[pa] += f.bw
			continue
		}
		crossFlows++
		if f.maxLat > 0 && f.maxLat < minCross {
			return 0, 0, true
		}
		if f.bw > be.linkCap[j]*boundCapSlack {
			return 0, 0, true
		}
		// Default-length link pricing: a cross-switch route has at least
		// one link, and its first link leaves a switch at this island's
		// supply, so its max endpoint voltage is at least volts[j].
		if be.linkExact {
			swPowerW += be.lib.LinkDynPowerW(power.DefaultLinkLengthMM, be.volts[j], f.bw)
		}
		traffic[pa] += f.bw
		traffic[pb] += f.bw
		boundary[pa] = true
		boundary[pb] = true
	}
	for _, e := range be.interEnd[j] {
		p := part[e.local]
		traffic[p] += e.bw
		boundary[p] = true
	}
	for p := 0; p < k; p++ {
		ports := cores[p]
		if boundary[p] {
			// A switch with a cross-boundary flow endpoint has at least
			// one inter-switch link, so its size is at least cores+1.
			ports++
		}
		swPowerW += be.lib.SwitchDynPowerW(ports, be.freqs[j], be.volts[j], traffic[p])
	}
	return swPowerW, crossFlows, false
}

// combine folds the summed per-island switch-power pieces and the
// cross-switch intra-flow count into the final candidate bounds.
func (be *boundsEnv) combine(swPowerW float64, crossFlows int) (powerLB, latLB float64) {
	powerLB = (be.fixedPowerW + swPowerW) * powerLBBackoff
	if be.nFlows > 0 {
		step := route.MinZeroLoadLatencyCycles(true, false) - route.MinZeroLoadLatencyCycles(false, false)
		latLB = (be.latSumBase + step*float64(crossFlows)) / float64(be.nFlows)
	}
	return powerLB, latLB
}

// pruneSlot is one published incumbent: the exact headline metrics of a
// completed, violation-free design point and its candidate index.
type pruneSlot struct {
	idx  uint64
	p, l float64
}

// incumbentPruner is the monotonically-tightening shared bound. Four
// atomic slots hold the best published point under four scalarization
// keys — min power, min latency, min sum, min product — so candidates
// weak in either single dimension or balanced across both can all find
// a dominating witness. Slots only ever tighten (CAS min-loop), and a
// candidate is pruned only when a slot strictly dominates its lower
// bounds in BOTH dimensions with a strictly smaller candidate index —
// provable dominance, so which worker tightened a slot first never
// changes the winner set.
type incumbentPruner struct {
	slots [4]atomic.Pointer[pruneSlot]
}

func pruneKey(k int, p, l float64) float64 {
	switch k {
	case 0:
		return p
	case 1:
		return l
	case 2:
		return p + l
	default:
		return p * l
	}
}

// publish offers a completed violation-free point (exact power and mean
// latency) as an incumbent. Each slot keeps the strictly smaller key;
// ties keep the established incumbent.
func (ip *incumbentPruner) publish(idx uint64, p, l float64) {
	var s *pruneSlot
	for k := range ip.slots {
		key := pruneKey(k, p, l)
		for {
			old := ip.slots[k].Load()
			if old != nil && pruneKey(k, old.p, old.l) <= key {
				break
			}
			if s == nil {
				s = &pruneSlot{idx: idx, p: p, l: l}
			}
			if ip.slots[k].CompareAndSwap(old, s) {
				break
			}
		}
	}
}

// dominates reports whether any published incumbent with candidate
// index strictly below beforeIdx strictly dominates the given lower
// bounds in both dimensions. beforeIdx restricts witnesses to earlier
// candidates (Synthesize's canonical fold re-derives exactly these
// decisions); the streaming sweep passes MaxUint64 because its
// collectors are winner-invariant under any published witness.
func (ip *incumbentPruner) dominates(beforeIdx uint64, powerLB, latencyLB float64) bool {
	for k := range ip.slots {
		if s := ip.slots[k].Load(); s != nil && s.idx < beforeIdx && s.p < powerLB && s.l < latencyLB {
			return true
		}
	}
	return false
}

// prunedBy is Synthesize's canonical fold-time pruning decision for one
// completed candidate: scanned against the kept points so far (in fold
// order, all from earlier candidates), the candidate is discarded when
// a violation-free kept point strictly dominates either its
// pre-evaluation lower bounds (pruneBound) or its exact post-route
// metrics — power as the stage-2 check in buildPoint priced it, final
// mean latency (pruneStage). linkExact must mirror buildPoint's choice:
// the full dynamic power under Floorplan.SkipAnnotate (lengths stay at
// the default, so the post-route figure is final), power sans the
// link-wire terms otherwise. The decision depends only on earlier
// candidates' kept status and exact metrics, never on worker timing;
// any worker-side prune of this candidate implies the same verdict here
// (the worker's witness is either kept, or was itself discarded by a
// kept point that strictly dominates it transitively), which is what
// keeps Points identical across worker counts.
func prunedBy(kept []DesignPoint, out evalOutcome, linkExact bool) uint8 {
	if len(kept) == 0 {
		return pruneNone
	}
	dp := out.dp
	b := dp.NoCPower
	if !linkExact {
		b.LinkDynW = 0 // bit-equal to the stage-2 power.NoCSansLinkWires sum
	}
	p2 := b.DynW()
	l2 := dp.MeanLatencyCycles
	for i := range kept {
		q := &kept[i]
		if q.WireViolations != 0 {
			continue
		}
		qp, ql := q.NoCPower.DynW(), q.MeanLatencyCycles
		if qp < out.powerLB && ql < out.latLB {
			return pruneBound
		}
		if qp < p2 && ql < l2 {
			return pruneStage
		}
	}
	return pruneNone
}
