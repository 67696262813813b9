// Package sim provides a deterministic discrete-event simulator for
// synthesized NoC topologies. It models each packet's header latency
// through the network — NI injection link, per-switch pipeline delay,
// inter-switch links, and the bi-synchronous FIFO penalty on island
// crossings — together with output-port contention: a port serializes
// one packet at a time at the link clock (wormhole-style occupation),
// and packets queue FIFO behind it. Buffers are unbounded, so every
// injected packet is delivered: the simulator measures latency and
// load, not delivery or deadlock.
//
// Clock domains are honoured in continuous time: every island runs at
// its own period, links run at the slower of their endpoints, and the
// converter penalty is paid in cycles of the slower side — matching the
// GALS architecture of §3.1.
//
// The simulator validates the analytic zero-load latencies used by the
// synthesis flow (Fig. 3) and measures a design under load, optionally
// with islands power gated. The shutdown guarantee itself — no route
// between powered islands enters a gated switch — is a structural
// property proven by topology.ValidateShutdownSafeMask, which Run
// applies to any gating mask before simulating.
package sim

import (
	"fmt"
	"math"
	"strconv"

	"nocvi/internal/model"
	"nocvi/internal/soc"
	"nocvi/internal/topology"
)

// packetFlits is the packet length in flits; the header sees the
// pipeline latency, the tail occupies ports.
const packetFlits = 8

// MaxPlannedPackets caps the packets one periodic run may inject. Run
// plans the count before it simulates as the sum over active flows of
// ⌈duration/interval⌉ (the run itself may inject a packet more per
// flow, as the accumulated injection time drifts), and refuses a run
// planned above the cap with a *PacketBudgetError instead of running
// for hours. The largest configuration the experiments use (the D26
// load sweep at 8x load over 50 µs) plans 35,192 packets; D26 at the
// cap simulates in about 1.3 s on a 2-vCPU x86-64 guest, and a traced
// run keeps 32 bytes per packet.
const MaxPlannedPackets = 10_000_000

// PacketBudgetError reports a run whose planned packet count exceeds
// MaxPlannedPackets. Planned is a float64 because the count of an
// extreme input overflows every integer type.
type PacketBudgetError struct {
	Planned    float64 // Σ⌈duration/interval⌉ over the active flows
	DurationNs float64 // the injection horizon in effect
	Scale      float64 // the injection scale in effect
}

func (e *PacketBudgetError) Error() string {
	g := func(v float64, prec int) string { return strconv.FormatFloat(v, 'g', prec, 64) }
	return "sim: " + g(e.Planned, 4) + " packets planned over " + g(e.DurationNs, -1) +
		" ns at injection scale " + g(e.Scale, -1) + ", above the cap of " + strconv.Itoa(MaxPlannedPackets)
}

// Config controls a simulation run.
type Config struct {
	// DurationNs is the injection horizon: packets are injected from
	// t=0 to t=DurationNs, then the network drains. Zero or negative
	// selects 10 µs; NaN and ±Inf are rejected.
	DurationNs float64

	// InjectionScale multiplies every flow's bandwidth (1 = the spec's
	// rates; raise it to probe saturation). Zero or negative selects 1;
	// NaN and ±Inf are rejected, and so is a scale at which a flow's
	// rate overflows.
	InjectionScale float64

	// Off power-gates the marked spec islands: their flows are not
	// injected. Run first proves the mask safe with
	// topology.ValidateShutdownSafeMask and returns its error, so a
	// route through a gated switch is refused, not simulated.
	Off []bool

	// SinglePacket injects exactly one packet per flow, spaced far
	// apart, so every measurement is a true zero-load header latency
	// (used to validate the analytic Fig. 3 numbers). DurationNs and
	// InjectionScale are ignored in this mode.
	SinglePacket bool

	// replay, when set, overrides all injection scheduling: route ri
	// injects at the ascending times replay[ri] (see Replay).
	replay [][]float64
}

func (c Config) duration() float64 {
	if c.DurationNs <= 0 {
		return 10_000
	}
	return c.DurationNs
}

func (c Config) scale() float64 {
	if c.InjectionScale <= 0 {
		return 1
	}
	return c.InjectionScale
}

// FlowStats reports one flow's outcome.
type FlowStats struct {
	Flow      soc.Flow
	Active    bool // false when an endpoint island is gated
	Sent      int
	Delivered int
	// MeanLatencyNs and MaxLatencyNs are header latencies source-NI to
	// destination-NI.
	MeanLatencyNs float64
	MaxLatencyNs  float64
	// MeanLatencyCycles converts the mean to cycles of the source
	// island's NoC clock.
	MeanLatencyCycles float64
}

// Result aggregates a run.
type Result struct {
	PerFlow []FlowStats
	Sent    int
	Deliver int
	// MeanLatencyNs is packet-weighted; MeanFlowLatencyCycles averages
	// per-flow mean cycles (the Fig. 3 aggregation).
	MeanLatencyNs         float64
	MeanFlowLatencyCycles float64

	// MaxLatencyNs is the worst header latency observed.
	MaxLatencyNs float64

	// ThroughputBps is the delivered payload rate over the injection
	// horizon (bytes/second).
	ThroughputBps float64
}

// Run simulates the topology under the configuration.
func Run(top *topology.Topology, cfg Config) (*Result, error) {
	return runInternal(top, cfg, nil)
}

// runInternal is Run plus an optional per-delivery record callback.
func runInternal(top *topology.Topology, cfg Config, record func(PacketRecord)) (*Result, error) {
	if len(top.Routes) != len(top.Spec.Flows) {
		return nil, fmt.Errorf("sim: topology has %d routes for %d flows; synthesize first",
			len(top.Routes), len(top.Spec.Flows))
	}
	// A non-finite horizon or scale never ends the injection loop (an
	// infinite horizon, or a zero interval that never advances time) or
	// turns every latency into NaN.
	for _, v := range []float64{cfg.DurationNs, cfg.InjectionScale} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("sim: duration %g ns and injection scale %g must be finite",
				cfg.DurationNs, cfg.InjectionScale)
		}
	}
	if cfg.Off != nil {
		if err := top.ValidateShutdownSafeMask(cfg.Off); err != nil {
			return nil, err
		}
	}
	gated := func(isl soc.IslandID) bool {
		return cfg.Off != nil && int(isl) < len(cfg.Off) && cfg.Off[isl]
	}

	period := func(sw topology.SwitchID) float64 { return 1e9 / top.IslandFreqHz[top.Switches[sw].Island] }

	// Output-port free times: injection ports (one per core), link
	// ports (one per link), ejection ports (one per core).
	injFree := make([]float64, len(top.Spec.Cores))
	linkFree := make([]float64, len(top.Links))
	ejFree := make([]float64, len(top.Spec.Cores))

	res := &Result{PerFlow: make([]FlowStats, len(top.Routes))}
	flits := float64(packetFlits)
	bytesPerPacket := flits * float64(top.Lib.LinkWidthBits) / 8

	// Each flow has at most one pending injection: next[ri] is its
	// time, +Inf once the flow has no more. A periodic flow advances by
	// interval[ri], a replayed one to the next time in its list.
	next := make([]float64, len(top.Routes))
	interval := make([]float64, len(top.Routes))
	replayed := make([]int, len(top.Routes)) // injections taken from cfg.replay[ri]
	planned := 0.0                           // periodic injections, bounded by MaxPlannedPackets
	for ri := range top.Routes {
		f := &top.Spec.Flows[top.Routes[ri].Flow]
		fs := &res.PerFlow[ri]
		fs.Flow = *f
		next[ri] = math.Inf(1)
		if gated(top.Spec.IslandOf[f.Src]) || gated(top.Spec.IslandOf[f.Dst]) {
			continue
		}
		fs.Active = true
		switch {
		case cfg.replay != nil:
			if len(cfg.replay[ri]) > 0 {
				next[ri] = cfg.replay[ri][0]
			}
		case cfg.SinglePacket:
			// One packet per flow, spaced so nothing ever queues.
			next[ri] = float64(ri) * 100_000
		default:
			rate := f.BandwidthBps * cfg.scale()
			iv := bytesPerPacket / rate * 1e9 // ns between packets
			// A rate that overflows gives a zero interval, which never
			// advances time; one that underflows, an infinite one.
			if !(iv > 0) || math.IsInf(iv, 1) {
				return nil, fmt.Errorf("sim: flow %d->%d at %g B/s scaled by %g has packet interval %g ns; it must be positive and finite",
					f.Src, f.Dst, f.BandwidthBps, cfg.scale(), iv)
			}
			interval[ri] = iv
			planned += math.Ceil(cfg.duration() / iv)
			// Stagger first injections deterministically per flow.
			first := iv * float64(ri%7) / 7
			if first >= cfg.duration() {
				first = 0
			}
			next[ri] = first
		}
	}
	if planned > MaxPlannedPackets {
		return nil, &PacketBudgetError{Planned: planned, DurationNs: cfg.duration(), Scale: cfg.scale()}
	}

	for {
		// The earliest pending injection, the lowest flow on a tie.
		ri := 0
		for f := range next {
			if next[f] < next[ri] {
				ri = f
			}
		}
		now := next[ri]
		if math.IsInf(now, 1) {
			break
		}
		switch {
		case cfg.replay != nil:
			replayed[ri]++
			next[ri] = math.Inf(1)
			if replayed[ri] < len(cfg.replay[ri]) {
				next[ri] = cfg.replay[ri][replayed[ri]]
			}
		case cfg.SinglePacket:
			next[ri] = math.Inf(1)
		default:
			next[ri] = now + interval[ri]
			if next[ri] >= cfg.duration() {
				next[ri] = math.Inf(1)
			}
		}

		f := &top.Spec.Flows[top.Routes[ri].Flow]
		links := top.PathLinks(top.Routes[ri].Links)
		fs := &res.PerFlow[ri]
		fs.Sent++
		res.Sent++

		src := f.Src
		sw := top.WalkSwitch(*f, links, 0)
		srcPeriod := period(sw)

		// NI injection link: one cycle of the island clock, port
		// occupied for the serialization time.
		depart := math.Max(now, injFree[src])
		injFree[src] = depart + flits*srcPeriod
		t := depart + model.LinkTraversalCycles*srcPeriod

		// Hop through switches; sw ends on the last one.
		for i := 0; ; i++ {
			t += model.SwitchTraversalCycles * period(sw)
			if i == len(links) {
				break
			}
			lid := links[i]
			l := &top.Links[lid]
			sw = l.To
			lp := 1e9 / top.LinkFreqHz(l.From, l.To)
			d := math.Max(t, linkFree[lid])
			linkFree[lid] = d + flits*lp
			t = d + model.LinkTraversalCycles*lp
			if top.CrossesIslands(l.From, l.To) {
				t += model.FIFOCrossingCycles * lp
			}
		}

		// Ejection link to the destination NI.
		lp := period(sw)
		d := math.Max(t, ejFree[f.Dst])
		ejFree[f.Dst] = d + flits*lp
		t = d + model.LinkTraversalCycles*lp

		lat := t - now
		if record != nil {
			record(PacketRecord{
				Src: f.Src, Dst: f.Dst,
				InjectNs: now, ArriveNs: t, LatencyNs: lat,
			})
		}
		fs.Delivered++
		res.Deliver++
		fs.MeanLatencyNs += lat
		if lat > fs.MaxLatencyNs {
			fs.MaxLatencyNs = lat
		}
		if lat > res.MaxLatencyNs {
			res.MaxLatencyNs = lat
		}
		res.MeanLatencyNs += lat
	}

	var flowCycleSum float64
	activeFlows := 0
	for ri := range res.PerFlow {
		fs := &res.PerFlow[ri]
		if fs.Delivered > 0 {
			fs.MeanLatencyNs /= float64(fs.Delivered)
			srcIsl := top.Spec.IslandOf[fs.Flow.Src]
			fs.MeanLatencyCycles = fs.MeanLatencyNs * top.IslandFreqHz[srcIsl] / 1e9
			flowCycleSum += fs.MeanLatencyCycles
			activeFlows++
		}
	}
	if res.Deliver > 0 {
		res.MeanLatencyNs /= float64(res.Deliver)
	}
	if activeFlows > 0 {
		res.MeanFlowLatencyCycles = flowCycleSum / float64(activeFlows)
	}
	if !cfg.SinglePacket {
		res.ThroughputBps = float64(res.Deliver) * bytesPerPacket / (cfg.duration() * 1e-9)
	}
	return res, nil
}
