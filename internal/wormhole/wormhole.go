// Package wormhole is a flit-level, cycle-accurate simulator of the
// synthesized NoC with finite input buffers, credit-based flow control
// and round-robin switch allocation — the detailed counterpart of the
// queueing-level model in internal/sim.
//
// Where internal/sim measures latency under idealized infinite buffers,
// this engine models the real wormhole mechanics: a packet's head flit
// allocates an output port, its body streams behind it, and a blocked
// head holds buffer space upstream — which is exactly how routing-
// induced deadlock manifests. A topology whose channel dependency graph
// is cyclic (see internal/deadlock) can livelock into a stable circular
// wait here; the simulator detects that as "no flit moved for a full
// drain window while packets are in flight" and reports it. Synthesized
// topologies must never trigger it.
//
// To keep flit timing exact the engine runs all routers on a single
// clock: it is a *functional* validator (deadlock, ordering, delivery,
// bounded buffers), while performance across clock domains is the job
// of internal/sim. Island-crossing links model the bi-synchronous FIFO
// as extra pipeline stages on the link.
package wormhole

import (
	"fmt"
	"sort"
	"strconv"

	"nocvi/internal/model"
	"nocvi/internal/topology"
)

// Config controls a wormhole simulation. Run refuses a config over its
// budget (MaxBufferFlits, MaxPackets, MaxCycles) with a *BudgetError.
type Config struct {
	// BufferFlits is the depth of each input buffer (default 4).
	BufferFlits int
	// PacketsPerFlow is how many packets each flow injects (default 4).
	PacketsPerFlow int
	// InjectionGapCycles spaces a flow's packets apart (default 16).
	InjectionGapCycles int
}

// Run's budget. Every input port preallocates BufferFlits flits and a
// run preallocates its PacketsPerFlow × routes packets, so both are
// capped before anything is allocated; a schedule whose last injection
// falls at or past MaxCycles could never inject every packet. The
// largest configs that nocbench -exp all and the tests run use 8-flit
// buffers, 600 packets (d48_network at 8 per flow) and a last injection
// at cycle 116 (8 packets 16 cycles apart, plus the route stagger).
const (
	// MaxBufferFlits caps Config.BufferFlits.
	MaxBufferFlits = 1024
	// MaxPackets caps PacketsPerFlow × routes.
	MaxPackets = 1_000_000
	// MaxCycles aborts pathological runs.
	MaxCycles = 2_000_000
)

// BudgetError reports a config over one of Run's caps; Run returns it
// before it allocates anything.
type BudgetError struct {
	What string // "BufferFlits", "PacketsPerFlow × routes" or "last injection cycle"
	// Value is a float64 because the product of two extreme ints
	// overflows every integer type.
	Value float64
	Cap   int
}

func (e *BudgetError) Error() string {
	return "wormhole: " + e.What + " " + strconv.FormatFloat(e.Value, 'g', -1, 64) +
		" is above the cap of " + strconv.Itoa(e.Cap)
}

const (
	// packetFlits is the packet length including head and tail.
	packetFlits = 8
	// deadlockWindow is the number of consecutive cycles without any
	// flit movement (while flits are in flight) after which the run is
	// declared deadlocked.
	deadlockWindow = 10_000
	// wireSlots is one more than the longest link delay (an island
	// crossing), so a flit sent this cycle never lands in the slot
	// being drained.
	wireSlots = int(model.LinkTraversalCycles+model.FIFOCrossingCycles) + 1
)

func (c Config) buf() int {
	if c.BufferFlits <= 0 {
		return 4
	}
	return c.BufferFlits
}

func (c Config) perFlow() int {
	if c.PacketsPerFlow <= 0 {
		return 4
	}
	return c.PacketsPerFlow
}

func (c Config) gap() int {
	if c.InjectionGapCycles <= 0 {
		return 16
	}
	return c.InjectionGapCycles
}

// budget checks c against Run's caps for a topology of routes routes.
// Packet p of route ri is scheduled at p·gap + ri%5.
func (c Config) budget(routes int) error {
	if buf := c.buf(); buf > MaxBufferFlits {
		return &BudgetError{What: "BufferFlits", Value: float64(buf), Cap: MaxBufferFlits}
	}
	if pk := float64(c.perFlow()) * float64(routes); pk > MaxPackets {
		return &BudgetError{What: "PacketsPerFlow × routes", Value: pk, Cap: MaxPackets}
	}
	if last := float64(c.perFlow()-1)*float64(c.gap()) + float64(min(routes-1, 4)); last > MaxCycles-1 {
		return &BudgetError{What: "last injection cycle", Value: last, Cap: MaxCycles - 1}
	}
	return nil
}

// Result summarizes a run.
type Result struct {
	Cycles    int
	Injected  int
	Delivered int
	// Deadlocked is true when the run stalled with flits in flight.
	Deadlocked bool
	// MeanLatencyCycles / MaxLatencyCycles are head-injection to
	// tail-ejection packet latencies.
	MeanLatencyCycles float64
	MaxLatencyCycles  int
	// PeakBufferFlits is the highest observed occupancy of any input
	// buffer (must never exceed Config.BufferFlits).
	PeakBufferFlits int
}

// flit is one flow-control unit in flight.
type flit struct {
	packet *packet
	isHead bool
	isTail bool
}

// packet tracks one packet's route progress and timing.
type packet struct {
	route  *topology.Route
	ri     int // index of route in top.Routes and e.routeOut
	hop    int // index into the route's switch walk of the switch the head occupies/approaches
	inject int // cycle the head entered the network
}

// port is an input buffer at a switch. Flits queue in order in q,
// whose capacity is the buffer depth; credits mirror free space
// upstream.
type port struct {
	q []flit
	// up is the upstream link output whose credits mirror this
	// buffer; nil for a core injection port, which the NI fills by
	// checking free() directly.
	up *outState
}

func (p *port) free() int { return cap(p.q) - len(p.q) }

// push appends a flit and records the buffer's occupancy.
func (p *port) push(f flit, res *Result) {
	if len(p.q) == cap(p.q) {
		panic("wormhole: buffer overflow — credit protocol broken")
	}
	p.q = append(p.q, f)
	if len(p.q) > res.PeakBufferFlits {
		res.PeakBufferFlits = len(p.q)
	}
}

// pop removes the head flit, keeping the backing array for reuse.
func (p *port) pop() {
	copy(p.q, p.q[1:])
	p.q = p.q[:len(p.q)-1]
}

// outState tracks an output port's wormhole allocation and round-robin
// pointer.
type outState struct {
	// owner is the input port index currently streaming a packet
	// through this output, -1 when idle.
	owner int
	// rr is the round-robin arbitration pointer.
	rr int
	// credits available toward the downstream buffer.
	credits int
	// latency (pipeline depth) of the link behind this output.
	linkDelay int
	// downstream target: switch input port, or core ejection.
	dstSwitch int // -1 for ejection
	dstPort   int
}

// arrival is a flit on a link bound for input port dstPort of switch
// sw, or for ejection at a core when sw is -1.
type arrival struct {
	flit    flit
	sw      int
	dstPort int
}

// engine is the per-run state.
type engine struct {
	top *topology.Topology
	cfg Config

	// Per switch: input ports and output states. Input port order:
	// attached cores first (injection), then incoming links (by LinkID).
	// Output order: attached cores first (ejection), then outgoing
	// links (by LinkID).
	inPorts  [][]*port
	outs     [][]*outState
	outIndex []int // by LinkID (a link's index in top.Links): output index at l.From
	coreIn   []int // by CoreID: injection port index at its switch
	coreOut  []int // by CoreID: ejection output index at its switch

	// Per-route output port sequence (hop i: output index at switch i).
	routeOut [][]int

	// wire holds the flits on links: a flit sent at cycle c over a link
	// of delay d waits in slot (c+d) % wireSlots, drained at cycle c+d.
	// Each input port is fed by one output that sends at most one flit
	// per cycle, so no two flits in a slot reach the same port and the
	// order within a slot changes nothing.
	wire [wireSlots][]arrival
	res  Result
}

// Run simulates the routed topology.
func Run(top *topology.Topology, cfg Config) (*Result, error) {
	if len(top.Routes) == 0 {
		return nil, fmt.Errorf("wormhole: topology has no routes")
	}
	if err := cfg.budget(len(top.Routes)); err != nil {
		return nil, err
	}
	e := &engine{top: top, cfg: cfg}
	if err := e.build(); err != nil {
		return nil, err
	}
	e.simulate()
	return &e.res, nil
}

// build constructs ports, credits and per-route output sequences.
func (e *engine) build() error {
	top := e.top
	n := len(top.Switches)
	e.inPorts = make([][]*port, n)
	e.outs = make([][]*outState, n)
	e.outIndex = make([]int, len(top.Links))
	e.coreIn = make([]int, len(top.Spec.Cores))
	e.coreOut = make([]int, len(top.Spec.Cores))
	newPort := func(up *outState) *port {
		return &port{q: make([]flit, 0, e.cfg.buf()), up: up}
	}

	// Core NIs first, in ascending core order per switch.
	for c, si := range top.SwitchOf {
		if si < 0 {
			continue // unattached: no NI
		}
		e.coreIn[c] = len(e.inPorts[si])
		e.inPorts[si] = append(e.inPorts[si], newPort(nil))
		e.coreOut[c] = len(e.outs[si])
		e.outs[si] = append(e.outs[si], &outState{
			owner: -1, credits: 1 << 30, linkDelay: int(model.LinkTraversalCycles),
			dstSwitch: -1,
		})
	}
	// Links in LinkID order give deterministic port numbering.
	for i, l := range top.Links {
		from, to := int(l.From), int(l.To)
		delay := int(model.LinkTraversalCycles)
		if top.CrossesIslands(l.From, l.To) {
			delay += int(model.FIFOCrossingCycles)
		}
		out := &outState{
			owner: -1, credits: e.cfg.buf(), linkDelay: delay,
			dstSwitch: to, dstPort: len(e.inPorts[to]),
		}
		e.inPorts[to] = append(e.inPorts[to], newPort(out))
		e.outIndex[i] = len(e.outs[from])
		e.outs[from] = append(e.outs[from], out)
	}
	// Route output sequences.
	e.routeOut = make([][]int, len(top.Routes))
	for ri := range top.Routes {
		r := &top.Routes[ri]
		seq := make([]int, len(r.Links)+1)
		for i := range seq {
			if i == len(r.Links) {
				seq[i] = e.coreOut[r.Flow.Dst]
			} else {
				lid := r.Links[i]
				if lid < 0 || int(lid) >= len(top.Links) {
					return fmt.Errorf("wormhole: route %d uses unknown link %d", ri, lid)
				}
				seq[i] = e.outIndex[lid]
			}
		}
		e.routeOut[ri] = seq
	}
	return nil
}

// simulate runs the cycle loop.
func (e *engine) simulate() {
	top := e.top
	cfg := e.cfg

	type pending struct {
		route int
		at    int
	}
	// Injection is serialized PER CORE: an NI streams one packet at a
	// time into its switch port, so packets from different flows of the
	// same source core never interleave flits (wormhole queues must
	// hold packets contiguously).
	perCore := make([][]pending, len(top.Spec.Cores))
	for p := 0; p < cfg.perFlow(); p++ {
		for ri := range top.Routes {
			perCore[top.Routes[ri].Flow.Src] = append(perCore[top.Routes[ri].Flow.Src], pending{
				route: ri,
				at:    p*cfg.gap() + ri%5, // slight deterministic stagger
			})
		}
	}
	for c := range perCore {
		q := perCore[c]
		sort.SliceStable(q, func(i, j int) bool {
			if q[i].at != q[j].at {
				return q[i].at < q[j].at
			}
			return q[i].route < q[j].route
		})
	}
	packets := make([]packet, cfg.perFlow()*len(top.Routes))
	inFlightPkts := 0
	var latSum float64

	nextInj := make([]int, len(top.Spec.Cores))       // index into per-core list
	injecting := make([]*packet, len(top.Spec.Cores)) // packet streaming into the NI port
	injected := make([]int, len(top.Spec.Cores))      // flits of it already in

	idle := 0
	for cycle := 0; cycle < MaxCycles; cycle++ {
		moved := false

		// 1. Deliver the flits whose link traversal ends this cycle.
		slot := &e.wire[cycle%wireSlots]
		for _, a := range *slot {
			if a.sw < 0 {
				// Ejected at destination core.
				if a.flit.isTail {
					lat := cycle - a.flit.packet.inject
					latSum += float64(lat)
					if lat > e.res.MaxLatencyCycles {
						e.res.MaxLatencyCycles = lat
					}
					e.res.Delivered++
					inFlightPkts--
				}
			} else {
				e.inPorts[a.sw][a.dstPort].push(a.flit, &e.res)
			}
			moved = true
		}
		*slot = (*slot)[:0]

		// 2. Start a new packet at each NI whose turn has come (one
		// packet streams at a time per NI), and 3. stream injection
		// flits into the source switch's core input port (one flit per
		// cycle per NI, space permitting). Each NI feeds its own port.
		for c := range perCore {
			if injecting[c] == nil && nextInj[c] < len(perCore[c]) && perCore[c][nextInj[c]].at <= cycle {
				ri := perCore[c][nextInj[c]].route
				pk := &packets[e.res.Injected]
				*pk = packet{route: &top.Routes[ri], ri: ri, inject: cycle}
				injecting[c] = pk
				injected[c] = 0
				nextInj[c]++
				e.res.Injected++
				inFlightPkts++
			}
			pkt := injecting[c]
			if pkt == nil {
				continue
			}
			r := pkt.route
			sw := int(top.WalkSwitch(r.Flow, r.Links, 0))
			in := e.inPorts[sw][e.coreIn[r.Flow.Src]]
			if in.free() == 0 {
				continue
			}
			in.push(flit{packet: pkt, isHead: injected[c] == 0, isTail: injected[c] == packetFlits-1}, &e.res)
			injected[c]++
			if injected[c] == packetFlits {
				injecting[c] = nil
			}
			moved = true
		}

		// 4. Switch allocation and traversal: for each output port,
		// round-robin among inputs whose head flit wants it. Each output
		// is visited once, so it sends at most one flit per cycle.
		// Outputs are served in this fixed order, which decides credit
		// reuse.
		for si := range e.outs {
			for oi, out := range e.outs[si] {
				// Find the input to serve.
				serve := -1
				if out.owner >= 0 {
					serve = out.owner
				} else {
					nin := len(e.inPorts[si])
					for k := 0; k < nin; k++ {
						cand := (out.rr + k) % nin
						p := e.inPorts[si][cand]
						if len(p.q) == 0 || !p.q[0].isHead {
							continue
						}
						if e.wantsOutput(si, p.q[0], oi) {
							serve = cand
							out.rr = (cand + 1) % nin
							break
						}
					}
				}
				if serve < 0 {
					continue
				}
				p := e.inPorts[si][serve]
				if len(p.q) == 0 || out.credits <= 0 {
					continue
				}
				// Move the flit.
				f := p.q[0]
				p.pop()
				out.credits--
				if f.isHead {
					out.owner = serve
					f.packet.hop++
				}
				if f.isTail {
					out.owner = -1
				}
				at := &e.wire[(cycle+out.linkDelay)%wireSlots]
				*at = append(*at, arrival{flit: f, sw: out.dstSwitch, dstPort: out.dstPort})
				// Credit return to the upstream link feeding this input
				// happens when the flit leaves the buffer.
				if up := p.up; up != nil {
					up.credits++
					if up.credits > e.cfg.buf() {
						panic("wormhole: credit overflow — protocol broken")
					}
				}
				moved = true
			}
		}

		if moved {
			idle = 0
		} else {
			idle++
		}
		e.res.Cycles = cycle + 1
		// A packet still streaming into its NI is in flight too.
		if inFlightPkts == 0 && e.res.Injected == len(packets) {
			break
		}
		if idle >= deadlockWindow {
			e.res.Deadlocked = true
			break
		}
	}
	if e.res.Delivered > 0 {
		e.res.MeanLatencyCycles = latSum / float64(e.res.Delivered)
	}
}

// wantsOutput reports whether a head flit at switch si requests output oi.
func (e *engine) wantsOutput(si int, f flit, oi int) bool {
	pk := f.packet
	seq := e.routeOut[pk.ri]
	return pk.hop < len(seq) && e.hopSwitch(pk) == si && seq[pk.hop] == oi
}

// hopSwitch returns the switch at index pk.hop of pk's route walk.
func (e *engine) hopSwitch(pk *packet) int {
	return int(e.top.WalkSwitch(pk.route.Flow, pk.route.Links, pk.hop))
}
