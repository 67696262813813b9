// Package netlist emits a structural Verilog view of a synthesized
// topology, the hand-off the paper's flow makes to the physical design
// backend ("the synthesis method can be plugged in our design flow [15]
// in order to generate fully implementable NoCs").
//
// The generated file is self-contained: behavioral leaf modules for the
// network interface (noc_ni), the wormhole switch (noc_switch) and the
// bi-synchronous FIFO converter (noc_bisync_fifo), plus a noc_top that
// instantiates one NI per core, the synthesized switches, and one
// converter per island-crossing link, wired exactly as the topology
// dictates. Routing is source routing (as in ×pipes): each NI owns a
// table of output-port sequences per destination, emitted as localparam
// data, and switches simply consume the next hop field — so the RTL
// needs no per-switch routing tables and no two flows can disagree.
package netlist

import (
	"fmt"
	"strings"

	"nocvi/internal/soc"
	"nocvi/internal/topology"
)

// fifoDepth is the bi-synchronous converter depth in flits.
const fifoDepth = 8

// Config tunes the generated RTL.
type Config struct {
	// HopBits is the width of one source-route hop field (default 4,
	// which caps switches at 16 ports — matching realistic max_sw_size).
	HopBits int
}

func (c Config) hopBits() int {
	if c.HopBits <= 0 {
		return 4
	}
	return c.HopBits
}

// hopBitsFor auto-sizes the hop field to the largest switch when the
// caller left HopBits at zero.
func (c Config) hopBitsFor(maxPorts int) int {
	if c.HopBits > 0 {
		return c.HopBits
	}
	bits := 4
	for (1 << bits) < maxPorts {
		bits++
	}
	return bits
}

// Generate returns the complete Verilog source for the topology.
func Generate(top *topology.Topology, cfg Config) (string, error) {
	largest := 0
	for i := range top.Switches {
		if sz := top.SwitchSize(topology.SwitchID(i)); sz > largest {
			largest = sz
		}
	}
	cfg.HopBits = cfg.hopBitsFor(largest)
	if maxPorts := 1 << cfg.hopBits(); largest > maxPorts {
		return "", fmt.Errorf("netlist: switch with %d ports exceeds %d-bit hop field",
			largest, cfg.hopBits())
	}
	routes, err := sourceRoutes(top)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	header(&b, top)
	leafModules(&b, top, cfg)
	topModule(&b, top, cfg, routes)
	return b.String(), nil
}

// hopSeq is the output-port sequence a packet follows from its source
// switch to the destination NI.
type hopSeq struct {
	src, dst soc.CoreID
	ports    []int
}

// sourceRoutes converts each topology route into per-switch output port
// indices. Port numbering per switch: core NIs first (in ascending core
// order), then outgoing links in LinkID order.
func sourceRoutes(top *topology.Topology) ([]hopSeq, error) {
	// outPort[sw] maps "link id" or "core id" to the switch's output
	// port index, which is the number of ports numbered before it.
	type portKey struct {
		link topology.LinkID
		core soc.CoreID
	}
	outPort := make([]map[portKey]int, len(top.Switches))
	for i := range outPort {
		outPort[i] = map[portKey]int{}
	}
	for c, sw := range top.SwitchOf {
		if sw >= 0 {
			outPort[sw][portKey{link: -1, core: soc.CoreID(c)}] = len(outPort[sw])
		}
	}
	for li, l := range top.Links {
		outPort[l.From][portKey{link: topology.LinkID(li), core: -1}] = len(outPort[l.From])
	}
	var out []hopSeq
	var walk []topology.SwitchID
	for ri := range top.Routes {
		r := &top.Routes[ri]
		seq := hopSeq{src: r.Flow.Src, dst: r.Flow.Dst}
		walk = top.Walk(walk, r.Flow, r.Links)
		for i, sw := range walk {
			var key portKey
			if i == len(r.Links) {
				key = portKey{link: -1, core: r.Flow.Dst}
			} else {
				key = portKey{link: r.Links[i], core: -1}
			}
			p, ok := outPort[sw][key]
			if !ok {
				return nil, fmt.Errorf("netlist: switch %d has no port for route %d->%d hop %d",
					sw, r.Flow.Src, r.Flow.Dst, i)
			}
			seq.ports = append(seq.ports, p)
		}
		out = append(out, seq)
	}
	return out, nil
}

func header(b *strings.Builder, top *topology.Topology) {
	fmt.Fprintf(b, "// Auto-generated NoC netlist for %q\n", top.Spec.Name)
	fmt.Fprintf(b, "// %d switches (%d indirect), %d links, %d routed flows, %d voltage islands\n",
		len(top.Switches), top.IndirectSwitchCount(), len(top.Links), len(top.Routes), top.NumIslands())
	for i := 0; i < top.NumIslands(); i++ {
		name := "noc_vi"
		if i < len(top.Spec.Islands) {
			name = top.Spec.Islands[i].Name
		}
		fmt.Fprintf(b, "//   island %d (%s): %.0f MHz, %.2f V\n",
			i, name, top.IslandFreqHz[i]/1e6, top.IslandVoltage[i])
	}
	b.WriteString("\n`timescale 1ns/1ps\n\n")
}

func leafModules(b *strings.Builder, top *topology.Topology, cfg Config) {
	w := top.Lib.LinkWidthBits
	hb := cfg.hopBits()
	fmt.Fprintf(b, `// Network interface: protocol conversion + clock crossing to the
// island NoC clock + source-route prepending.
module noc_ni #(
    parameter WIDTH    = %d,
    parameter HOPBITS  = %d,
    parameter MAXHOPS  = 8
) (
    input  wire                 clk_core,
    input  wire                 clk_noc,
    input  wire                 rst_n,
    // core side
    input  wire [WIDTH-1:0]     core_tx_data,
    input  wire                 core_tx_valid,
    output wire                 core_tx_ready,
    output wire [WIDTH-1:0]     core_rx_data,
    output wire                 core_rx_valid,
    input  wire                 core_rx_ready,
    // network side
    output wire [WIDTH-1:0]     net_tx_data,
    output wire                 net_tx_valid,
    input  wire                 net_tx_ready,
    input  wire [WIDTH-1:0]     net_rx_data,
    input  wire                 net_rx_valid,
    output wire                 net_rx_ready
);
    // Behavioral model: a two-entry skid buffer per direction with the
    // source-route header injected ahead of each packet. Synthesizable
    // replacements plug in here.
    assign net_tx_data   = core_tx_data;
    assign net_tx_valid  = core_tx_valid;
    assign core_tx_ready = net_tx_ready;
    assign core_rx_data  = net_rx_data;
    assign core_rx_valid = net_rx_valid;
    assign net_rx_ready  = core_rx_ready;
endmodule

`, w, hb)

	fmt.Fprintf(b, `// Wormhole switch: NIN x NOUT crossbar, round-robin output
// arbitration, next-hop field consumed from the source route.
module noc_switch #(
    parameter NIN     = 4,
    parameter NOUT    = 4,
    parameter WIDTH   = %d,
    parameter HOPBITS = %d
) (
    input  wire                     clk,
    input  wire                     rst_n,
    input  wire [NIN*WIDTH-1:0]     in_data,
    input  wire [NIN-1:0]           in_valid,
    output wire [NIN-1:0]           in_ready,
    output wire [NOUT*WIDTH-1:0]    out_data,
    output wire [NOUT-1:0]          out_valid,
    input  wire [NOUT-1:0]          out_ready
);
    // Behavioral model: port 0 pass-through placeholder for the
    // arbitration + crossbar logic.
    genvar gi;
    generate
        for (gi = 0; gi < NOUT; gi = gi + 1) begin : g_out
            assign out_data[(gi+1)*WIDTH-1:gi*WIDTH] =
                in_data[((gi %% NIN)+1)*WIDTH-1:(gi %% NIN)*WIDTH];
            assign out_valid[gi] = in_valid[gi %% NIN];
        end
        for (gi = 0; gi < NIN; gi = gi + 1) begin : g_in
            assign in_ready[gi] = out_ready[gi %% NOUT];
        end
    endgenerate
endmodule

`, w, hb)

	fmt.Fprintf(b, `// Bi-synchronous FIFO: voltage level shift + clock domain crossing
// between two islands (gray-coded pointers). Crossing costs %d cycles.
module noc_bisync_fifo #(
    parameter WIDTH = %d,
    parameter DEPTH = %d
) (
    input  wire             wr_clk,
    input  wire             rd_clk,
    input  wire             rst_n,
    input  wire [WIDTH-1:0] wr_data,
    input  wire             wr_valid,
    output wire             wr_ready,
    output wire [WIDTH-1:0] rd_data,
    output wire             rd_valid,
    input  wire             rd_ready
);
    // Behavioral model of the converter.
    assign rd_data  = wr_data;
    assign rd_valid = wr_valid;
    assign wr_ready = rd_ready;
endmodule

`, 4, top.Lib.LinkWidthBits, fifoDepth)
}

// wireName builds deterministic wire identifiers.
func wireName(kind string, a, b int) string { return fmt.Sprintf("w_%s_%d_%d", kind, a, b) }

func sanitize(name string) string {
	var sb strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

func topModule(b *strings.Builder, top *topology.Topology, cfg Config, routes []hopSeq) {
	w := top.Lib.LinkWidthBits
	spec := top.Spec

	// Source-route tables as documentation + localparams.
	b.WriteString("// Source routes (switch output port sequences per flow):\n")
	for _, r := range routes {
		ports := make([]string, len(r.ports))
		for i, p := range r.ports {
			ports[i] = fmt.Sprint(p)
		}
		fmt.Fprintf(b, "//   %s -> %s : [%s]\n",
			spec.Cores[r.src].Name, spec.Cores[r.dst].Name, strings.Join(ports, " "))
	}
	b.WriteString("\nmodule noc_top (\n")
	var ports []string
	for i := 0; i < top.NumIslands(); i++ {
		ports = append(ports, fmt.Sprintf("    input  wire clk_isl%d", i))
	}
	ports = append(ports, "    input  wire rst_n")
	for c := range spec.Cores {
		n := sanitize(spec.Cores[c].Name)
		ports = append(ports,
			fmt.Sprintf("    input  wire [%d:0] %s_tx_data", w-1, n),
			fmt.Sprintf("    input  wire %s_tx_valid", n),
			fmt.Sprintf("    output wire %s_tx_ready", n),
			fmt.Sprintf("    output wire [%d:0] %s_rx_data", w-1, n),
			fmt.Sprintf("    output wire %s_rx_valid", n),
			fmt.Sprintf("    input  wire %s_rx_ready", n))
	}
	b.WriteString(strings.Join(ports, ",\n"))
	b.WriteString("\n);\n\n")

	// Wires: NI<->switch per core, and per link (with converter split
	// for crossings).
	for c := range spec.Cores {
		fmt.Fprintf(b, "    wire [%d:0] %s, %s;\n", w-1,
			wireName("ni2sw_d", c, int(top.SwitchOf[c])), wireName("sw2ni_d", c, int(top.SwitchOf[c])))
		fmt.Fprintf(b, "    wire %s, %s, %s, %s;\n",
			wireName("ni2sw_v", c, int(top.SwitchOf[c])), wireName("ni2sw_r", c, int(top.SwitchOf[c])),
			wireName("sw2ni_v", c, int(top.SwitchOf[c])), wireName("sw2ni_r", c, int(top.SwitchOf[c])))
	}
	for _, l := range top.Links {
		fmt.Fprintf(b, "    wire [%d:0] %s;\n", w-1, wireName("lnk_d", int(l.From), int(l.To)))
		fmt.Fprintf(b, "    wire %s, %s;\n",
			wireName("lnk_v", int(l.From), int(l.To)), wireName("lnk_r", int(l.From), int(l.To)))
		if top.CrossesIslands(l.From, l.To) {
			fmt.Fprintf(b, "    wire [%d:0] %s;\n", w-1, wireName("cvt_d", int(l.From), int(l.To)))
			fmt.Fprintf(b, "    wire %s, %s;\n",
				wireName("cvt_v", int(l.From), int(l.To)), wireName("cvt_r", int(l.From), int(l.To)))
		}
	}
	b.WriteString("\n")

	// NI instances.
	for c := range spec.Cores {
		n := sanitize(spec.Cores[c].Name)
		sw := int(top.SwitchOf[c])
		isl := int(spec.IslandOf[c])
		fmt.Fprintf(b, `    noc_ni #(.WIDTH(%d)) ni_%s (
        .clk_core(clk_isl%d), .clk_noc(clk_isl%d), .rst_n(rst_n),
        .core_tx_data(%s_tx_data), .core_tx_valid(%s_tx_valid), .core_tx_ready(%s_tx_ready),
        .core_rx_data(%s_rx_data), .core_rx_valid(%s_rx_valid), .core_rx_ready(%s_rx_ready),
        .net_tx_data(%s), .net_tx_valid(%s), .net_tx_ready(%s),
        .net_rx_data(%s), .net_rx_valid(%s), .net_rx_ready(%s)
    );
`,
			w, n, isl, isl,
			n, n, n, n, n, n,
			wireName("ni2sw_d", c, sw), wireName("ni2sw_v", c, sw), wireName("ni2sw_r", c, sw),
			wireName("sw2ni_d", c, sw), wireName("sw2ni_v", c, sw), wireName("sw2ni_r", c, sw))
	}
	b.WriteString("\n")

	// Switch instances with concatenated port buses. Input ordering:
	// core NIs then incoming links; output ordering: core NIs then
	// outgoing links (matching sourceRoutes).
	var cores []soc.CoreID
	for si := range top.Switches {
		s := &top.Switches[si]
		var inD, inV, inR, outD, outV, outR []string
		cores = top.SwitchCores(topology.SwitchID(si), cores)
		for _, c := range cores {
			inD = append(inD, wireName("ni2sw_d", int(c), si))
			inV = append(inV, wireName("ni2sw_v", int(c), si))
			inR = append(inR, wireName("ni2sw_r", int(c), si))
			outD = append(outD, wireName("sw2ni_d", int(c), si))
			outV = append(outV, wireName("sw2ni_v", int(c), si))
			outR = append(outR, wireName("sw2ni_r", int(c), si))
		}
		var inLinks, outLinks []topology.Link // in ID order
		for _, l := range top.Links {
			if l.To == topology.SwitchID(si) {
				inLinks = append(inLinks, l)
			}
			if l.From == topology.SwitchID(si) {
				outLinks = append(outLinks, l)
			}
		}
		for _, l := range inLinks {
			// A crossing link arrives through its converter.
			kind := "lnk"
			if top.CrossesIslands(l.From, l.To) {
				kind = "cvt"
			}
			inD = append(inD, wireName(kind+"_d", int(l.From), int(l.To)))
			inV = append(inV, wireName(kind+"_v", int(l.From), int(l.To)))
			inR = append(inR, wireName(kind+"_r", int(l.From), int(l.To)))
		}
		for _, l := range outLinks {
			outD = append(outD, wireName("lnk_d", int(l.From), int(l.To)))
			outV = append(outV, wireName("lnk_v", int(l.From), int(l.To)))
			outR = append(outR, wireName("lnk_r", int(l.From), int(l.To)))
		}
		nin, nout := len(inD), len(outD)
		if nin == 0 || nout == 0 {
			// A fully unused indirect switch: skip instantiation, note it.
			fmt.Fprintf(b, "    // switch %d unused (no connected ports), omitted\n", si)
			continue
		}
		rev := func(xs []string) []string {
			out := make([]string, len(xs))
			for i, x := range xs {
				out[len(xs)-1-i] = x
			}
			return out
		}
		fmt.Fprintf(b, `    noc_switch #(.NIN(%d), .NOUT(%d), .WIDTH(%d)) sw%d (
        .clk(clk_isl%d), .rst_n(rst_n),
        .in_data({%s}), .in_valid({%s}), .in_ready({%s}),
        .out_data({%s}), .out_valid({%s}), .out_ready({%s})
    );
`,
			nin, nout, w, si, int(s.Island),
			strings.Join(rev(inD), ", "), strings.Join(rev(inV), ", "), strings.Join(rev(inR), ", "),
			strings.Join(rev(outD), ", "), strings.Join(rev(outV), ", "), strings.Join(rev(outR), ", "))
	}
	b.WriteString("\n")

	// Converter instances on crossing links.
	for _, l := range top.Links {
		if !top.CrossesIslands(l.From, l.To) {
			continue
		}
		fi, ti := int(top.Switches[l.From].Island), int(top.Switches[l.To].Island)
		fmt.Fprintf(b, `    noc_bisync_fifo #(.WIDTH(%d), .DEPTH(%d)) cvt_%d_%d (
        .wr_clk(clk_isl%d), .rd_clk(clk_isl%d), .rst_n(rst_n),
        .wr_data(%s), .wr_valid(%s), .wr_ready(%s),
        .rd_data(%s), .rd_valid(%s), .rd_ready(%s)
    );
`,
			w, fifoDepth, int(l.From), int(l.To),
			fi, ti,
			wireName("lnk_d", int(l.From), int(l.To)),
			wireName("lnk_v", int(l.From), int(l.To)),
			wireName("lnk_r", int(l.From), int(l.To)),
			wireName("cvt_d", int(l.From), int(l.To)),
			wireName("cvt_v", int(l.From), int(l.To)),
			wireName("cvt_r", int(l.From), int(l.To)))
	}
	b.WriteString("\nendmodule\n")
}
