// Package netlist emits a structural Verilog-2001 netlist for a
// synthesized architecture — the bridge to the paper's prototyping step
// (Section 5.2 implements both architectures on a Virtex-2 FPGA). Each
// core gets a wormhole router instance parameterized by its port count,
// each physical link becomes a pair of unidirectional flit channels with
// valid/credit handshakes, and a top module wires everything together
// with per-node local injection/ejection ports.
//
// The emitted routers reference a behavioral `noc_router` module (one per
// radix) whose interface matches the cycle-level simulator's router:
// FLIT_W-bit flit channels, one VC select line set, credit returns. The
// point of the emitter is the *structure* — instance graph, port widths,
// wire naming — which is what architecture synthesis determines; the
// router internals are a library cell exactly as in the paper's flow.
package netlist

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/topology"
)

// Options configure the emission.
type Options struct {
	// ModuleName names the top module (default "noc_top").
	ModuleName string
	// FlitBits is the flit channel width (default 32).
	FlitBits int
	// NumVCs sizes the VC select lines (default 1).
	NumVCs int
}

func (o *Options) defaults() {
	if o.ModuleName == "" {
		o.ModuleName = "noc_top"
	}
	if o.FlitBits == 0 {
		o.FlitBits = 32
	}
	if o.NumVCs == 0 {
		o.NumVCs = 1
	}
}

// Verilog renders the architecture as a structural netlist.
func Verilog(arch *topology.Architecture, opts Options) (string, error) {
	if arch == nil {
		return "", fmt.Errorf("netlist: nil architecture")
	}
	if arch.LinkCount() == 0 {
		return "", fmt.Errorf("netlist: architecture %q has no links", arch.Name)
	}
	opts.defaults()

	var b strings.Builder
	fmt.Fprintf(&b, "// Generated netlist for architecture %q\n", arch.Name)
	fmt.Fprintf(&b, "// %d routers, %d bidirectional links\n\n", len(arch.Nodes()), arch.LinkCount())

	emitted := map[int]bool{}
	for _, n := range arch.Nodes() {
		radix := arch.Degree(n) + 1 // + local port
		if !emitted[radix] {
			emitRouterShell(&b, radix, opts)
			emitted[radix] = true
		}
	}

	fmt.Fprintf(&b, "module %s (\n", opts.ModuleName)
	b.WriteString("  input  wire clk,\n  input  wire rst,\n")
	nodes := arch.Nodes()
	for i, n := range nodes {
		comma := ","
		if i == len(nodes)-1 {
			comma = ""
		}
		fmt.Fprintf(&b, "  // local port of core %d\n", n)
		fmt.Fprintf(&b, "  input  wire [%d:0] in%d_flit,\n", opts.FlitBits-1, n)
		fmt.Fprintf(&b, "  input  wire in%d_valid,\n", n)
		fmt.Fprintf(&b, "  output wire in%d_credit,\n", n)
		fmt.Fprintf(&b, "  output wire [%d:0] out%d_flit,\n", opts.FlitBits-1, n)
		fmt.Fprintf(&b, "  output wire out%d_valid,\n", n)
		fmt.Fprintf(&b, "  input  wire out%d_credit%s\n", n, comma)
	}
	b.WriteString(");\n\n")

	// Link wires: each physical link A--B becomes channels A->B and B->A.
	for _, l := range arch.Links() {
		for _, dir := range [][2]graph.NodeID{{l.A, l.B}, {l.B, l.A}} {
			w := wireName(dir[0], dir[1])
			fmt.Fprintf(&b, "  wire [%d:0] %s_flit;\n", opts.FlitBits-1, w)
			fmt.Fprintf(&b, "  wire %s_valid;\n", w)
			fmt.Fprintf(&b, "  wire %s_credit;\n", w)
		}
	}
	b.WriteString("\n")

	// Router instances.
	for _, n := range nodes {
		neighbors := neighborsOf(arch, n)
		radix := len(neighbors) + 1
		fmt.Fprintf(&b, "  noc_router_r%d #(.FLIT_W(%d), .VCS(%d)) router%d (\n",
			radix, opts.FlitBits, opts.NumVCs, n)
		b.WriteString("    .clk(clk), .rst(rst),\n")
		// Port 0 is local.
		fmt.Fprintf(&b, "    .p0_in_flit(in%d_flit), .p0_in_valid(in%d_valid), .p0_in_credit(in%d_credit),\n", n, n, n)
		fmt.Fprintf(&b, "    .p0_out_flit(out%d_flit), .p0_out_valid(out%d_valid), .p0_out_credit(out%d_credit)", n, n, n)
		for i, nb := range neighbors {
			in := wireName(nb, n)
			out := wireName(n, nb)
			b.WriteString(",\n")
			fmt.Fprintf(&b, "    .p%d_in_flit(%s_flit), .p%d_in_valid(%s_valid), .p%d_in_credit(%s_credit),\n",
				i+1, in, i+1, in, i+1, in)
			fmt.Fprintf(&b, "    .p%d_out_flit(%s_flit), .p%d_out_valid(%s_valid), .p%d_out_credit(%s_credit)",
				i+1, out, i+1, out, i+1, out)
		}
		b.WriteString("\n  );\n\n")
	}
	fmt.Fprintf(&b, "endmodule // %s\n", opts.ModuleName)
	return b.String(), nil
}

// emitRouterShell writes the interface (a module shell with the port list
// and an empty body comment) for one radix of router. Implementations are
// library cells supplied at integration time, as in the paper's FPGA
// flow.
func emitRouterShell(b *strings.Builder, radix int, opts Options) {
	fmt.Fprintf(b, "module noc_router_r%d #(parameter FLIT_W = %d, parameter VCS = %d) (\n",
		radix, opts.FlitBits, opts.NumVCs)
	b.WriteString("  input  wire clk,\n  input  wire rst")
	for p := 0; p < radix; p++ {
		fmt.Fprintf(b, ",\n  input  wire [FLIT_W-1:0] p%d_in_flit,\n", p)
		fmt.Fprintf(b, "  input  wire p%d_in_valid,\n", p)
		fmt.Fprintf(b, "  output wire p%d_in_credit,\n", p)
		fmt.Fprintf(b, "  output wire [FLIT_W-1:0] p%d_out_flit,\n", p)
		fmt.Fprintf(b, "  output wire p%d_out_valid,\n", p)
		fmt.Fprintf(b, "  input  wire p%d_out_credit", p)
	}
	b.WriteString("\n);\n")
	fmt.Fprintf(b, "  // Library cell: %d-port wormhole router, VCS virtual channels.\n", radix)
	b.WriteString("endmodule\n\n")
}

func wireName(from, to graph.NodeID) string {
	return fmt.Sprintf("l%d_to_%d", from, to)
}

func neighborsOf(arch *topology.Architecture, n graph.NodeID) []graph.NodeID {
	var nbs []graph.NodeID
	for _, l := range arch.Links() {
		switch n {
		case l.A:
			nbs = append(nbs, l.B)
		case l.B:
			nbs = append(nbs, l.A)
		}
	}
	sort.Slice(nbs, func(i, j int) bool { return nbs[i] < nbs[j] })
	return nbs
}
