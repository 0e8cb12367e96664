package netlist

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/floorplan"
	"repro/internal/graph"
	"repro/internal/primitives"
	"repro/internal/topology"
)

func TestVerilogMesh(t *testing.T) {
	arch, err := topology.Mesh(2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Verilog(arch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// All four routers are radix-3 (2 links + local).
	if !strings.Contains(v, "module noc_router_r3") {
		t.Fatalf("missing radix-3 shell:\n%s", v)
	}
	if strings.Contains(v, "module noc_router_r4") {
		t.Fatal("unexpected radix-4 shell on 2x2 mesh")
	}
	for _, want := range []string{
		"module noc_top",
		"router1", "router2", "router3", "router4",
		"l1_to_2_flit", "l2_to_1_flit",
		"in1_valid", "out4_credit",
	} {
		if !strings.Contains(v, want) {
			t.Fatalf("netlist missing %q", want)
		}
	}
	// Balanced module/endmodule ("module " also occurs inside
	// "endmodule ", so anchor at line start).
	opens := strings.Count("\n"+v, "\nmodule ")
	closes := strings.Count("\n"+v, "\nendmodule")
	if opens != closes {
		t.Fatalf("unbalanced module/endmodule: %d vs %d", opens, closes)
	}
}

func TestVerilogCustomAES(t *testing.T) {
	acg := graph.New("aes")
	for col := 1; col <= 4; col++ {
		ids := []graph.NodeID{graph.NodeID(col), graph.NodeID(col + 4), graph.NodeID(col + 8), graph.NodeID(col + 12)}
		for _, i := range ids {
			for _, j := range ids {
				if i != j {
					acg.AddEdge(graph.Edge{From: i, To: j, Volume: 8, Bandwidth: 1})
				}
			}
		}
	}
	for i := 0; i < 4; i++ {
		acg.AddEdge(graph.Edge{From: graph.NodeID(5 + i), To: graph.NodeID(5 + (i+1)%4), Volume: 8, Bandwidth: 1})
		acg.AddEdge(graph.Edge{From: graph.NodeID(13 + i), To: graph.NodeID(13 + (i+1)%4), Volume: 8, Bandwidth: 1})
	}
	for _, pr := range [][2]graph.NodeID{{9, 11}, {10, 12}} {
		acg.AddEdge(graph.Edge{From: pr[0], To: pr[1], Volume: 8, Bandwidth: 1})
		acg.AddEdge(graph.Edge{From: pr[1], To: pr[0], Volume: 8, Bandwidth: 1})
	}
	res, err := core.Solve(core.Problem{
		ACG:     acg,
		Library: primitives.MustDefault(),
		Energy:  energy.Tech180,
		Options: core.Options{Mode: core.CostLinks, Timeout: 30 * time.Second},
	})
	if err != nil || res.Best == nil {
		t.Fatalf("solve: %v", err)
	}
	arch, err := topology.FromDecomposition("aes", acg, res.Best, floorplan.Grid(16, 1, 1, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	v, err := Verilog(arch, Options{ModuleName: "aes_noc", FlitBits: 32, NumVCs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v, "module aes_noc") {
		t.Fatal("custom module name ignored")
	}
	// 16 router instances.
	for n := 1; n <= 16; n++ {
		if !strings.Contains(v, strings.TrimSpace(strings.Join([]string{"router", string(rune('0' + n%10))}, ""))) {
			// cheap check below instead
			break
		}
	}
	if got := strings.Count(v, ") router"); got != 16 {
		t.Fatalf("router instances = %d, want 16", got)
	}
	// Wires: 26 links -> 52 directed channels, each with 3 wires.
	if got := strings.Count(v, "_valid;"); got != 52 {
		t.Fatalf("valid wires = %d, want 52", got)
	}
}

func TestVerilogValidation(t *testing.T) {
	if _, err := Verilog(nil, Options{}); err == nil {
		t.Fatal("nil arch accepted")
	}
	empty := topology.New("e", graph.Range(1, 3), nil)
	if _, err := Verilog(empty, Options{}); err == nil {
		t.Fatal("linkless arch accepted")
	}
}
