// Full design-space flow: all three dimensions of the paper's Section 1.
//
//  1. Communication infrastructure — synthesized customized topology.
//  2. Communication paradigm — schedule-derived deterministic routing
//     with deadlock-free virtual channels.
//  3. Application mapping — tasks assigned to floorplanned cores by the
//     energy-aware mapper.
//
// The application is a TGFF-style task graph (the paper's Figure 4a
// benchmark family). The flow floorplans 12 heterogeneous cores, maps the
// tasks onto them, synthesizes the customized architecture, and emits a
// structural Verilog netlist — the hand-off artifact toward an FPGA
// prototype like the paper's.
//
// Run with: go run ./examples/fullflow
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/floorplan"
	"repro/internal/tgff"

	repro "repro"
)

func main() {
	// The application: a 12-task TGFF-style graph.
	tasks, err := tgff.Generate(tgff.DefaultConfig(12, 21))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("application: %d tasks, %d flows, %.0f bits total volume\n",
		tasks.NodeCount(), tasks.EdgeCount(), tasks.TotalVolume())

	// Dimension 0 (prerequisite): floorplan 12 heterogeneous cores.
	var cores []repro.Core
	for i := 1; i <= 12; i++ {
		w := 1.0 + float64(i%3)*0.5
		h := 1.0 + float64(i%2)*0.5
		cores = append(cores, repro.Core{ID: repro.NodeID(i), W: w, H: h})
	}
	placement, err := floorplan.Slicing(cores, 13)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("floorplan: %.1f mm2, %.0f%% utilization\n",
		placement.Area(), 100*placement.TotalCoreArea()/placement.Area())

	// Dimension 3: map tasks onto the cores (energy-aware).
	coreIDs := make([]repro.NodeID, len(cores))
	for i, c := range cores {
		coreIDs[i] = c.ID
	}
	assignment, acg, err := repro.MapTasks(tasks, coreIDs, placement, repro.Tech130, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mapping: task->core ")
	for _, t := range tasks.Nodes() {
		fmt.Printf("%d->%d ", t, assignment[t])
	}
	fmt.Println()

	// Dimension 1: synthesize the customized communication architecture.
	res, err := repro.Synthesize(acg, repro.Options{
		Mode:      repro.CostEnergy,
		Placement: placement,
		Energy:    repro.Tech130,
		Timeout:   30 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsynthesis:\n%s", res.Decomposition.PaperListing())
	fmt.Printf("architecture: %d links, %.1f mm wire\n",
		res.Architecture.LinkCount(), res.Architecture.TotalWireLengthMM())

	// Dimension 2: routing — already derived; show a couple of routes.
	nodes := res.Architecture.Nodes()
	shown := 0
	for _, s := range nodes {
		for _, d := range nodes {
			if s != d && shown < 3 {
				if path, err := res.Routing.Route(s, d); err == nil && len(path) > 2 {
					fmt.Printf("multi-hop route %d -> %d: %v\n", s, d, path)
					shown++
				}
			}
		}
	}
	fmt.Printf("virtual channels: %d\n", res.VCs.NumVCs)

	// Hand-off: structural Verilog netlist.
	v, err := res.VerilogNetlist("app_noc", 32)
	if err != nil {
		log.Fatal(err)
	}
	lines := strings.Split(v, "\n")
	fmt.Printf("\nnetlist: %d lines of Verilog; head:\n", len(lines))
	for _, l := range lines[:6] {
		fmt.Println("  " + l)
	}
}
