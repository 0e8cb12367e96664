package repro

import (
	"strings"
	"testing"
	"time"
)

func synthesizeAES(t *testing.T) *Result {
	t.Helper()
	res, err := Synthesize(AESACG(0.1), Options{
		Mode:      CostLinks,
		Placement: GridPlacement(16, 1, 1, 0.2),
		Timeout:   30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSynthesizePipelineAES(t *testing.T) {
	res := synthesizeAES(t)
	if res.Decomposition.Cost != 28 {
		t.Fatalf("cost = %g, want 28", res.Decomposition.Cost)
	}
	if res.Architecture.LinkCount() != 26 {
		t.Fatalf("links = %d, want 26", res.Architecture.LinkCount())
	}
	if !res.Architecture.Connected() {
		t.Fatal("architecture disconnected")
	}
	if res.VCs.NumVCs < 1 {
		t.Fatal("no VC assignment")
	}
	listing := res.Decomposition.PaperListing()
	if !strings.Contains(listing, "MGG4") {
		t.Fatalf("listing missing MGG4:\n%s", listing)
	}
}

func TestSynthesizeRejectsNil(t *testing.T) {
	if _, err := Synthesize(nil, Options{}); err == nil {
		t.Fatal("nil ACG accepted")
	}
}

func TestSynthesizeDefaultsApplied(t *testing.T) {
	// No library, placement or energy model supplied: defaults kick in.
	acg := NewACG("tiny")
	acg.AddEdge(Edge{From: 1, To: 2, Volume: 8, Bandwidth: 1})
	acg.AddEdge(Edge{From: 2, To: 3, Volume: 8, Bandwidth: 1})
	res, err := Synthesize(acg, Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Decomposition.CoverIsExact(acg); err != nil {
		t.Fatal(err)
	}
}

func TestAESComparisonMeshVsCustom(t *testing.T) {
	placement := GridPlacement(16, 1, 1, 0.2)
	cfg := NetworkConfig{FlitBits: 32, BufferFlits: 4, NumVCs: 1, LinkCycles: 1, RouterCycles: 3, ClockMHz: 100}

	meshNet, _, err := MeshNetwork(4, 4, placement, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := RunAES(meshNet, "mesh", 3, Tech180)
	if err != nil {
		t.Fatal(err)
	}

	res := synthesizeAES(t)
	customNet, err := res.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	custom, err := RunAES(customNet, "custom", 3, Tech180)
	if err != nil {
		t.Fatal(err)
	}

	// The Section 5.2 shape: custom wins on every axis.
	if custom.CyclesPerBlock >= mesh.CyclesPerBlock {
		t.Fatalf("cycles/block: custom %.1f vs mesh %.1f", custom.CyclesPerBlock, mesh.CyclesPerBlock)
	}
	if custom.ThroughputMbps <= mesh.ThroughputMbps {
		t.Fatalf("throughput: custom %.1f vs mesh %.1f", custom.ThroughputMbps, mesh.ThroughputMbps)
	}
	if custom.AvgLatency >= mesh.AvgLatency {
		t.Fatalf("latency: custom %.2f vs mesh %.2f", custom.AvgLatency, mesh.AvgLatency)
	}
	if custom.EnergyPerBlock >= mesh.EnergyPerBlock {
		t.Fatalf("energy/block: custom %.3g vs mesh %.3g", custom.EnergyPerBlock, mesh.EnergyPerBlock)
	}
}

func TestMapTasksProducesSynthesizableACG(t *testing.T) {
	tasks := NewACG("tasks")
	tasks.AddEdge(Edge{From: 1, To: 2, Volume: 512, Bandwidth: 16})
	tasks.AddEdge(Edge{From: 2, To: 3, Volume: 256, Bandwidth: 8})
	tasks.AddEdge(Edge{From: 3, To: 4, Volume: 128, Bandwidth: 4})
	placement := GridPlacement(6, 1, 1, 0.2)
	assignment, acg, err := MapTasks(tasks, []NodeID{1, 2, 3, 4, 5, 6}, placement, Tech130, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(assignment) != 4 {
		t.Fatalf("assignment covers %d tasks", len(assignment))
	}
	if acg.EdgeCount() != 3 {
		t.Fatalf("mapped ACG edges = %d", acg.EdgeCount())
	}
	// The hottest pair must be adjacent on the grid (pitch 1.2).
	if d := placement.ManhattanDistance(assignment[1], assignment[2]); d > 1.2+1e-9 {
		t.Fatalf("hot pair %.2f apart", d)
	}
	res, err := Synthesize(acg, Options{Placement: placement, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Decomposition.CoverIsExact(acg); err != nil {
		t.Fatal(err)
	}
}

func TestVerilogNetlistFromResult(t *testing.T) {
	res := synthesizeAES(t)
	v, err := res.VerilogNetlist("aes_noc", 32)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(v, "module aes_noc") {
		t.Fatal("missing top module")
	}
	if got := strings.Count(v, ") router"); got != 16 {
		t.Fatalf("router instances = %d, want 16", got)
	}
}

func TestSynthesizeInfeasibleConstraints(t *testing.T) {
	acg := AESACG(0.1)
	_, err := Synthesize(acg, Options{
		Mode:        CostLinks,
		Timeout:     3 * time.Second,
		Constraints: Constraints{MaxBisectionMbps: 0.0001},
	})
	if err == nil {
		t.Fatal("infeasible constraints should error")
	}
}

func TestMeshNetworkRejectsBadDims(t *testing.T) {
	cfg := NetworkConfig{FlitBits: 32, BufferFlits: 4, NumVCs: 1, LinkCycles: 1, RouterCycles: 3, ClockMHz: 100}
	if _, _, err := MeshNetwork(0, 4, nil, cfg); err == nil {
		t.Fatal("0-row mesh accepted")
	}
	bad := cfg
	bad.FlitBits = 0
	if _, _, err := MeshNetwork(4, 4, nil, bad); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestMapTasksValidation(t *testing.T) {
	tasks := NewACG("t")
	tasks.AddEdge(Edge{From: 1, To: 2, Volume: 8})
	if _, _, err := MapTasks(tasks, []NodeID{1}, GridPlacement(1, 1, 1, 0), Tech180, 1); err == nil {
		t.Fatal("too few cores accepted")
	}
	if _, _, err := MapTasks(nil, []NodeID{1, 2}, GridPlacement(2, 1, 1, 0), Tech180, 1); err == nil {
		t.Fatal("nil tasks accepted")
	}
}

// Two disjoint K4s decompose into two MGG4s, but their glued
// architecture is disconnected, so no routing table spans it: the error
// comes with the solved decomposition and its stats.
func TestSynthesizeUnroutableKeepsDecomposition(t *testing.T) {
	acg := NewACG("two-k4")
	for _, base := range []NodeID{1, 5} {
		for a := base; a < base+4; a++ {
			for b := base; b < base+4; b++ {
				if a != b {
					acg.AddEdge(Edge{From: a, To: b, Volume: 8, Bandwidth: 1})
				}
			}
		}
	}
	res, err := Synthesize(acg, Options{Mode: CostLinks, Timeout: 30 * time.Second})
	if err == nil {
		t.Fatal("disconnected architecture routed")
	}
	if res == nil || res.Decomposition == nil || res.Decomposition.Cost != 8 || res.Stats.NodesExplored == 0 {
		t.Fatalf("result with error = %+v, want the cost-8 decomposition and its stats", res)
	}
	if res.Architecture != nil {
		t.Fatal("unroutable result carries an architecture")
	}
}

// A second RunFFT on the same mesh reports the first run's cycles and
// energy: both are counted from the transform's start.
func TestRunFFTRepeatedOnOneNetwork(t *testing.T) {
	cfg := NetworkConfig{FlitBits: 32, BufferFlits: 4, NumVCs: 1, LinkCycles: 1, RouterCycles: 3, ClockMHz: 100}
	net, _, err := MeshNetwork(4, 4, GridPlacement(16, 1, 1, 0.2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cycles1, energy1, err := RunFFT(net, 16, 7, Tech180)
	if err != nil {
		t.Fatal(err)
	}
	cycles2, energy2, err := RunFFT(net, 16, 7, Tech180)
	if err != nil {
		t.Fatal(err)
	}
	if cycles2 != cycles1 || energy2 != energy1 {
		t.Fatalf("second run %d cycles, %g uJ; first %d cycles, %g uJ", cycles2, energy2, cycles1, energy1)
	}
}

func TestRunAESValidatesInput(t *testing.T) {
	cfg := NetworkConfig{FlitBits: 32, BufferFlits: 4, NumVCs: 1, LinkCycles: 1, RouterCycles: 3, ClockMHz: 100}
	net, _, err := MeshNetwork(4, 4, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunAES(net, "x", 0, Tech180); err == nil {
		t.Fatal("0 blocks accepted")
	}
}
