// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Each experiment prints its data in a format
// mirroring the paper's presentation; EXPERIMENTS.md records the
// paper-versus-measured comparison.
//
// Usage:
//
//	experiments -fig 1          # library and optimal implementations
//	experiments -fig 2          # decomposition tree worked example
//	experiments -fig 4a         # run time on TGFF-style graphs
//	experiments -fig 4b         # run time on Pajek-style graphs
//	experiments -fig 5          # planted random benchmark listing
//	experiments -fig 6          # AES ACG decomposition + architecture
//	experiments -table aes      # Section 5.2 prototype comparison
//	experiments -table aes -routing sp   # routing ablation
//	experiments -table frontier # ε-constraint cost-vs-latency frontiers
//	experiments -all            # everything
//	experiments -batch          # concurrent scenario sweep -> JSON
//
// The batch runner sweeps every synthesis scenario (TGFF task graphs,
// Pajek-style random graphs, scale-free Barabási–Albert graphs, the
// planted Figure 5 benchmark and the AES ACG in both cost modes) across
// -workers goroutines, each solve itself using -parallel branch-and-bound
// workers, and writes one JSON record per scenario to -out (default
// experiments-batch.json, "-" for stdout).
//
// With -serve-url the batch runner becomes a load client for a running
// nocserve daemon: every scenario is POSTed to /v1/synthesize?wait=1
// instead of being solved in-process, and each record carries the
// daemon's content-address and serving path (queued, coalesced, cache).
//
//	experiments -batch -serve-url http://localhost:8080
//
// With -sweeppatterns every feasible batch scenario's synthesized
// architecture is additionally stress-characterized: each named traffic
// pattern (or "all") is driven across a short injection-rate ladder on
// the customized topology, and the per-pattern saturation point,
// zero-load latency and peak accepted throughput ride along in the JSON
// record — the closed loop synthesize -> simulate -> saturation curve.
//
//	experiments -batch -sweeppatterns uniform,transpose
//	experiments -batch -sweeppatterns all
//
// -dumpacg writes one scenario's ACG as nocsynth/nocserve-compatible
// JSON to -out ("aes", "fig5", or "tgff:<nodes>:<seed>"), for feeding
// the other tools:
//
//	experiments -dumpacg aes -out aes.json
//
// Every mode honors Ctrl-C/SIGTERM: in-flight solves are canceled and the
// best results found so far are still printed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/floorplan"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/noc"
	"repro/internal/primitives"
	"repro/internal/randgraph"
	"repro/internal/routing"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/tgff"
	"repro/internal/topology"

	repro "repro"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 1, 2, 4a, 4b, 5, 6")
	table := flag.String("table", "", "table to regenerate: aes, routing, floorplan, reliability, frontier")
	routingMode := flag.String("routing", "schedule", "custom-topology routing: schedule or sp")
	all := flag.Bool("all", false, "run every experiment")
	seeds := flag.Int("seeds", 5, "random seeds per point for figure 4 sweeps")
	batch := flag.Bool("batch", false, "run the concurrent scenario sweep and emit JSON")
	out := flag.String("out", "experiments-batch.json", "batch output path (\"-\" = stdout)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent scenarios in -batch mode")
	parallel := flag.Int("parallel", 1, "branch-and-bound workers per solve in -batch mode")
	serveURL := flag.String("serve-url", "", "drive a running nocserve daemon instead of solving in-process (-batch mode)")
	dumpACG := flag.String("dumpacg", "", "write one scenario ACG as JSON to -out: aes, fig5, or tgff:<nodes>:<seed>")
	sweepPatterns := flag.String("sweeppatterns", "", "stress-characterize every synthesized batch architecture under these comma-separated traffic patterns (\"all\" = every built-in pattern)")
	flag.Parse()

	// Every mode shares one signal-bound context: Ctrl-C cancels the
	// running solves, and each mode still reports what it finished.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if *dumpACG != "" {
		// -out's default is the batch sink; for -dumpacg only an
		// explicitly passed -out names a file, otherwise write stdout.
		outSet := false
		flag.Visit(func(f *flag.Flag) { outSet = outSet || f.Name == "out" })
		if !outSet {
			*out = "-"
		}
		dumpACGJSON(*dumpACG, *out)
		return
	}
	if *batch {
		patterns, err := parseSweepPatterns(*sweepPatterns)
		check(err)
		runBatch(ctx, *out, *workers, *parallel, *seeds, *serveURL, patterns)
		return
	}
	if *all {
		for _, f := range []string{"1", "2", "4a", "4b", "5", "6"} {
			runFig(ctx, f, *seeds)
			fmt.Println()
		}
		runTableAES(ctx, *routingMode)
		return
	}
	switch {
	case *fig != "":
		runFig(ctx, *fig, *seeds)
	case *table == "aes":
		runTableAES(ctx, *routingMode)
	case *table == "routing":
		runTableRouting()
	case *table == "floorplan":
		runTableFloorplan(ctx)
	case *table == "reliability":
		runTableReliability(ctx)
	case *table == "frontier":
		runTableFrontier(ctx)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// dumpACGJSON writes the named scenario's ACG in the JSON schema shared
// by nocsynth and nocserve ("-" or empty out = stdout).
func dumpACGJSON(name, out string) {
	var acg *graph.Graph
	switch {
	case name == "aes":
		acg = repro.AESACG(0.1)
	case name == "fig5":
		acg = randgraph.PaperFig5(16)
	case strings.HasPrefix(name, "tgff:"):
		var n int
		var seed int64
		if _, err := fmt.Sscanf(name, "tgff:%d:%d", &n, &seed); err != nil {
			check(fmt.Errorf("bad tgff spec %q (want tgff:<nodes>:<seed>): %v", name, err))
		}
		g, err := tgff.Generate(tgff.DefaultConfig(n, seed))
		check(err)
		acg = g
	default:
		check(fmt.Errorf("unknown -dumpacg scenario %q (want aes, fig5 or tgff:<nodes>:<seed>)", name))
	}
	enc, err := json.MarshalIndent(acg, "", "  ")
	check(err)
	enc = append(enc, '\n')
	if out == "-" || out == "" {
		os.Stdout.Write(enc)
		return
	}
	check(os.WriteFile(out, enc, 0o644))
	fmt.Fprintf(os.Stderr, "experiments: wrote %s ACG to %s\n", name, out)
}

// runTableFloorplan explores the paper's floorplan-relaxation future work
// (Section 6): synthesis energy on an area-only floorplan vs. the
// traffic-aware co-optimized one, for random task graphs.
func runTableFloorplan(ctx context.Context) {
	fmt.Println("=== Future work: area-only vs traffic-aware floorplanning ===")
	fmt.Printf("%-10s %12s %12s %14s %14s\n",
		"graph", "area mm2", "area mm2*", "energy pJ", "energy pJ*")
	fmt.Println("(* = traffic-aware anneal)")
	for _, seed := range []int64{1, 2, 3} {
		tasks, err := tgff.Generate(tgff.DefaultConfig(10, seed))
		check(err)
		var cores []floorplan.Core
		for i := 1; i <= 10; i++ {
			cores = append(cores, floorplan.Core{
				ID: graph.NodeID(i),
				W:  1 + float64((i+int(seed))%3)*0.5,
				H:  1 + float64(i%2)*0.5,
			})
		}
		area, err := floorplan.Slicing(cores, seed)
		check(err)
		aware, err := floorplan.SlicingWithTraffic(cores, seed, floorplan.TrafficAnnealOptions{
			Traffic:          tasks,
			WirelengthWeight: 0.01,
		})
		check(err)

		synthCost := func(p *floorplan.Placement) float64 {
			res, err := core.SolveContext(ctx, core.Problem{
				ACG:       tasks,
				Library:   primitives.MustDefault(),
				Placement: p,
				Energy:    energy.Tech130,
				Options:   core.Options{Mode: core.CostEnergy, Timeout: 20 * time.Second},
			})
			check(err)
			if res.Best == nil {
				return -1
			}
			return res.Best.Cost
		}
		fmt.Printf("tgff-10/%d %12.1f %12.1f %14.0f %14.0f\n",
			seed, area.Area(), aware.Area(), synthCost(area), synthCost(aware))
	}
}

// runTableRouting explores the paper's future-work routing strategies
// (Section 6, "adaptive or stochastic routing strategies should be
// investigated"): deterministic XY vs stochastic O1TURN vs congestion-
// adaptive O1TURN on a 4x4 mesh under uniform random traffic of
// increasing injection rate.
func runTableRouting() {
	fmt.Println("=== Future work: routing strategy comparison on 4x4 mesh ===")
	fmt.Printf("%-10s %-14s %10s %10s %10s\n", "rate", "strategy", "latency", "max lat", "cycles")

	for _, rate := range []float64{0.01, 0.03, 0.05} {
		for _, strat := range []string{"xy", "stochastic", "adaptive"} {
			cfg := noc.DefaultConfig()
			cfg.NumVCs = 2
			net, _, err := repro.MeshNetwork(4, 4, nil, cfg)
			check(err)
			o1, err := routing.NewMeshO1Turn(4, 4)
			check(err)
			rng := rand.New(rand.NewSource(11))
			trace := noc.UniformRandomTrace(net.Nodes(), 2000, 128, rate, 99)

			var chooser noc.RouteChooser
			switch strat {
			case "xy":
				chooser = func(ev noc.TrafficEvent) ([]graph.NodeID, []int, error) {
					return o1.Route(ev.Src, ev.Dst, 0)
				}
			case "stochastic":
				chooser = func(ev noc.TrafficEvent) ([]graph.NodeID, []int, error) {
					return o1.RandomRoute(ev.Src, ev.Dst, rng)
				}
			case "adaptive":
				chooser = func(ev noc.TrafficEvent) ([]graph.NodeID, []int, error) {
					return o1.AdaptiveRoute(ev.Src, ev.Dst, net.InputOccupancy)
				}
			}
			check(net.ReplayWith(trace, 10_000_000, chooser))
			st := net.Stats()
			fmt.Printf("%-10.3f %-14s %10.2f %10d %10d\n",
				rate, strat, st.AvgLatency(), st.LatencyMax, net.Cycle())
		}
	}
}

// runTableReliability characterizes the reliability surface of the 4x4
// mesh (the AES baseline fabric): delivered fraction, zero-load latency
// and saturation throughput against a ladder of random link fault rates,
// compiled-table oblivious routing against up*/down* minimal-adaptive
// with escape-VC fallback. Both modes run on identical 2-VC hardware so
// only route selection differs, and the same fault seed fails the same
// links for both — the source of the EXPERIMENTS.md reliability table.
func runTableReliability(ctx context.Context) {
	fmt.Println("=== Reliability: 4x4 AES mesh under random link faults ===")
	fmt.Printf("%-10s %-10s %10s %10s %10s %10s %10s\n",
		"faultrate", "routing", "links down", "delivered", "zero-load", "peak acc", "saturation")
	for _, mode := range []noc.RoutingMode{noc.RoutingOblivious, noc.RoutingAdaptive} {
		cfg := noc.DefaultConfig()
		cfg.NumVCs = 2
		arch, ct, err := repro.CompileMesh(4, 4, nil, nil)
		check(err)
		pat, err := noc.NewPattern("uniform", 16)
		check(err)
		res, err := noc.ReliabilitySweep(ctx, noc.BatchArch{Cfg: cfg, Arch: arch, Table: ct}, noc.ReliabilityConfig{
			Sweep: noc.SweepConfig{
				Pattern:       pat,
				Bits:          128,
				Rates:         []float64{0.02, 0.05, 0.08, 0.11, 0.14},
				WarmupCycles:  500,
				MeasureCycles: 3000,
				Batches:       6,
				Seed:          1,
				Parallelism:   0,
				Routing:       mode,
			},
			FaultRates: []float64{0, 0.05, 0.1, 0.2},
			FaultSeed:  7,
		})
		check(err)
		for _, pt := range res.Points {
			sat := "none"
			if pt.SaturationRate > 0 {
				sat = fmt.Sprintf("%.3f", pt.SaturationRate)
			}
			fmt.Printf("%-10.2f %-10s %10d %10.4f %10.2f %10.4f %10s\n",
				pt.FaultRate, res.Routing, pt.FailedLinks,
				pt.DeliveredFraction, pt.ZeroLoadLatency, pt.PeakAccepted, sat)
		}
	}
}

func runFig(ctx context.Context, fig string, seeds int) {
	switch fig {
	case "1":
		fig1()
	case "2":
		fig2(ctx)
	case "4a":
		fig4a(ctx, seeds)
	case "4b":
		fig4b(ctx, seeds)
	case "5":
		fig5(ctx)
	case "6":
		fig6(ctx)
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", fig)
		os.Exit(2)
	}
}

// fig1 dumps the communication library: representation graphs, optimal
// implementation graphs and round schedules (paper Figure 1).
func fig1() {
	fmt.Println("=== Figure 1: communication library and optimal implementations ===")
	lib := primitives.MustDefault()
	fmt.Print(lib.Describe())
	fmt.Printf("library max implementation diameter: %d (Section 4.3 hop bound)\n", lib.MaxDiameter())
	fmt.Println("\nper-technology characterization (stored in the library, Section 3):")
	fmt.Print(primitives.CharacterizationTable(primitives.Characterize(lib, []energy.Model{
		energy.Tech180, energy.Tech130, energy.Tech100,
	})))
}

// fig2 walks a small decomposition-tree example in the spirit of the
// paper's Figure 2 (the exact input graph is not recoverable from the
// text; a K4 plus a pendant edge produces the same tree shape: a gossip
// branch, a loop branch and a broadcast branch, with the gossip branch
// winning).
func fig2(ctx context.Context) {
	fmt.Println("=== Figure 2: decomposition tree worked example ===")
	acg := graph.CompleteDigraph("fig2", graph.Range(1, 4), 8, 1)
	acg.AddEdge(graph.Edge{From: 1, To: 5, Volume: 8, Bandwidth: 1})
	fmt.Println("input: K4 digraph on {1..4} plus pendant edge 1->5")

	res, err := core.SolveContext(ctx, core.Problem{
		ACG:     acg,
		Library: primitives.MustDefault(),
		Energy:  energy.Tech180,
		Options: core.Options{Mode: core.CostLinks, Timeout: 30 * time.Second},
	})
	check(err)
	fmt.Printf("best decomposition (link-cost metric):\n%s", res.Best.PaperListing())
	fmt.Printf("search: %d tree nodes, %d matchings, %d pruned, %d leaves\n",
		res.Stats.NodesExplored, res.Stats.MatchingsTried,
		res.Stats.BranchesPruned, res.Stats.LeavesReached)
}

// fig4a sweeps TGFF-style task graphs (paper Figure 4a: up to 18 nodes,
// largest run time 0.3 s).
func fig4a(ctx context.Context, seeds int) {
	fmt.Println("=== Figure 4a: run time on TGFF-style task graphs ===")
	series := stats.Series{Name: "fig4a", XLabel: "nodes", YLabel: "seconds"}
	for n := 5; n <= 18; n++ {
		var times []float64
		for s := 0; s < seeds; s++ {
			acg, err := tgff.Generate(tgff.DefaultConfig(n, int64(s)))
			check(err)
			start := time.Now()
			_, err = core.SolveContext(ctx, core.Problem{
				ACG:     acg,
				Library: primitives.MustDefault(),
				Energy:  energy.Tech180,
				Options: core.Options{Mode: core.CostLinks, Timeout: 30 * time.Second},
			})
			check(err)
			times = append(times, time.Since(start).Seconds())
		}
		series.Add(float64(n), stats.Mean(times))
	}
	fmt.Print(series.Table())
}

// fig4b sweeps Pajek-style random graphs (paper Figure 4b: 60+ graphs,
// up to 40 nodes, under 3 minutes).
func fig4b(ctx context.Context, seeds int) {
	fmt.Println("=== Figure 4b: average run time on Pajek-style random graphs ===")
	series := stats.Series{Name: "fig4b", XLabel: "nodes", YLabel: "seconds"}
	for _, n := range []int{10, 15, 20, 25, 30, 35, 40} {
		var times []float64
		for s := 0; s < seeds; s++ {
			acg, err := randgraph.ErdosRenyi(n, 0.15, 8, 64, int64(s))
			check(err)
			start := time.Now()
			_, err = core.SolveContext(ctx, core.Problem{
				ACG:     acg,
				Library: primitives.MustDefault(),
				Energy:  energy.Tech180,
				Options: core.Options{
					Mode:       core.CostLinks,
					Timeout:    60 * time.Second,
					IsoTimeout: 2 * time.Second,
				},
			})
			check(err)
			times = append(times, time.Since(start).Seconds())
		}
		series.Add(float64(n), stats.Mean(times))
	}
	fmt.Print(series.Table())
}

// fig5 reproduces the worked random example: a graph assembled from
// planted primitives, decomposed with no remainder (paper: one MGG4,
// three G123, one G124, < 0.1 s).
func fig5(ctx context.Context) {
	fmt.Println("=== Figure 5: customized synthesis for a random benchmark ===")
	lib := primitives.MustDefault()
	acg := randgraph.PaperFig5(16)
	fmt.Printf("input: the paper's 8-node benchmark, %d edges\n", acg.EdgeCount())
	start := time.Now()
	res, err := core.SolveContext(ctx, core.Problem{
		ACG:     acg,
		Library: lib,
		Energy:  energy.Tech180,
		Options: core.Options{Mode: core.CostLinks, Timeout: 30 * time.Second},
	})
	check(err)
	fmt.Printf("decomposed in %.3f s:\n%s", time.Since(start).Seconds(), res.Best.PaperListing())
}

// fig6 reproduces the AES decomposition and the customized architecture
// (paper: 4 column MGG4s, rows 2/4 as L4, row 3 as remainder, cost 28,
// 0.58 s).
func fig6(ctx context.Context) {
	fmt.Println("=== Figure 6: AES ACG and customized architecture ===")
	acg := repro.AESACG(0.1)
	fmt.Printf("ACG: %d nodes, %d edges\n", acg.NodeCount(), acg.EdgeCount())
	start := time.Now()
	res, err := repro.SynthesizeContext(ctx, acg, repro.Options{
		Mode:      repro.CostLinks,
		Placement: repro.GridPlacement(16, 1, 1, 0.2),
		Timeout:   60 * time.Second,
	})
	check(err)
	fmt.Printf("decomposed in %.3f s:\n%s", time.Since(start).Seconds(), res.Decomposition.PaperListing())
	fmt.Printf("\ncustomized architecture:\n%s", res.Architecture.Describe())
	fmt.Printf("\nDOT (Figure 6b):\n%s", res.Architecture.DOT())
}

// runTableAES regenerates the Section 5.2 prototype comparison.
func runTableAES(ctx context.Context, routingMode string) {
	fmt.Println("=== Section 5.2: AES prototype comparison (mesh vs customized) ===")
	const blocks = 10
	placement := floorplan.Grid(16, 1, 1, 0.2)
	cfg := noc.Config{FlitBits: 32, BufferFlits: 4, NumVCs: 1, LinkCycles: 1, RouterCycles: 3, ClockMHz: 100}
	em := energy.Tech180

	meshNet, meshArch, err := repro.MeshNetwork(4, 4, placement, cfg)
	check(err)
	mesh, err := repro.RunAES(meshNet, "mesh 4x4 (XY)", blocks, em)
	check(err)
	mesh.Links = meshArch.LinkCount()

	res, err := repro.SynthesizeContext(ctx, repro.AESACG(0.1), repro.Options{
		Mode: repro.CostLinks, Placement: placement, Timeout: 60 * time.Second,
	})
	check(err)
	var table routing.Table
	switch routingMode {
	case "schedule":
		table = res.Routing
	case "sp":
		table, err = routing.BuildShortestPath(res.Architecture)
		check(err)
	default:
		fmt.Fprintf(os.Stderr, "unknown routing mode %q\n", routingMode)
		os.Exit(2)
	}
	vcs, err := routing.AssignVirtualChannels(table, res.Architecture, nil)
	check(err)
	customNet, err := noc.New(cfg, res.Architecture, table, vcs)
	check(err)
	custom, err := repro.RunAES(customNet, "customized ("+routingMode+")", blocks, em)
	check(err)
	custom.Links = res.Architecture.LinkCount()

	printAESRow := func(c *repro.AESComparison) {
		fmt.Printf("%-22s %10.1f %10.1f %10.2f %10.2f %12.4f %7d\n",
			c.Name, c.CyclesPerBlock, c.ThroughputMbps, c.AvgLatency,
			c.AvgPowerMW, c.EnergyPerBlock, c.Links)
	}
	fmt.Printf("%-22s %10s %10s %10s %10s %12s %7s\n",
		"architecture", "cyc/block", "Mbps", "latency", "power mW", "uJ/block", "links")
	printAESRow(mesh)
	printAESRow(custom)

	pct := func(a, b float64) float64 { return (a - b) / b * 100 }
	fmt.Printf("\ncustom vs mesh: throughput %+.1f%%, latency %+.1f%%, power %+.1f%%, energy/block %+.1f%%\n",
		pct(custom.ThroughputMbps, mesh.ThroughputMbps),
		pct(custom.AvgLatency, mesh.AvgLatency),
		pct(custom.AvgPowerMW, mesh.AvgPowerMW),
		pct(custom.EnergyPerBlock, mesh.EnergyPerBlock))
	fmt.Println("paper reference:  throughput +36%, latency -17%, power -33%, energy/block -51%")

}

// scenario is one synthesis instance of the batch sweep.
type scenario struct {
	Family string `json:"family"` // tgff | pajek | scalefree | planted | aes
	Nodes  int    `json:"nodes"`
	Seed   int64  `json:"seed"`
	Mode   string `json:"mode"` // links | energy
	acg    *graph.Graph
	opts   repro.Options
}

// batchResult is the per-scenario JSON record the batch runner emits.
type batchResult struct {
	scenario
	Cost           float64 `json:"cost"`
	Matches        int     `json:"matches"`
	RemainderEdges int     `json:"remainderEdges"`
	Feasible       bool    `json:"feasible"`
	NodesExplored  int     `json:"nodesExplored"`
	BranchesPruned int     `json:"branchesPruned"`
	SolverWorkers  int     `json:"solverWorkers"`
	TimedOut       bool    `json:"timedOut"`
	Canceled       bool    `json:"canceled"`
	ElapsedSec     float64 `json:"elapsedSec"`
	Error          string  `json:"error,omitempty"`
	// ServeKey/ServePath are set in -serve-url mode: the daemon's content
	// address for the scenario and how it was satisfied (queued,
	// coalesced, cache).
	ServeKey  string `json:"serveKey,omitempty"`
	ServePath string `json:"servePath,omitempty"`
	// Sweeps stress-characterizes the synthesized architecture per
	// traffic pattern (-sweeppatterns).
	Sweeps []archSweep `json:"sweeps,omitempty"`
}

// batchScenarios assembles the sweep: the Figure 4a TGFF range, the Figure
// 4b Pajek-style range, the scale-free Barabási–Albert family, the planted
// Figure 5 benchmark and the AES ACG in both cost modes.
func batchScenarios(seeds, parallel int) []scenario {
	baseOpts := func(timeout time.Duration) repro.Options {
		return repro.Options{
			Mode:        repro.CostLinks,
			Timeout:     timeout,
			Parallelism: parallel,
		}
	}
	var out []scenario
	for n := 5; n <= 18; n++ {
		for s := 0; s < seeds; s++ {
			acg, err := tgff.Generate(tgff.DefaultConfig(n, int64(s)))
			check(err)
			out = append(out, scenario{
				Family: "tgff", Nodes: n, Seed: int64(s), Mode: "links",
				acg: acg, opts: baseOpts(30 * time.Second),
			})
		}
	}
	for _, n := range []int{10, 15, 20, 25, 30, 35, 40} {
		for s := 0; s < seeds; s++ {
			acg, err := randgraph.ErdosRenyi(n, 0.15, 8, 64, int64(s))
			check(err)
			opts := baseOpts(60 * time.Second)
			opts.IsoTimeout = 2 * time.Second
			out = append(out, scenario{
				Family: "pajek", Nodes: n, Seed: int64(s), Mode: "links",
				acg: acg, opts: opts,
			})
		}
	}
	// Scale-free (Barabási–Albert) graphs: power-law out-degree hubs, the
	// complex-network regime of arXiv:0908.0976. Hubs stress the broadcast
	// primitives far harder than the Erdős–Rényi family above.
	for _, n := range []int{10, 15, 20, 25, 30} {
		for s := 0; s < seeds; s++ {
			acg, err := randgraph.BarabasiAlbert(n, 2, 8, 64, int64(s))
			check(err)
			opts := baseOpts(60 * time.Second)
			opts.IsoTimeout = 2 * time.Second
			out = append(out, scenario{
				Family: "scalefree", Nodes: n, Seed: int64(s), Mode: "links",
				acg: acg, opts: opts,
			})
		}
	}
	planted := randgraph.PaperFig5(16)
	out = append(out, scenario{
		Family: "planted", Nodes: planted.NodeCount(), Mode: "links",
		acg: planted, opts: baseOpts(30 * time.Second),
	})
	for _, mode := range []core.CostMode{core.CostLinks, core.CostEnergy} {
		name := "links"
		if mode == core.CostEnergy {
			name = "energy"
		}
		opts := baseOpts(60 * time.Second)
		opts.Mode = mode
		out = append(out, scenario{
			Family: "aes", Nodes: 16, Mode: name,
			acg: repro.AESACG(0.1), opts: opts,
		})
	}
	return out
}

// parseSweepPatterns expands the -sweeppatterns flag: empty disables the
// per-architecture traffic sweeps, "all" selects every built-in pattern,
// otherwise a comma-separated subset of noc.PatternNames.
func parseSweepPatterns(spec string) ([]string, error) {
	if spec == "" {
		return nil, nil
	}
	if spec == "all" {
		return noc.PatternNames(), nil
	}
	known := make(map[string]bool)
	for _, n := range noc.PatternNames() {
		known[n] = true
	}
	var out []string
	for _, f := range strings.Split(spec, ",") {
		name := strings.TrimSpace(f)
		if !known[name] {
			return nil, fmt.Errorf("unknown sweep pattern %q (want \"all\" or a subset of %s)",
				name, strings.Join(noc.PatternNames(), ", "))
		}
		out = append(out, name)
	}
	return out, nil
}

// archSweep is the per-pattern stress summary attached to a batch record
// when -sweeppatterns is set: the saturation point of the synthesized
// architecture under that traffic pattern, plus the curve's two
// endpoints (zero-load latency, peak accepted throughput).
type archSweep struct {
	Pattern         string  `json:"pattern"`
	Saturated       bool    `json:"saturated"`
	SaturationRate  float64 `json:"saturationRate"`
	ZeroLoadLatency float64 `json:"zeroLoadLatency"`
	PeakAccepted    float64 `json:"peakAccepted"`
	Error           string  `json:"error,omitempty"`
}

// batchSweepRates is the short ladder the batch runner drives over every
// synthesized architecture — four points spanning well under to well
// over typical wormhole saturation.
var batchSweepRates = []float64{0.02, 0.06, 0.12, 0.25}

// sweepArchitecture runs the pattern sweeps over one synthesized
// architecture as a single noc.Batch: every pattern x rate point shares
// the one compiled routing table and one pooled, Reset-reused network
// instead of paying a network build per pattern. Per-point seeds are the
// same PointSeed derivation noc.Sweep applies, so the numbers match the
// per-pattern Sweep calls this replaced byte for byte. Pattern-spec
// failures are recorded, not fatal: a batch row with a broken sweep
// still carries its synthesis result.
func sweepArchitecture(ctx context.Context, arch *topology.Architecture, table routing.Table, vcs routing.VCAssignment, patterns []string, seed int64) []archSweep {
	// Build the patterns first so their union demand bounds how much of
	// the table gets compiled; synthesized architectures are small, so
	// this usually degenerates to the complete all-pairs compile, but the
	// demand plumbing keeps the path identical to the batch engine's.
	out := make([]archSweep, len(patterns))
	pats := make([]*noc.Pattern, len(patterns))
	demand := routing.NewPairSet(len(arch.Nodes()))
	for pi, name := range patterns {
		out[pi] = archSweep{Pattern: name}
		p, err := noc.NewPattern(name, len(arch.Nodes()))
		if err != nil {
			out[pi].Error = err.Error()
			continue
		}
		pats[pi] = p
		if err := demand.AddUnion(p.Pairs()); err != nil {
			return []archSweep{{Error: err.Error()}}
		}
	}
	ct, err := routing.CompileTablePairs(table, arch, vcs, demand)
	if err != nil {
		return []archSweep{{Error: err.Error()}}
	}
	batch := &noc.Batch{
		Archs:       []noc.BatchArch{{Cfg: noc.DefaultConfig(), Arch: arch, Table: ct}},
		Parallelism: 1, // scenarios already fan out across workers
	}
	type coord struct{ pattern, rate int }
	var coords []coord // batch point index -> (pattern, rate) indices
	for pi, p := range pats {
		if p == nil {
			continue
		}
		for ri, rate := range batchSweepRates {
			batch.Points = append(batch.Points, noc.BatchPoint{
				Pattern:       p,
				Bits:          128,
				Rate:          rate,
				WarmupCycles:  300,
				MeasureCycles: 1500,
				Seed:          noc.PointSeed(seed, ri),
			})
			coords = append(coords, coord{pi, ri})
		}
	}
	if len(batch.Points) == 0 {
		return out
	}
	pts, err := batch.Run(ctx)
	if err != nil {
		for pi := range out {
			if out[pi].Error == "" {
				out[pi].Error = err.Error()
			}
		}
		return out
	}
	for k, pt := range pts {
		rec := &out[coords[k].pattern]
		if coords[k].rate == 0 {
			rec.ZeroLoadLatency = pt.AvgLatency
		}
		if pt.Saturated && !rec.Saturated {
			rec.Saturated = true
			rec.SaturationRate = pt.Rate
		}
		if pt.Accepted > rec.PeakAccepted {
			rec.PeakAccepted = pt.Accepted
		}
	}
	return out
}

// runBatch sweeps all scenarios across a pool of goroutines and writes the
// JSON records. Ctrl-C cancels the remaining solves; completed records are
// still written. With serveURL the sweep is delegated to a nocserve
// daemon, one HTTP submission per scenario.
func runBatch(ctx context.Context, out string, workers, parallel, seeds int, serveURL string, sweepPatterns []string) {
	// Open the sink before sweeping so a bad path fails in milliseconds,
	// not after minutes of solving.
	sink := os.Stdout
	if out != "-" && out != "" {
		f, err := os.Create(out)
		check(err)
		sink = f
	}

	scenarios := batchScenarios(seeds, parallel)
	results := make([]batchResult, len(scenarios))
	if workers < 1 {
		workers = 1
	}
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	mode := "in-process"
	if serveURL != "" {
		mode = "daemon at " + serveURL
	}
	fmt.Fprintf(os.Stderr, "experiments: sweeping %d scenarios on %d workers (%d solver workers each, %s)\n",
		len(scenarios), workers, parallel, mode)

	var next int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	done := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := int(next)
				next++
				mu.Unlock()
				if i >= len(scenarios) {
					return
				}
				if serveURL != "" {
					results[i] = runScenarioRemote(ctx, serveURL, scenarios[i], sweepPatterns)
				} else {
					results[i] = runScenario(ctx, scenarios[i], sweepPatterns)
				}
				mu.Lock()
				done++
				fmt.Fprintf(os.Stderr, "experiments: [%d/%d] %s n=%d seed=%d %s: cost=%g in %.3fs\n",
					done, len(scenarios), results[i].Family, results[i].Nodes,
					results[i].Seed, results[i].Mode, results[i].Cost, results[i].ElapsedSec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	enc, err := json.MarshalIndent(results, "", "  ")
	check(err)
	enc = append(enc, '\n')
	_, err = sink.Write(enc)
	check(err)
	if sink != os.Stdout {
		check(sink.Close())
		fmt.Fprintf(os.Stderr, "experiments: wrote %d records to %s\n", len(results), out)
	}
}

func runScenario(ctx context.Context, sc scenario, sweepPatterns []string) batchResult {
	r := batchResult{scenario: sc}
	opts := sc.opts
	opts.Placement = floorplan.Grid(sc.acg.NodeCount(), 1, 1, 0.2)
	start := time.Now()
	res, err := repro.SynthesizeContext(ctx, sc.acg, opts)
	r.ElapsedSec = time.Since(start).Seconds()
	var infeasible *repro.InfeasibleError
	switch {
	case errors.As(err, &infeasible):
		r.setStats(infeasible.Stats)
	case res == nil:
		r.Error = err.Error()
	default:
		r.setResult(ctx, res, err, sweepPatterns)
	}
	return r
}

// setResult fills the row from a synthesis result and, when patterns are
// given, stress-characterizes the synthesized architecture under them.
// A decomposition whose architecture could not be routed (routeErr) is
// still a solved row; its sweeps report the routing error.
func (r *batchResult) setResult(ctx context.Context, res *repro.Result, routeErr error, sweepPatterns []string) {
	r.Feasible = true
	r.Cost = res.Decomposition.Cost
	r.Matches = len(res.Decomposition.Matches)
	if res.Decomposition.Remainder != nil {
		r.RemainderEdges = res.Decomposition.Remainder.EdgeCount()
	}
	r.setStats(res.Stats)
	switch {
	case len(sweepPatterns) == 0:
	case routeErr != nil:
		r.Sweeps = []archSweep{{Error: routeErr.Error()}}
	default:
		r.Sweeps = sweepArchitecture(ctx, res.Architecture, res.Routing, res.VCs, sweepPatterns, r.Seed)
	}
}

func (r *batchResult) setStats(st core.Stats) {
	r.NodesExplored = st.NodesExplored
	r.BranchesPruned = st.BranchesPruned
	r.SolverWorkers = st.Workers
	r.TimedOut = st.TimedOut
	r.Canceled = st.Canceled
}

// runScenarioRemote submits one scenario to a nocserve daemon and blocks
// for the canonical result, exercising the full service path: content
// addressing, coalescing and the result cache. The daemon's answer is
// decoded with the same codec the daemon encoded with, so a corrupt or
// version-skewed response fails loudly rather than producing a bogus row.
func runScenarioRemote(ctx context.Context, serveURL string, sc scenario, sweepPatterns []string) batchResult {
	r := batchResult{scenario: sc}
	body, err := json.Marshal(service.SynthesizeRequest{
		Graph: sc.acg,
		Options: service.RequestOptions{
			Mode:         sc.Mode,
			Grid:         []float64{float64(sc.acg.NodeCount()), 1, 1, 0.2},
			TimeoutMs:    sc.opts.Timeout.Milliseconds(),
			IsoTimeoutMs: sc.opts.IsoTimeout.Milliseconds(),
			Parallelism:  sc.opts.Parallelism,
		},
	})
	if err != nil {
		r.Error = err.Error()
		return r
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(serveURL, "/")+"/v1/synthesize?wait=1", bytes.NewReader(body))
	if err != nil {
		r.Error = err.Error()
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		r.Error = err.Error()
		r.ElapsedSec = time.Since(start).Seconds()
		return r
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	r.ElapsedSec = time.Since(start).Seconds()
	r.ServeKey = resp.Header.Get("X-Nocserve-Key")
	r.ServePath = resp.Header.Get("X-Nocserve-Path")
	if err != nil {
		r.Error = err.Error()
		return r
	}
	if resp.StatusCode != http.StatusOK {
		r.Error = fmt.Sprintf("daemon returned %d: %s", resp.StatusCode, strings.TrimSpace(string(data)))
		return r
	}
	res, err := repro.DecodeResult(data, nil)
	if err != nil {
		r.Error = err.Error()
		return r
	}
	// The decoded result carries the daemon's architecture, routing table
	// and VC assignment — sweep the served topology directly.
	r.setResult(ctx, res, nil, sweepPatterns)
	return r
}

// runTableFrontier regenerates the EXPERIMENTS.md ε-constraint frontier
// tables: for each scenario the warm-started sweep (internal/frontier)
// enumerates the cost-vs-latency Pareto frontier, and every grid solve is
// re-run cold (no incumbent seed) to measure what the warm start saves.
// AES additionally carries the simulated zero-load latency of each point
// (noc.Batch at a near-zero injection rate).
func runTableFrontier(ctx context.Context) {
	scenarios := []struct {
		name     string
		acg      *graph.Graph
		points   int
		validate bool
	}{
		{"aes-links", repro.AESACG(0.1), 8, true},
		{"fig5-links", randgraph.PaperFig5(16), 6, false},
	}
	if ba, err := randgraph.BarabasiAlbert(12, 2, 8, 64, 7); err == nil {
		scenarios = append(scenarios, struct {
			name     string
			acg      *graph.Graph
			points   int
			validate bool
		}{"ba-scalefree", ba, 6, false})
	}

	for _, sc := range scenarios {
		base := repro.Options{Mode: repro.CostLinks, MatchLimit: 1, Parallelism: 1}
		fopts := frontier.Options{Points: sc.points, Synth: base, Validate: sc.validate}
		res, err := frontier.Enumerate(ctx, sc.acg, fopts)
		if err != nil {
			check(fmt.Errorf("frontier sweep %s: %w", sc.name, err))
		}

		fmt.Printf("=== Frontier: %s (%d nodes, %d edges, links mode, %d-value ε grid) ===\n",
			sc.name, sc.acg.NodeCount(), sc.acg.EdgeCount(), len(res.Grid))
		fmt.Printf("anchor: cost %g, avg hops %.4f; %d non-dominated points in %.3f s\n",
			res.Anchor.Decomposition.Cost, res.Anchor.Decomposition.AvgHops,
			len(res.Points), res.Elapsed.Seconds())
		header := fmt.Sprintf("%-8s %8s %9s %8s %9s %11s %11s %9s %9s",
			"ε", "cost", "avg hops", "emitted", "warm", "warm nodes", "cold nodes", "warm ms", "cold ms")
		if sc.validate {
			header += fmt.Sprintf(" %10s", "sim cycles")
		}
		fmt.Println(header)

		measured := make(map[int]float64)
		for _, p := range res.Points {
			measured[p.Index] = p.MeasuredLatency
		}
		emittedIdx := 0
		for _, gp := range res.Grid {
			// Cold reference: same ε ceiling (slack applied exactly as the
			// sweep applies it), no incumbent seed.
			cold := base
			cold.MaxLatency = gp.Epsilon * (1 + 1e-12)
			coldStart := time.Now()
			cres, cerr := repro.SynthesizeContext(ctx, sc.acg, cold)
			coldMS := time.Since(coldStart).Seconds() * 1e3
			coldNodes := "-"
			if cerr == nil {
				coldNodes = fmt.Sprintf("%d", cres.Stats.NodesExplored)
			} else if ctx.Err() != nil {
				check(ctx.Err())
			}

			costStr, hopsStr := "-", "-"
			if gp.Feasible {
				costStr = fmt.Sprintf("%g", gp.Cost)
				hopsStr = fmt.Sprintf("%.4f", gp.AvgHops)
			}
			row := fmt.Sprintf("%-8.4f %8s %9s %8v %9v %11d %11s %9.1f %9.1f",
				gp.Epsilon, costStr, hopsStr, gp.Emitted, gp.Warm,
				gp.NodesExplored, coldNodes,
				gp.Elapsed.Seconds()*1e3, coldMS)
			if sc.validate && gp.Emitted {
				row += fmt.Sprintf(" %10.2f", measured[emittedIdx])
			}
			if gp.Emitted {
				emittedIdx++
			}
			fmt.Println(row)
		}
		fmt.Println()
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
