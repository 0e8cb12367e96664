// Command nocsynth synthesizes a customized NoC communication architecture
// from an application characterization graph, running the paper's full
// pipeline: branch-and-bound decomposition into communication primitives,
// gluing of optimal implementations, routing-table derivation and virtual
// channel assignment.
//
// The ACG is read as JSON:
//
//	{
//	  "name": "myapp",
//	  "nodes": [1,2,3,4],
//	  "edges": [
//	    {"from":1,"to":2,"volume":128,"bandwidth":10},
//	    ...
//	  ]
//	}
//
// Usage:
//
//	nocsynth -acg app.json [-mode links|energy] [-tech 180nm|130nm|100nm]
//	         [-grid n,w,h,gap] [-linkbw Mbps] [-bisection Mbps]
//	         [-timeout 30s] [-parallel N] [-dot] [-routes]
//
// The search runs on -parallel branch-and-bound workers (0 = all CPUs) and
// can be interrupted with Ctrl-C, which prints the best decomposition
// found so far.
//
// With -frontier the single solve is replaced by an ε-constraint sweep
// that enumerates the cost-vs-latency Pareto frontier (-points grid
// values): each non-dominated point streams to stdout as one NDJSON line
// as soon as it is proven, followed by a summary record — the same
// canonical document nocserve's POST /v1/frontier serves.
//
//	nocsynth -acg app.json -mode links -frontier -points 8
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/energy"
	"repro/internal/floorplan"
	"repro/internal/frontier"
	"repro/internal/graph"
	"repro/internal/routing"

	repro "repro"
)

func main() {
	acgPath := flag.String("acg", "", "path to the ACG JSON file (required)")
	mode := flag.String("mode", "energy", "cost mode: energy or links")
	tech := flag.String("tech", "180nm", "technology profile: 180nm, 130nm, 100nm")
	grid := flag.String("grid", "", "grid placement as n,coreW,coreH,gap (e.g. 16,1,1,0.2); empty = unit distances")
	linkBW := flag.Float64("linkbw", 0, "per-link bandwidth capacity in Mbps (0 = unconstrained)")
	bisection := flag.Float64("bisection", 0, "max bisection bandwidth in Mbps (0 = unconstrained)")
	timeout := flag.Duration("timeout", 30*time.Second, "search time budget")
	parallel := flag.Int("parallel", 0, "branch-and-bound workers (0 = all CPUs, 1 = serial)")
	dot := flag.Bool("dot", false, "print the architecture in Graphviz DOT")
	routes := flag.Bool("routes", false, "print the full routing table")
	verilog := flag.Bool("verilog", false, "print a structural Verilog netlist of the architecture")
	frontierSweep := flag.Bool("frontier", false, "enumerate the cost-vs-latency Pareto frontier as NDJSON instead of a single solve")
	points := flag.Int("points", frontier.DefaultPoints, "ε-grid size for -frontier, unconstrained anchor included")
	flag.Parse()

	if *acgPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(*acgPath)
	check(err)
	var acg graph.Graph
	check(json.Unmarshal(data, &acg))

	em, err := energy.ProfileByName(*tech)
	check(err)

	var costMode repro.CostMode
	switch *mode {
	case "energy":
		costMode = repro.CostEnergy
	case "links":
		costMode = repro.CostLinks
	default:
		check(fmt.Errorf("unknown mode %q", *mode))
	}

	var placement *floorplan.Placement
	if *grid != "" {
		var n int
		var w, h, gap float64
		if _, err := fmt.Sscanf(*grid, "%d,%f,%f,%f", &n, &w, &h, &gap); err != nil {
			check(fmt.Errorf("bad -grid %q: %v", *grid, err))
		}
		placement = floorplan.Grid(n, w, h, gap)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	opts := repro.Options{
		Mode:        costMode,
		Placement:   placement,
		Energy:      em,
		Timeout:     *timeout,
		Parallelism: *parallel,
		Constraints: repro.Constraints{
			LinkBandwidthMbps: *linkBW,
			MaxBisectionMbps:  *bisection,
		},
	}

	if *frontierSweep {
		// The sweep owns per-point deadlines through its context; the
		// -timeout budget bounds the whole enumeration instead.
		opts.Timeout = 0
		fctx := ctx
		if *timeout > 0 {
			var tcancel context.CancelFunc
			fctx, tcancel = context.WithTimeout(ctx, *timeout)
			defer tcancel()
		}
		res, err := frontier.Enumerate(fctx, &acg, frontier.Options{
			Points: *points,
			Synth:  opts,
			Emit:   func(p frontier.Point) { os.Stdout.Write(frontier.MarshalPointLine(p)) },
		})
		if err != nil && res == nil {
			check(err)
		}
		os.Stdout.Write(frontier.MarshalSummaryLine(res.Summary()))
		if err != nil {
			fmt.Fprintf(os.Stderr, "nocsynth: frontier sweep truncated: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "nocsynth: %d frontier points over a %d-value ε grid in %.3f s\n",
			len(res.Points), len(res.Grid), res.Elapsed.Seconds())
		return
	}

	start := time.Now()
	res, err := repro.SynthesizeContext(ctx, &acg, opts)
	var inf *repro.InfeasibleError
	if errors.As(err, &inf) {
		// Report how hard the search tried before giving up, so an
		// infeasible verdict is distinguishable from an untried one.
		fmt.Fprintf(os.Stderr, "nocsynth: search effort: %d tree nodes, %d pruned, timed out: %v, canceled: %v, constraint failures: %d\n",
			inf.Stats.NodesExplored, inf.Stats.BranchesPruned,
			inf.Stats.TimedOut, inf.Stats.Canceled, inf.Stats.ConstraintFails)
	}
	check(err)

	fmt.Printf("synthesized %q in %.3f s (%d workers, %d tree nodes, %d pruned, timed out: %v, interrupted: %v)\n\n",
		acg.Name(), time.Since(start).Seconds(),
		res.Stats.Workers, res.Stats.NodesExplored, res.Stats.BranchesPruned,
		res.Stats.TimedOut, res.Stats.Canceled)
	fmt.Print(res.Decomposition.PaperListing())
	fmt.Printf("\n%s", res.Architecture.Describe())
	fmt.Printf("virtual channels required: %d\n", res.VCs.NumVCs)

	free, err := routing.DeadlockFree(res.Routing, res.Architecture, nil)
	check(err)
	fmt.Printf("single-VC deadlock free: %v\n", free)

	if *routes {
		fmt.Println("\nrouting table (src -> dst: path):")
		nodes := res.Architecture.Nodes()
		for _, s := range nodes {
			for _, d := range nodes {
				if s == d {
					continue
				}
				path, err := res.Routing.Route(s, d)
				check(err)
				strs := make([]string, len(path))
				for i, p := range path {
					strs[i] = fmt.Sprintf("%d", p)
				}
				fmt.Printf("  %d -> %d: %s\n", s, d, strings.Join(strs, " "))
			}
		}
	}
	if *dot {
		fmt.Printf("\n%s", res.Architecture.DOT())
	}
	if *verilog {
		v, err := res.VerilogNetlist("noc_top", 32)
		check(err)
		fmt.Printf("\n%s", v)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "nocsynth:", err)
		os.Exit(1)
	}
}
