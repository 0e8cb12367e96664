package frontier_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	repro "repro"
	"repro/internal/core"
	"repro/internal/frontier"
	"repro/internal/randgraph"
)

// recomputeAvgHops independently re-derives the volume-weighted average
// hop count of a decomposition from first principles: covered edges
// traverse their match's mapped route, remainder edges one dedicated
// link, each weighted by the ACG edge's volume (or uniformly when the
// graph carries no volume).
func recomputeAvgHops(t *testing.T, acg *repro.Graph, d *repro.Decomposition) float64 {
	t.Helper()
	hops := make(map[[2]repro.NodeID]float64)
	for _, e := range acg.Edges() {
		hops[e.Key()] = 1 // remainder edges are direct links
	}
	for _, m := range d.Matches {
		for _, k := range m.CoveredEdges() {
			route, ok := m.MappedRoute(k[0], k[1])
			if !ok {
				t.Fatalf("match covers edge %v but has no route for it", k)
			}
			if len(route) > 1 {
				hops[k] = float64(len(route) - 1)
			}
		}
	}
	var wsum, total float64
	for _, e := range acg.Edges() {
		w := e.Volume
		if acg.TotalVolume() == 0 {
			w = 1
		}
		total += w
		wsum += w * hops[e.Key()]
	}
	if total == 0 {
		return 0
	}
	return wsum / total
}

func baGraph(t *testing.T) *repro.Graph {
	t.Helper()
	g, err := randgraph.BarabasiAlbert(12, 2, 8, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fig5Graph is the paper's Figure 5 random example — the smallest graph
// in the repo whose links-mode frontier is non-degenerate.
func fig5Graph() *repro.Graph { return randgraph.PaperFig5(16) }

// TestFrontierShapeAndAvgHops checks the frontier invariants on a
// scale-free graph: costs strictly decrease, hop averages respect their
// ε ceilings and never decrease, the loosest point reproduces the
// unconstrained anchor, and every reported AvgHops matches an
// independent recomputation from the decomposition itself.
func TestFrontierShapeAndAvgHops(t *testing.T) {
	acg := fig5Graph()
	res, err := frontier.Enumerate(context.Background(), acg, frontier.Options{
		Points: 6,
		Synth:  repro.Options{Mode: repro.CostLinks, MatchLimit: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 2 {
		t.Fatalf("expected a non-degenerate frontier, got %d points", len(res.Points))
	}
	anchor := res.Anchor.Decomposition
	lastP := res.Points[len(res.Points)-1]
	// The loosest point always matches the anchor's cost; its hop
	// average may be lower when an equal-cost, latency-better
	// decomposition exists (the emission rule keeps the better one).
	if lastP.Cost != anchor.Cost || lastP.AvgHops > anchor.AvgHops {
		t.Errorf("loosest point (%v, %v) vs anchor (%v, %v): want equal cost, no worse latency",
			lastP.Cost, lastP.AvgHops, anchor.Cost, anchor.AvgHops)
	}
	for i, p := range res.Points {
		if p.Index != i {
			t.Errorf("point %d has index %d", i, p.Index)
		}
		if p.AvgHops > p.Epsilon*(1+1e-9) {
			t.Errorf("point %d: avgHops %v exceeds eps %v", i, p.AvgHops, p.Epsilon)
		}
		want := recomputeAvgHops(t, acg, p.Result.Decomposition)
		if math.Abs(p.AvgHops-want) > 1e-9 {
			t.Errorf("point %d: AvgHops %v, recomputed %v", i, p.AvgHops, want)
		}
		if i == 0 {
			continue
		}
		if p.Cost >= res.Points[i-1].Cost {
			t.Errorf("point %d: cost %v not strictly below predecessor %v", i, p.Cost, res.Points[i-1].Cost)
		}
		if p.AvgHops < res.Points[i-1].AvgHops {
			t.Errorf("point %d: avgHops %v below predecessor %v", i, p.AvgHops, res.Points[i-1].AvgHops)
		}
	}
	sum := res.Summary()
	if sum.Points != len(res.Points) || sum.Grid != len(res.Grid) {
		t.Errorf("summary %+v inconsistent with result (%d points, %d grid)", sum, len(res.Points), len(res.Grid))
	}
}

// TestFrontierParallelismByteIdentity requires the canonical NDJSON
// stream to be byte-identical between a serial sweep and a fully
// parallel one — the property the service's content-addressed cache
// depends on.
func TestFrontierParallelismByteIdentity(t *testing.T) {
	acg := fig5Graph()
	encode := func(parallelism int) []byte {
		t.Helper()
		var emitted []frontier.Point
		res, err := frontier.Enumerate(context.Background(), acg, frontier.Options{
			Points: 6,
			Synth:  repro.Options{Mode: repro.CostLinks, MatchLimit: 1, Parallelism: parallelism},
			Emit:   func(p frontier.Point) { emitted = append(emitted, p) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(emitted) != len(res.Points) {
			t.Fatalf("Emit observed %d points, result has %d", len(emitted), len(res.Points))
		}
		var buf bytes.Buffer
		if err := res.EncodeNDJSON(&buf); err != nil {
			t.Fatal(err)
		}
		// The streaming path must concatenate to the same document.
		var streamed bytes.Buffer
		for _, p := range emitted {
			streamed.Write(frontier.MarshalPointLine(p))
		}
		streamed.Write(frontier.MarshalSummaryLine(res.Summary()))
		if !bytes.Equal(buf.Bytes(), streamed.Bytes()) {
			t.Fatalf("EncodeNDJSON and streamed lines disagree:\n%s\nvs\n%s", buf.Bytes(), streamed.Bytes())
		}
		return buf.Bytes()
	}
	serial := encode(1)
	parallel := encode(0)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("frontier differs across parallelism:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

// TestFrontierWarmStartAES checks the exclusive ε-constraint warm start
// on the paper's AES graph, in both roles it plays during a sweep.
//
// Dominated point: seeding the tightest-ceiling solve with its own
// optimal cost asks only for a strict improvement; none exists, so the
// solve must prove infeasibility while exploring strictly (here: orders
// of magnitude) fewer branch-and-bound nodes than the cold solve — the
// latency-aware slack bound prunes the warm threshold at the root.
//
// Improving point: a loose-ceiling solve seeded with the tight point's
// higher cost must return the byte-identical result a cold solve finds.
func TestFrontierWarmStartAES(t *testing.T) {
	acg := repro.AESACG(1)
	lib := repro.DefaultLibrary()
	const tightEps = 1 + 1e-12 // every edge on a direct single-hop link
	mk := func(maxLat, seed float64) core.Problem {
		return core.Problem{
			ACG:     acg,
			Library: lib,
			Energy:  repro.Tech180,
			Options: core.Options{
				Mode: core.CostLinks, MatchLimit: 1, Parallelism: 1,
				MaxLatency: maxLat, InitialBound: seed,
			},
		}
	}

	coldTight, err := core.SolveContext(context.Background(), mk(tightEps, 0))
	if err != nil {
		t.Fatal(err)
	}
	if coldTight.Best == nil {
		t.Fatal("cold tight-ceiling solve found no decomposition")
	}
	warmTight, err := core.SolveContext(context.Background(), mk(tightEps, coldTight.Best.Cost))
	if err != nil {
		t.Fatal(err)
	}
	if warmTight.Best != nil {
		t.Errorf("warm solve seeded with the optimal cost %v returned a decomposition costing %v; "+
			"the exclusive bound admits only strict improvements", coldTight.Best.Cost, warmTight.Best.Cost)
	}
	if warmTight.Stats.NodesExplored >= coldTight.Stats.NodesExplored {
		t.Errorf("warm start explored %d nodes, cold %d — expected strictly fewer",
			warmTight.Stats.NodesExplored, coldTight.Stats.NodesExplored)
	}

	// The public API maps the no-improvement proof to ErrInfeasible, which
	// frontier.Enumerate reads as "dominated — the previous point carries".
	_, err = repro.Synthesize(acg, repro.Options{
		Mode: repro.CostLinks, MatchLimit: 1, Parallelism: 1,
		MaxLatency: tightEps, InitialBound: coldTight.Best.Cost,
	})
	if !errors.Is(err, repro.ErrInfeasible) {
		t.Errorf("dominated warm solve returned %v, want ErrInfeasible", err)
	}

	anchor, err := repro.Synthesize(acg, repro.Options{Mode: repro.CostLinks, MatchLimit: 1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	loose := repro.Options{
		Mode: repro.CostLinks, MatchLimit: 1, Parallelism: 1,
		MaxLatency: anchor.Decomposition.AvgHops * (1 + 1e-12),
	}
	coldLoose, err := repro.Synthesize(acg, loose)
	if err != nil {
		t.Fatal(err)
	}
	warmOpts := loose
	warmOpts.InitialBound = coldTight.Best.Cost
	warmLoose, err := repro.Synthesize(acg, warmOpts)
	if err != nil {
		t.Fatal(err)
	}
	if warmLoose.Decomposition.Cost >= coldTight.Best.Cost {
		t.Fatalf("loose ceiling should admit an improvement below %v, got %v",
			coldTight.Best.Cost, warmLoose.Decomposition.Cost)
	}
	// Solver statistics (elapsed time, node counts) are volatile; the
	// deterministic payload is everything else.
	coldLoose.Stats, warmLoose.Stats = core.Stats{}, core.Stats{}
	coldJSON, err := coldLoose.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	warmJSON, err := warmLoose.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Errorf("warm-started solve changed the answer:\ncold:\n%s\nwarm:\n%s", coldJSON, warmJSON)
	}
}

// TestFrontierValidate runs a small sweep with zero-load validation and
// checks every emitted point carries a positive measured latency.
func TestFrontierValidate(t *testing.T) {
	acg := baGraph(t)
	res, err := frontier.Enumerate(context.Background(), acg, frontier.Options{
		Points:   3,
		Synth:    repro.Options{Mode: repro.CostLinks, MatchLimit: 2},
		Validate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Points {
		if p.MeasuredLatency <= 0 {
			t.Errorf("point %d: measured latency %v, want > 0", i, p.MeasuredLatency)
		}
	}
}

// TestFrontierCancellation checks a canceled context yields a partial
// result and the context's error.
func TestFrontierCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := frontier.Enumerate(ctx, baGraph(t), frontier.Options{
		Points: 4,
		Synth:  repro.Options{Mode: repro.CostLinks, MatchLimit: 2},
	})
	if err == nil {
		t.Fatal("expected an error from a pre-canceled context")
	}
	if res != nil && len(res.Points) != 0 {
		t.Fatalf("pre-canceled sweep emitted %d points", len(res.Points))
	}
}
