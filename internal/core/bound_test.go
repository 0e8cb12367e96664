package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/floorplan"
	"repro/internal/graph"
	"repro/internal/primitives"
	"repro/internal/randgraph"
	"repro/internal/tgff"
)

// testPrims builds the dense pattern form of every library primitive, as
// newShared does.
func testPrims(t *testing.T, lib *primitives.Library) []primInfo {
	t.Helper()
	prims := make([]primInfo, lib.Len())
	for i, prim := range lib.Primitives() {
		info, err := newPrimInfo(prim)
		if err != nil {
			t.Fatal(err)
		}
		prims[i] = info
	}
	return prims
}

type boundInstance struct {
	name string
	acg  *graph.Graph
}

// boundInstances are the differential-test ACGs: small Erdős–Rényi,
// scale-free and TGFF graphs, the AES ACG and the Figure 5 planted graph.
func boundInstances(t *testing.T) []boundInstance {
	t.Helper()
	var out []boundInstance
	add := func(name string, g *graph.Graph, err error) {
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, boundInstance{name, g})
	}
	for _, n := range []int{8, 10, 12} {
		g, err := randgraph.ErdosRenyi(n, 0.3, 8, 64, int64(n))
		add(fmt.Sprintf("er-%d", n), g, err)
	}
	for _, n := range []int{10, 13, 16} {
		g, err := randgraph.BarabasiAlbert(n, 2, 8, 64, int64(n))
		add(fmt.Sprintf("ba-%d", n), g, err)
	}
	for _, n := range []int{6, 8, 10} {
		g, err := tgff.Generate(tgff.DefaultConfig(n, 42))
		add(fmt.Sprintf("tgff-%d", n), g, err)
	}
	add("aes", aesACG(8, 1), nil)
	add("fig5", randgraph.PaperFig5(16), nil)
	return out
}

// boundProblem is an instance under one cost mode, on a grid floorplan so
// that energy-mode wire lengths vary.
func boundProblem(acg *graph.Graph, mode CostMode) Problem {
	return Problem{
		ACG:       acg,
		Library:   primitives.MustDefault(),
		Placement: floorplan.Grid(acg.NodeCount(), 1, 1, 0.2),
		Energy:    energy.Tech180,
		Options:   Options{Mode: mode, Timeout: 60 * time.Second},
	}
}

// decompositionKey renders everything that identifies a decomposition:
// the matches with their mappings in path order (hence their ranks), the
// remainder, and the exact cost and latency bits.
func decompositionKey(d *Decomposition) string {
	if d == nil {
		return "<none>"
	}
	return fmt.Sprintf("%s cost=%x rem=%x hops=%x", d.PaperListing(),
		math.Float64bits(d.Cost), math.Float64bits(d.RemainderCost), math.Float64bits(d.AvgHops))
}

// The cover-floor bound must never change the answer: on every instance,
// in both cost modes, serially and with two workers, with and without a
// latency ceiling or a warm-start seed, the bounded solve returns exactly
// the decomposition of the unbounded (DisableBound) search. IsoLimit 1
// forces the root floor enumeration to truncate on the graphs with many
// raw matchings, so the truncation fallback is covered the same way.
func TestBoundMatchesUnboundedSearch(t *testing.T) {
	// unbounded is the reference solve. Its answer does not depend on the
	// worker count (TestSolverParallelDeterminism), so it runs serially.
	unbounded := func(name string, p Problem) *Decomposition {
		p.Options.Parallelism, p.Options.DisableBound = 1, true
		res, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Best == nil || res.Stats.TimedOut {
			t.Fatalf("%s: unbounded search found nothing (timed out %v)", name, res.Stats.TimedOut)
		}
		return res.Best
	}
	for _, inst := range boundInstances(t) {
		for _, mode := range []CostMode{CostLinks, CostEnergy} {
			plain := unbounded(fmt.Sprintf("%s/%v", inst.name, mode), boundProblem(inst.acg, mode))
			seed := plain.Cost + 1
			if mode == CostEnergy {
				seed = plain.Cost * 1.01
			}
			settings := []struct {
				name string
				set  func(*Options)
			}{
				{"plain", func(*Options) {}},
				{"maxlat", func(o *Options) { o.MaxLatency = (1 + plain.AvgHops) / 2 }},
				{"seeded", func(o *Options) { o.InitialBound = seed }},
				{"truncated", func(o *Options) { o.IsoLimit = 1 }},
			}
			for _, s := range settings {
				p := boundProblem(inst.acg, mode)
				s.set(&p.Options)
				// A seed above the optimum must return the cold solve's
				// decomposition, so the plain reference serves it too.
				want := decompositionKey(plain)
				if s.name == "maxlat" || s.name == "truncated" {
					want = decompositionKey(unbounded(fmt.Sprintf("%s/%v/%s", inst.name, mode, s.name), p))
				}
				for _, par := range []int{1, 2} {
					name := fmt.Sprintf("%s/%v/p%d/%s", inst.name, mode, par, s.name)
					p.Options.Parallelism = par
					with, err := Solve(p)
					if err != nil {
						t.Fatal(err)
					}
					if with.Stats.TimedOut {
						t.Fatalf("%s: timed out", name)
					}
					if got := decompositionKey(with.Best); got != want {
						t.Fatalf("%s: bounded search differs from unbounded:\n%s\nvs\n%s", name, got, want)
					}
				}
			}
		}
	}
}

// exhaustiveOptimum is the optimal decomposition cost of g over every
// matching of every primitive: no match cap, no isomorphism cap, no bound.
func exhaustiveOptimum(t *testing.T, g *graph.Graph, mode CostMode, placement *floorplan.Placement) float64 {
	t.Helper()
	res, err := Solve(Problem{
		ACG:       g,
		Library:   primitives.MustDefault(),
		Placement: placement,
		Energy:    energy.Tech180,
		Options: Options{Mode: mode, MatchLimit: -1, IsoLimit: -1, DisableBound: true,
			Parallelism: 1, Timeout: 60 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.Stats.TimedOut {
		t.Fatalf("exhaustive solve of %s: no proven optimum (timed out %v)", g.Name(), res.Stats.TimedOut)
	}
	return res.Best.Cost
}

// aesColumns is the AES ACG restricted to its first n columns: n gossip
// K4s joined by the row edges between them.
func aesColumns(n int) *graph.Graph {
	acg := aesACG(8, 1)
	keep := func(id graph.NodeID) bool { return int(id-1)%4 < n }
	g := graph.New(fmt.Sprintf("aes-%dcol", n))
	for _, id := range acg.Nodes() {
		if keep(id) {
			g.AddNode(id)
		}
	}
	for _, e := range acg.Edges() {
		if keep(e.From) && keep(e.To) {
			g.AddEdge(e)
		}
	}
	return g
}

// The lower bound is admissible: on random live-edge masks of small
// graphs, lowerBoundMask never exceeds the optimal cost of the remaining
// graph, found by the exhaustive solve. Budget 1 truncates every floor
// enumeration that finds a matching, so the conservative fallback is held
// to the same oracle.
func TestLowerBoundAdmissible(t *testing.T) {
	lib := primitives.MustDefault()
	prims := testPrims(t, lib)
	graphs := []*graph.Graph{aesColumns(1), aesColumns(2)}
	for seed := int64(0); seed < 3; seed++ {
		g, err := randgraph.ErdosRenyi(8, 0.3, 8, 64, seed)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for _, mode := range []CostMode{CostLinks, CostEnergy} {
		for gi, acg := range graphs {
			p := boundProblem(acg, mode)
			facg := acg.Freeze()
			for _, budget := range []int{0, 1} {
				c := newCoster(&p, facg, edgeConstants(&p, facg, prims, budget, time.Time{}))
				rng := rand.New(rand.NewSource(int64(gi)))
				// On the AES graphs, trial 0 keeps exactly the last gossip
				// column, where the MGG4 share binds. With budget 1 the
				// truncated enumeration has only seen the first column, so
				// this is where a missing fallback would overshoot.
				inLast := func(i int32) bool { return int(facg.IDOf(int(i))-1)%4 == gi }
				for trial := 0; trial < 6; trial++ {
					mask := graph.FullEdgeMask(facg.EdgeCount())
					for e := 0; e < facg.EdgeCount(); e++ {
						from, to := facg.EdgeEndpoints(e)
						if trial == 0 && gi < 2 {
							if !inLast(from) || !inLast(to) {
								mask.Clear(e)
							}
						} else if rng.Float64() < 0.5 {
							mask.Clear(e)
						}
					}
					sub := facg.Materialize(mask)
					if sub.EdgeCount() == 0 {
						continue
					}
					lb := c.lowerBoundMask(mask, mask.Count(), math.Inf(1))
					if opt := exhaustiveOptimum(t, sub, mode, p.Placement); lb > opt {
						t.Fatalf("%v graph %d budget %d trial %d: bound %g exceeds optimum %g",
							mode, gi, budget, trial, lb, opt)
					}
				}
			}
		}
	}
}

// The floors must be the tight ones on the AES ACG when the enumeration
// completes, and fall back conservatively when it is cut short. A
// complete link-mode enumeration prices the four gossip columns at MGG4's
// share and everything else at one link, for a root bound of 4·4 links +
// 12 row edges = 28, the proven optimum.
func TestCoverFloorsOnAES(t *testing.T) {
	lib := primitives.MustDefault()
	prims := testPrims(t, lib)
	acg := aesACG(8, 1)
	facg := acg.Freeze()
	p := boundProblem(acg, CostLinks)
	full := graph.FullEdgeMask(facg.EdgeCount())
	live := facg.EdgeCount()

	c := newCoster(&p, facg, edgeConstants(&p, facg, prims, 0, time.Time{}))
	if c.unit != 168 {
		t.Fatalf("share unit %d, want 168 (lcm of MGG4's 12 and MGG8's 56 edges)", c.unit)
	}
	if got := c.lowerBoundMask(full, live, math.Inf(1)); got != 28 {
		t.Fatalf("complete floors bound the AES ACG at %g, want 28", got)
	}

	// Budget 1 truncates MGG4's enumeration, so every edge falls back to
	// MGG4's share of 56/168; MGG8 has no match in the AES ACG, so its
	// enumeration completes and claims no edge.
	c = newCoster(&p, facg, edgeConstants(&p, facg, prims, 1, time.Time{}))
	if got, want := c.lowerBoundMask(full, live, math.Inf(1)), math.Ceil(float64(live)*56/168); got != want {
		t.Fatalf("truncated floors bound the AES ACG at %g, want MGG4's share on every edge, %g", got, want)
	}

	pe := boundProblem(acg, CostEnergy)
	if k := edgeConstants(&pe, facg, prims, 1, time.Time{}); k.floor != nil {
		t.Fatal("truncated energy-mode enumeration kept its floors")
	}
	if k := edgeConstants(&pe, facg, prims, 0, time.Time{}); k.floor == nil {
		t.Fatal("complete energy-mode enumeration dropped its floors")
	}
}
