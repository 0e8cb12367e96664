package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/floorplan"
	"repro/internal/graph"
	"repro/internal/primitives"
	"repro/internal/randgraph"
)

// The solver must be representation-invariant: pushing the ACG through
// Freeze().Materialize(nil) (the CSR round trip) must produce a
// byte-identical decomposition listing, cost and statistics-relevant
// cover, across seeded random graphs and both worker counts.
func TestSolverFrozenRoundTripIdentical(t *testing.T) {
	lib := primitives.MustDefault()
	for seed := int64(0); seed < 5; seed++ {
		acg, err := randgraph.ErdosRenyi(10, 0.25, 8, 64, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 4} {
			opts := Options{Mode: CostLinks, Timeout: 20 * time.Second, Parallelism: par}
			direct, err := Solve(Problem{ACG: acg, Library: lib, Energy: energy.Tech180, Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			thawed, err := Solve(Problem{ACG: acg.Freeze().Materialize(nil), Library: lib, Energy: energy.Tech180, Options: opts})
			if err != nil {
				t.Fatal(err)
			}
			if (direct.Best == nil) != (thawed.Best == nil) {
				t.Fatalf("seed %d par %d: feasibility differs", seed, par)
			}
			if direct.Best == nil {
				continue
			}
			if direct.Best.Cost != thawed.Best.Cost {
				t.Fatalf("seed %d par %d: cost %g vs %g", seed, par, direct.Best.Cost, thawed.Best.Cost)
			}
			if direct.Best.PaperListing() != thawed.Best.PaperListing() {
				t.Fatalf("seed %d par %d: listings differ:\n%s\nvs\n%s",
					seed, par, direct.Best.PaperListing(), thawed.Best.PaperListing())
			}
			if err := thawed.Best.CoverIsExact(acg); err != nil {
				t.Fatalf("seed %d par %d: %v", seed, par, err)
			}
		}
	}
}

// The mask-based bound and remainder costing must agree exactly with the
// map-graph reference implementations on random live-edge subsets, in both
// cost modes, with the coster carrying the solve's cover floors. The AES
// ACG joins the random graphs so that link-mode shares below one link
// are exercised.
func TestMaskCosterMatchesGraphCoster(t *testing.T) {
	lib := primitives.MustDefault()
	prims := testPrims(t, lib)
	var graphs []*graph.Graph
	for seed := int64(0); seed < 8; seed++ {
		acg, err := randgraph.ErdosRenyi(12, 0.3, 8, 64, seed)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, acg)
	}
	graphs = append(graphs, aesACG(8, 1))
	for _, mode := range []CostMode{CostLinks, CostEnergy} {
		for i, acg := range graphs {
			seed := int64(i)
			p := &Problem{
				ACG:       acg,
				Library:   lib,
				Placement: floorplan.Grid(acg.NodeCount(), 1, 1, 0.2),
				Energy:    energy.Tech180,
				Options:   Options{Mode: mode},
			}
			facg := acg.Freeze()
			c := newCoster(p, facg, edgeConstants(p, facg, prims, 0, time.Time{}))
			rng := rand.New(rand.NewSource(seed))
			mask := graph.FullEdgeMask(facg.EdgeCount())
			for e := 0; e < facg.EdgeCount(); e++ {
				if rng.Float64() < 0.5 {
					mask.Clear(e)
				}
			}
			sub := facg.Materialize(mask)
			live := mask.Count()

			for _, slack := range []float64{math.Inf(1), 0, 12.5, 300} {
				wantLB := c.lowerBound(sub, slack)
				gotLB := c.lowerBoundMask(mask, live, slack)
				if d := wantLB - gotLB; d > 1e-9 || d < -1e-9 {
					t.Fatalf("mode %v seed %d slack %g: lowerBound %g vs mask %g", mode, seed, slack, wantLB, gotLB)
				}
			}
			wantRC := c.remainderCost(sub)
			gotRC := c.remainderCostMask(mask)
			if d := wantRC - gotRC; d > 1e-9 || d < -1e-9 {
				t.Fatalf("mode %v seed %d: remainderCost %g vs mask %g", mode, seed, wantRC, gotRC)
			}
		}
	}
}

// Every frozen edge's signature term, looked up by edge id, must equal
// the hash of its endpoints: enumerate keys covers by the XOR of these.
func TestGraphSigFrozenParity(t *testing.T) {
	acg, err := randgraph.ErdosRenyi(10, 0.3, 8, 64, 17)
	if err != nil {
		t.Fatal(err)
	}
	facg := acg.Freeze()
	hashes := edgeHashes(facg)
	for e := 0; e < facg.EdgeCount(); e++ {
		ed := facg.EdgeAt(e)
		if hashes[e] != edgeSig(ed.From, ed.To) {
			t.Fatalf("edge %d: per-id hash differs from its endpoint hash", e)
		}
	}
}

// The AES decomposition must keep its published shape (cost 28: four
// column gossips, two row loops, four remainder edges) through the
// CSR-backed search — the end-to-end pin against representation drift.
func TestSolverFrozenAESShape(t *testing.T) {
	res, err := Solve(Problem{
		ACG:     aesACG(8, 1),
		Library: primitives.MustDefault(),
		Energy:  energy.Tech180,
		Options: Options{Mode: CostLinks, Timeout: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no decomposition")
	}
	if res.Best.Cost != 28 {
		t.Fatalf("AES cost = %g, want 28", res.Best.Cost)
	}
	var gossips, loops int
	for _, m := range res.Best.Matches {
		switch m.Primitive.Name {
		case "MGG4":
			gossips++
		case "L4":
			loops++
		}
	}
	if gossips != 4 || loops != 2 || res.Best.Remainder.EdgeCount() != 4 {
		t.Fatalf("AES shape: %d gossips, %d loops, %d remainder edges",
			gossips, loops, res.Best.Remainder.EdgeCount())
	}
}
