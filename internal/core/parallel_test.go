package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/energy"
	"repro/internal/floorplan"
	"repro/internal/graph"
	"repro/internal/primitives"
	"repro/internal/randgraph"
	"repro/internal/tgff"
)

// detGraphs builds the fixed-seed instance set the determinism tests sweep:
// TGFF-style task graphs, Erdos-Renyi random graphs and the AES ACG.
func detGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{"aes": aesACG(8, 1)}
	for _, n := range []int{8, 12, 16} {
		for _, seed := range []int64{1, 2} {
			g, err := tgff.Generate(tgff.DefaultConfig(n, seed))
			if err != nil {
				t.Fatal(err)
			}
			gs[fmt.Sprintf("tgff-%d-%d", n, seed)] = g
		}
	}
	for _, seed := range []int64{3, 7} {
		g, err := randgraph.ErdosRenyi(12, 0.2, 8, 64, seed)
		if err != nil {
			t.Fatal(err)
		}
		gs[fmt.Sprintf("er-12-%d", seed)] = g
	}
	return gs
}

// TestSolverParallelDeterminism asserts the headline contract of the
// parallel search: identical decompositions — cost, match list, mappings
// and remainder — at Parallelism 1 and Parallelism N, in both cost modes.
func TestSolverParallelDeterminism(t *testing.T) {
	placement := floorplan.Grid(16, 1, 1, 0.2)
	for name, g := range detGraphs(t) {
		for _, mode := range []CostMode{CostLinks, CostEnergy} {
			modeName := "links"
			if mode == CostEnergy {
				modeName = "energy"
			}
			t.Run(fmt.Sprintf("%s/%s", name, modeName), func(t *testing.T) {
				var ref Result
				for i, par := range []int{1, 4, 16} {
					res, err := Solve(Problem{
						ACG:       g,
						Library:   primitives.MustDefault(),
						Placement: placement,
						Energy:    energy.Tech180,
						Options: Options{
							Mode:        mode,
							Timeout:     60 * time.Second,
							Parallelism: par,
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					if res.Stats.TimedOut {
						t.Fatalf("parallelism %d timed out", par)
					}
					if i == 0 {
						ref = res
						continue
					}
					if (res.Best == nil) != (ref.Best == nil) {
						t.Fatalf("parallelism %d: best nil-ness differs", par)
					}
					if res.Best == nil {
						continue
					}
					if res.Best.Cost != ref.Best.Cost {
						t.Fatalf("parallelism %d: cost %g, serial %g",
							par, res.Best.Cost, ref.Best.Cost)
					}
					if got, want := res.Best.PaperListing(), ref.Best.PaperListing(); got != want {
						t.Fatalf("parallelism %d decomposition differs:\n%s\nvs serial:\n%s",
							par, got, want)
					}
					if !graph.Equal(res.Best.Remainder, ref.Best.Remainder) {
						t.Fatalf("parallelism %d: remainder differs", par)
					}
				}
			})
		}
	}
}

// TestConcurrentSolvesIndependent runs many DFS workers over the
// exhaustive AES tree, then several solves at once over one problem —
// `go test -race ./internal/core` turns this into the worker pool's race
// check — and requires the published AES cost from each.
func TestConcurrentSolvesIndependent(t *testing.T) {
	// The cover-floor bound proves the AES optimum within a few dozen
	// nodes, so the bound is off here to keep eight workers busy.
	res, err := Solve(Problem{
		ACG:     aesACG(8, 1),
		Library: primitives.MustDefault(),
		Energy:  energy.Tech180,
		Options: Options{Mode: CostLinks, Timeout: 60 * time.Second, Parallelism: 8, DisableBound: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.Best.Cost != 28 {
		t.Fatalf("unexpected AES decomposition: %+v", res.Best)
	}
	// Concurrent solves over one shared problem must also be independent.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := Solve(Problem{
				ACG:     aesACG(8, 1),
				Library: primitives.MustDefault(),
				Energy:  energy.Tech180,
				Options: Options{Mode: CostLinks, Timeout: 60 * time.Second, Parallelism: 2},
			})
			if err != nil || r.Best == nil || r.Best.Cost != 28 {
				t.Errorf("concurrent solve: err=%v best=%+v", err, r.Best)
			}
		}()
	}
	wg.Wait()
}

// TestDeprecatedCacheOptionsInert pins the four former match-cache
// options as no-ops: setting all of them changes neither the serial AES
// search nor its result, and no solve reports a cache lookup.
func TestDeprecatedCacheOptionsInert(t *testing.T) {
	solve := func(opts Options) Result {
		t.Helper()
		opts.Mode, opts.Timeout, opts.Parallelism = CostLinks, 60*time.Second, 1
		res, err := Solve(Problem{ACG: aesACG(8, 1), Library: primitives.MustDefault(), Energy: energy.Tech180, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best == nil {
			t.Fatal("no AES decomposition")
		}
		return res
	}
	mc := NewMatchCache(4)
	ref := solve(Options{})
	got := solve(Options{DisableIsoCache: true, IsoCacheEntries: 1, IsoCacheMinCost: time.Hour, MatchCache: mc})
	if g, w := got.Best.PaperListing(), ref.Best.PaperListing(); g != w {
		t.Fatalf("deprecated options changed the decomposition:\n%s\nvs default:\n%s", g, w)
	}
	if got.Stats.NodesExplored != ref.Stats.NodesExplored || got.Stats.BranchesPruned != ref.Stats.BranchesPruned {
		t.Fatalf("deprecated options changed the search: %d nodes / %d pruned, default %d / %d",
			got.Stats.NodesExplored, got.Stats.BranchesPruned, ref.Stats.NodesExplored, ref.Stats.BranchesPruned)
	}
	for name, st := range map[string]Stats{"default": ref.Stats, "deprecated options": got.Stats} {
		if st.IsoCacheHits != 0 || st.IsoCacheMisses != 0 {
			t.Fatalf("%s solve reports cache lookups: %d hits, %d misses", name, st.IsoCacheHits, st.IsoCacheMisses)
		}
	}
	if hits, misses := mc.Counters(); hits != 0 || misses != 0 {
		t.Fatalf("MatchCache counters %d/%d, want 0/0", hits, misses)
	}
}

// TestSolveContextCancel verifies that a canceled context stops the search
// promptly, flags Stats.Canceled, and still returns without error.
func TestSolveContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolveContext(ctx, Problem{
		ACG:     aesACG(8, 1),
		Library: primitives.MustDefault(),
		Energy:  energy.Tech180,
		Options: Options{Mode: CostLinks},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Canceled {
		t.Fatal("Stats.Canceled not set after pre-canceled context")
	}
}

// TestSolveContextDeadlineActsAsTimeout verifies the context deadline is
// merged with Options.Timeout.
func TestSolveContextDeadlineActsAsTimeout(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Nanosecond))
	defer cancel()
	res, err := SolveContext(ctx, Problem{
		ACG:     aesACG(8, 1),
		Library: primitives.MustDefault(),
		Energy:  energy.Tech180,
		Options: Options{Mode: CostLinks},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.TimedOut && !res.Stats.Canceled {
		t.Fatal("neither TimedOut nor Canceled set after expired context deadline")
	}
}

// TestSolverWorkersReported checks the Stats.Workers accounting at both
// ends of the Parallelism knob.
func TestSolverWorkersReported(t *testing.T) {
	for _, par := range []int{1, 3} {
		res, err := Solve(Problem{
			ACG:     aesACG(8, 1),
			Library: primitives.MustDefault(),
			Energy:  energy.Tech180,
			Options: Options{Mode: CostLinks, Timeout: 60 * time.Second, Parallelism: par},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Workers != par {
			t.Fatalf("Parallelism %d: Stats.Workers = %d", par, res.Stats.Workers)
		}
	}
}
