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

// TestSolverParallelMatchesSerialUnderCacheAblation re-checks determinism
// with the match cache disabled, separating the two tentpole mechanisms.
func TestSolverParallelMatchesSerialUnderCacheAblation(t *testing.T) {
	g := aesACG(8, 1)
	var listings []string
	for _, par := range []int{1, 8} {
		res, err := Solve(Problem{
			ACG:     g,
			Library: primitives.MustDefault(),
			Energy:  energy.Tech180,
			Options: Options{
				Mode:            CostLinks,
				Timeout:         60 * time.Second,
				Parallelism:     par,
				DisableIsoCache: true,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.IsoCacheHits != 0 || res.Stats.IsoCacheMisses != 0 {
			t.Fatalf("cache counters nonzero with cache disabled: %+v", res.Stats)
		}
		listings = append(listings, res.Best.PaperListing())
	}
	if listings[0] != listings[1] {
		t.Fatalf("decompositions differ without cache:\n%s\nvs\n%s", listings[0], listings[1])
	}
}

// TestMatchCacheSharedAcrossWorkers exercises the memoized match cache
// from many concurrent DFS workers — `go test -race ./internal/core` turns
// this into the required race check — and sanity-checks the hit counters.
func TestMatchCacheSharedAcrossWorkers(t *testing.T) {
	// IsoCacheMinCost -1 retains every result, making hit counts a
	// deterministic property of the instance rather than of timing. The
	// cover-floor bound proves the AES optimum within a few dozen nodes
	// that never revisit a remaining graph, so the bound is off here: the
	// exhaustive tree reconverges on remaining graphs and hits the cache.
	res, err := Solve(Problem{
		ACG:     aesACG(8, 1),
		Library: primitives.MustDefault(),
		Energy:  energy.Tech180,
		Options: Options{Mode: CostLinks, Timeout: 60 * time.Second, Parallelism: 8, IsoCacheMinCost: -1, DisableBound: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.Best.Cost != 28 {
		t.Fatalf("unexpected AES decomposition: %+v", res.Best)
	}
	if res.Stats.IsoCacheMisses == 0 {
		t.Fatal("cache recorded no misses — not consulted at all?")
	}
	if res.Stats.IsoCacheHits == 0 {
		t.Fatal("cache recorded no hits on the AES instance")
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
