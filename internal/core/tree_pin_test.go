package core_test

import (
	"testing"

	"repro/internal/aes"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/floorplan"
	"repro/internal/graph"
	"repro/internal/primitives"
	"repro/internal/randgraph"
)

// The serial search tree of the benchmark's fixed instances is pinned:
// nodes explored, branches pruned and leaves reached at Parallelism 1.
// How a node enumerates its candidates must change what a node costs,
// never which nodes the tree has.
func TestSerialSearchTreePinned(t *testing.T) {
	ba30, err := randgraph.BarabasiAlbert(30, 2, 8, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	grid := floorplan.Grid(16, 1, 1, 0.2)
	cases := []struct {
		name                  string
		acg                   *graph.Graph
		mode                  core.CostMode
		place                 *floorplan.Placement
		nodes, pruned, leaves int
	}{
		{"aes-links", aes.ACG(0.1), core.CostLinks, grid, 32, 25, 1},
		{"aes-energy", aes.ACG(0.1), core.CostEnergy, grid, 1186, 66, 369},
		{"fig5", randgraph.PaperFig5(16), core.CostLinks, nil, 19, 13, 1},
		{"ba30-seed7", ba30, core.CostLinks, nil, 51, 34, 1},
	}
	for _, c := range cases {
		res, err := core.Solve(core.Problem{
			ACG:       c.acg,
			Library:   primitives.MustDefault(),
			Placement: c.place,
			Energy:    energy.Tech180,
			Options:   core.Options{Mode: c.mode, Parallelism: 1},
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		st := res.Stats
		if st.TimedOut || st.Canceled || res.Best == nil {
			t.Fatalf("%s: solve cut short or infeasible: %+v", c.name, st)
		}
		if st.NodesExplored != c.nodes || st.BranchesPruned != c.pruned || st.LeavesReached != c.leaves {
			t.Errorf("%s: nodes/pruned/leaves %d/%d/%d, want %d/%d/%d", c.name,
				st.NodesExplored, st.BranchesPruned, st.LeavesReached, c.nodes, c.pruned, c.leaves)
		}
	}
}
