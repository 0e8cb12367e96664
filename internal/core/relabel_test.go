package core

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/energy"
	"repro/internal/floorplan"
	"repro/internal/graph"
	"repro/internal/primitives"
	"repro/internal/randgraph"
	"repro/internal/tgff"
)

// relabel returns g with every NodeID id replaced by f(id), and p's cores
// moved with them (a nil placement stays nil).
func relabel(g *graph.Graph, p *floorplan.Placement, f func(graph.NodeID) graph.NodeID) (*graph.Graph, *floorplan.Placement) {
	h := graph.New(g.Name())
	for _, id := range g.Nodes() {
		h.AddNode(f(id))
	}
	for _, e := range g.Edges() {
		e.From, e.To = f(e.From), f(e.To)
		h.AddEdge(e)
	}
	if p == nil {
		return h, nil
	}
	origins := make(map[graph.NodeID]floorplan.Point)
	dims := make(map[graph.NodeID]floorplan.Point)
	for _, id := range p.Cores() {
		origins[f(id)], dims[f(id)] = p.Origin(id), p.Dims(id)
	}
	return h, floorplan.NewPlacement(origins, dims)
}

func solveWith(t *testing.T, g *graph.Graph, p *floorplan.Placement, mode CostMode, par int) *Decomposition {
	t.Helper()
	res, err := Solve(Problem{
		ACG:       g,
		Library:   primitives.MustDefault(),
		Placement: p,
		Energy:    energy.Tech180,
		Options:   Options{Mode: mode, Parallelism: par},
	})
	if err != nil || res.Best == nil {
		t.Fatalf("solve %s: %v", g.Name(), err)
	}
	return res.Best
}

// Two disjoint complete 4-node digraphs decompose into two gossips
// whatever their NodeIDs: the canonical rank must not confuse IDs that
// differ only above bit 15.
func TestTwoK4sAnyNodeIDs(t *testing.T) {
	for _, second := range []graph.NodeID{4, 65536} {
		g := graph.New("two-k4")
		for _, base := range []graph.NodeID{0, second} {
			for u := base; u < base+4; u++ {
				for v := base; v < base+4; v++ {
					if u != v {
						g.AddEdge(graph.Edge{From: u, To: v, Volume: 64})
					}
				}
			}
		}
		for _, par := range []int{1, 2} {
			d := solveWith(t, g, nil, CostLinks, par)
			if d.Cost != 8 || len(d.Matches) != 2 || d.Remainder.EdgeCount() != 0 {
				t.Errorf("second K4 at %d, P = %d: cost %g, %d matches, %d remainder edges; want 8, 2, 0",
					second, par, d.Cost, len(d.Matches), d.Remainder.EdgeCount())
			}
		}
	}
}

// A strictly increasing relabeling of the ACG's NodeIDs keeps the
// (From, To) edge order, so the solver must return the relabeled
// decomposition with the same cost bits — with IDs that cross 65 536 or
// go negative too.
func TestSolveInvariantUnderIncreasingRelabel(t *testing.T) {
	ba, err := randgraph.BarabasiAlbert(20, 2, 8, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := tgff.Generate(tgff.DefaultConfig(14, 1))
	if err != nil {
		t.Fatal(err)
	}
	instances := []struct {
		name string
		g    *graph.Graph
		p    *floorplan.Placement
		mode CostMode
	}{
		{"aes links", aesACG(8, 1), nil, CostLinks},
		{"aes energy", aesACG(8, 1), floorplan.Grid(16, 1, 1, 0.2), CostEnergy},
		{"fig5 links", randgraph.PaperFig5(16), nil, CostLinks},
		{"ba20 links", ba, nil, CostLinks},
		{"tgff14 links", tg, nil, CostLinks},
	}
	relabelings := []struct {
		name string
		f    func(graph.NodeID) graph.NodeID
	}{
		{"across 65536", func(id graph.NodeID) graph.NodeID { return id + 65536 - 6 }},
		{"negative", func(id graph.NodeID) graph.NodeID { return id - 10 }},
		{"stride 40000", func(id graph.NodeID) graph.NodeID { return 40000*id - 200000 }},
	}
	for _, in := range instances {
		base := solveWith(t, in.g, in.p, in.mode, 1)
		for _, rl := range relabelings {
			g, p := relabel(in.g, in.p, rl.f)
			got := solveWith(t, g, p, in.mode, 1)
			checkRelabeled(t, fmt.Sprintf("%s relabeled %s", in.name, rl.name), base, got, rl.f)
		}
	}
}

// checkRelabeled asserts that got is base with every NodeID mapped by f:
// the same cost bits, the same primitives over the mapped edges, and the
// mapped remainder.
func checkRelabeled(t *testing.T, where string, base, got *Decomposition, f func(graph.NodeID) graph.NodeID) {
	t.Helper()
	if math.Float64bits(got.Cost) != math.Float64bits(base.Cost) || len(got.Matches) != len(base.Matches) {
		t.Errorf("%s: cost %v with %d matches, want %v with %d",
			where, got.Cost, len(got.Matches), base.Cost, len(base.Matches))
		return
	}
	for i, m := range base.Matches {
		want := m.CoveredEdges()
		for j := range want {
			want[j] = [2]graph.NodeID{f(want[j][0]), f(want[j][1])}
		}
		if got.Matches[i].Primitive.Name != m.Primitive.Name || !slices.Equal(got.Matches[i].CoveredEdges(), want) {
			t.Errorf("%s: match %d is %s over %v, want %s over %v", where, i,
				got.Matches[i].Primitive.Name, got.Matches[i].CoveredEdges(), m.Primitive.Name, want)
		}
	}
	var want []graph.Edge
	for _, e := range base.Remainder.Edges() {
		e.From, e.To = f(e.From), f(e.To)
		want = append(want, e)
	}
	if !slices.Equal(got.Remainder.Edges(), want) {
		t.Errorf("%s: remainder %v, want %v", where, got.Remainder.Edges(), want)
	}
}

// FuzzSolveRelabel decodes the graph of a synthesize-request body (the
// POST /v1/synthesize wire form) and, for graphs of at most 8 nodes,
// solves it serially in both cost modes, then again after strictly
// increasing relabelings that straddle NodeID 65 536 or go negative. The
// relabeled solve must return the relabeled decomposition with the same
// cost bits.
func FuzzSolveRelabel(f *testing.F) {
	twoK4 := graph.New("two-k4")
	for _, base := range []graph.NodeID{0, 65536} {
		for u := base; u < base+4; u++ {
			for v := base; v < base+4; v++ {
				if u != v {
					twoK4.AddEdge(graph.Edge{From: u, To: v, Volume: 64})
				}
			}
		}
	}
	aesColumn := graph.New("aes-column")
	col := []graph.NodeID{1, 5, 9, 13}
	for _, e := range aesACG(8, 1).Edges() {
		if slices.Contains(col, e.From) && slices.Contains(col, e.To) {
			aesColumn.AddEdge(e)
		}
	}
	for _, g := range []*graph.Graph{aesColumn, randgraph.PaperFig5(16), twoK4} {
		body, err := json.Marshal(map[string]any{"graph": g, "options": map[string]string{"mode": "links"}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, uint16(1))
		f.Add(body, uint16(40000))
	}

	f.Fuzz(func(t *testing.T, body []byte, stride uint16) {
		var req struct {
			Graph *graph.Graph `json:"graph"`
		}
		if json.Unmarshal(body, &req) != nil || req.Graph == nil || req.Graph.NodeCount() == 0 || req.Graph.NodeCount() > 8 {
			return
		}
		g := req.Graph
		solve := func(acg *graph.Graph, mode CostMode) *Decomposition {
			res, err := Solve(Problem{ACG: acg, Library: primitives.MustDefault(), Energy: energy.Tech180, Options: Options{Mode: mode, Parallelism: 1}})
			if err != nil {
				return nil
			}
			return res.Best
		}
		modes := []CostMode{CostLinks, CostEnergy}
		var base [2]*Decomposition
		for i, mode := range modes {
			if base[i] = solve(g, mode); base[i] == nil {
				return
			}
		}
		ids := g.Nodes()
		step := graph.NodeID(max(stride, 1))
		n := graph.NodeID(len(ids))
		// The node of rank r maps to origin + r*step: strictly increasing
		// whatever the decoded IDs are.
		for _, origin := range []graph.NodeID{65536 - step*(n/2), -step * (n + 1)} {
			rl := func(id graph.NodeID) graph.NodeID {
				r, _ := slices.BinarySearch(ids, id)
				return origin + graph.NodeID(r)*step
			}
			h, _ := relabel(g, nil, rl)
			for i, mode := range modes {
				got := solve(h, mode)
				if got == nil {
					t.Fatalf("mode %v origin %d step %d: relabeled solve failed", mode, origin, step)
				}
				checkRelabeled(t, fmt.Sprintf("mode %v origin %d step %d", mode, origin, step), base[i], got, rl)
			}
		}
	})
}
