package graph

import (
	"math"
	"math/rand"
	"testing"
)

// randomDigraph builds a seeded random digraph with annotations; ids are
// deliberately sparse (stride 3) so dense indices differ from NodeIDs.
func randomDigraph(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New("rand")
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(3*i + 1)
		g.AddNode(ids[i])
	}
	for _, u := range ids {
		for _, v := range ids {
			if u != v && rng.Float64() < p {
				g.SetEdge(Edge{From: u, To: v, Volume: float64(rng.Intn(100) + 1), Bandwidth: rng.Float64() * 10})
			}
		}
	}
	return g
}

// Freeze must round-trip: Materialize(nil) of the frozen view equals the
// source graph in name, vertex set, edge set and annotations.
func TestFreezeThawRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := randomDigraph(12, 0.25, seed)
		f := g.Freeze()
		back := f.Materialize(nil)
		if back.Name() != g.Name() {
			t.Fatalf("seed %d: name %q != %q", seed, back.Name(), g.Name())
		}
		if !Equal(g, back) {
			t.Fatalf("seed %d: Materialize(nil) of Freeze(g) != g", seed)
		}
	}
	// Include an empty graph and a nodes-only graph.
	for _, g := range []*Graph{New("empty"), func() *Graph {
		g := New("isolated")
		g.AddNode(4)
		g.AddNode(9)
		return g
	}()} {
		if !Equal(g, g.Freeze().Materialize(nil)) {
			t.Fatalf("%s: Materialize(nil) of Freeze(g) != g", g.Name())
		}
	}
}

// The CSR accessors must agree with the map-graph accessors on every
// vertex and edge.
func TestFrozenAccessorsMatchGraph(t *testing.T) {
	g := randomDigraph(15, 0.3, 42)
	f := g.Freeze()
	if f.NodeCount() != g.NodeCount() || f.EdgeCount() != g.EdgeCount() {
		t.Fatalf("counts: frozen %d/%d vs graph %d/%d",
			f.NodeCount(), f.EdgeCount(), g.NodeCount(), g.EdgeCount())
	}
	ids := f.IDs()
	for i, id := range g.Nodes() {
		if ids[i] != id {
			t.Fatalf("IDs[%d] = %d, want %d", i, ids[i], id)
		}
		if j, ok := f.IndexOf(id); !ok || j != i {
			t.Fatalf("IndexOf(%d) = %d,%v, want %d", id, j, ok, i)
		}
		if f.OutDegree(i) != g.OutDegree(id) || f.InDegree(i) != g.InDegree(id) {
			t.Fatalf("degrees of %d differ", id)
		}
		outs := g.OutNeighbors(id)
		row := f.Out(i)
		for k, m := range outs {
			if ids[row[k]] != m {
				t.Fatalf("Out(%d)[%d] = %d, want %d", id, k, ids[row[k]], m)
			}
		}
		ins := g.InNeighbors(id)
		irow := f.In(i)
		for k, m := range ins {
			if ids[irow[k]] != m {
				t.Fatalf("In(%d)[%d] = %d, want %d", id, k, ids[irow[k]], m)
			}
		}
	}
	// Edge ids enumerate Edges() in the same canonical order.
	for e, want := range g.Edges() {
		got := f.EdgeAt(e)
		if got != want {
			t.Fatalf("EdgeAt(%d) = %v, want %v", e, got, want)
		}
		ui, _ := f.IndexOf(want.From)
		vi, _ := f.IndexOf(want.To)
		id, ok := f.EdgeIndexBetween(ui, vi)
		if !ok || id != e {
			t.Fatalf("EdgeIndexBetween(%d,%d) = %d,%v, want %d", want.From, want.To, id, ok, e)
		}
		if f.Volume(e) != want.Volume || f.Bandwidth(e) != want.Bandwidth {
			t.Fatalf("edge %d annotations differ", e)
		}
	}
	// Absent edges are reported absent.
	if _, ok := f.EdgeIndexBetween(0, 0); ok {
		t.Fatal("self-edge reported present")
	}
}

func TestEdgeMaskOps(t *testing.T) {
	m := FullEdgeMask(70)
	if m.Count() != 70 {
		t.Fatalf("full mask count = %d", m.Count())
	}
	m2 := m.Without([]int32{0, 63, 64, 69})
	if m2.Count() != 66 {
		t.Fatalf("after Without count = %d", m2.Count())
	}
	if m.Count() != 70 {
		t.Fatal("Without mutated the receiver")
	}
	for _, e := range []int{0, 63, 64, 69} {
		if m2.Has(e) {
			t.Fatalf("edge %d still set", e)
		}
	}
	m2.Set(63)
	if !m2.Has(63) || m2.Count() != 67 {
		t.Fatal("Set failed")
	}
}

// Materialize must equal Subtract of the cleared edges.
func TestMaterializeMatchesSubtract(t *testing.T) {
	g := randomDigraph(10, 0.3, 5)
	f := g.Freeze()
	rng := rand.New(rand.NewSource(9))
	mask := FullEdgeMask(f.EdgeCount())
	var removed [][2]NodeID
	for e := 0; e < f.EdgeCount(); e++ {
		if rng.Float64() < 0.4 {
			mask.Clear(e)
			ed := f.EdgeAt(e)
			removed = append(removed, [2]NodeID{ed.From, ed.To})
		}
	}
	want := SubtractEdges(g, removed)
	got := f.Materialize(mask)
	if !Equal(want, got) {
		t.Fatal("Materialize(mask) != SubtractEdges")
	}
	if got.NodeCount() != g.NodeCount() {
		t.Fatal("Materialize dropped vertices")
	}
}

// The CSR Dijkstra must reproduce the map-graph ShortestPath exactly —
// same paths, same costs, same tie-breaks — for every reachable pair.
func TestShortestPathTreeMatchesShortestPath(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := randomDigraph(12, 0.2, 100+seed)
		f := g.Freeze()
		rng := rand.New(rand.NewSource(200 + seed))
		w := make([]float64, f.EdgeCount())
		for e := range w {
			// Coarse weights force plenty of equal-cost ties.
			w[e] = float64(rng.Intn(3) + 1)
		}
		wf := func(e Edge) float64 {
			ui, _ := f.IndexOf(e.From)
			vi, _ := f.IndexOf(e.To)
			id, _ := f.EdgeIndexBetween(ui, vi)
			return w[id]
		}
		ids := f.IDs()
		for si, src := range ids {
			dist, prev := f.ShortestPathTree(si, w)
			for di, dst := range ids {
				if si == di {
					continue
				}
				wantPath, wantCost, wantOK := g.ShortestPath(src, dst, wf)
				gotPath, gotOK := PathFromTree(prev, si, di)
				if wantOK != gotOK {
					t.Fatalf("seed %d %d->%d: ok %v vs %v", seed, src, dst, wantOK, gotOK)
				}
				if !wantOK {
					if !math.IsInf(dist[di], 1) {
						t.Fatalf("seed %d %d->%d: unreachable but dist %g", seed, src, dst, dist[di])
					}
					continue
				}
				if dist[di] != wantCost {
					t.Fatalf("seed %d %d->%d: cost %g vs %g", seed, src, dst, dist[di], wantCost)
				}
				if len(gotPath) != len(wantPath) {
					t.Fatalf("seed %d %d->%d: path len %d vs %d", seed, src, dst, len(gotPath), len(wantPath))
				}
				for k := range gotPath {
					if ids[gotPath[k]] != wantPath[k] {
						t.Fatalf("seed %d %d->%d: hop %d is %d vs %d",
							seed, src, dst, k, ids[gotPath[k]], wantPath[k])
					}
				}
			}
		}
	}
}
