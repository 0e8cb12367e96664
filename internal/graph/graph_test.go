package graph

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAddNodeIdempotent(t *testing.T) {
	g := New("t")
	g.AddNode(1)
	g.AddNode(1)
	if got := g.NodeCount(); got != 1 {
		t.Fatalf("NodeCount = %d, want 1", got)
	}
}

func TestAddEdgeCreatesEndpoints(t *testing.T) {
	g := New("t")
	g.AddEdge(Edge{From: 3, To: 7, Volume: 128, Bandwidth: 10})
	if !g.HasNode(3) || !g.HasNode(7) {
		t.Fatal("endpoints not created")
	}
	e, ok := g.EdgeBetween(3, 7)
	if !ok || e.Volume != 128 || e.Bandwidth != 10 {
		t.Fatalf("EdgeBetween = %+v, %v", e, ok)
	}
	if g.HasEdge(7, 3) {
		t.Fatal("reverse edge should not exist")
	}
}

func TestAddEdgeAccumulates(t *testing.T) {
	g := New("t")
	g.AddEdge(Edge{From: 1, To: 2, Volume: 10, Bandwidth: 1})
	g.AddEdge(Edge{From: 1, To: 2, Volume: 5, Bandwidth: 2})
	e, _ := g.EdgeBetween(1, 2)
	if e.Volume != 15 || e.Bandwidth != 3 {
		t.Fatalf("accumulated edge = %+v, want v=15 b=3", e)
	}
	if g.EdgeCount() != 1 {
		t.Fatalf("EdgeCount = %d, want 1", g.EdgeCount())
	}
}

func TestSetEdgeReplaces(t *testing.T) {
	g := New("t")
	g.SetEdge(Edge{From: 1, To: 2, Volume: 10})
	g.SetEdge(Edge{From: 1, To: 2, Volume: 4, Bandwidth: 9})
	e, _ := g.EdgeBetween(1, 2)
	if e.Volume != 4 || e.Bandwidth != 9 {
		t.Fatalf("replaced edge = %+v", e)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New("t")
	g.SetEdge(Edge{From: 1, To: 2})
	g.SetEdge(Edge{From: 2, To: 1})
	g.RemoveEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("edge 1->2 still present")
	}
	if !g.HasEdge(2, 1) {
		t.Fatal("edge 2->1 should remain")
	}
	if g.EdgeCount() != 1 {
		t.Fatalf("EdgeCount = %d, want 1", g.EdgeCount())
	}
	// Removing a non-existent edge is a no-op.
	g.RemoveEdge(1, 2)
	if g.EdgeCount() != 1 {
		t.Fatal("no-op removal changed edge count")
	}
}

func TestNodesSorted(t *testing.T) {
	g := New("t")
	for _, id := range []NodeID{5, 1, 9, 3} {
		g.AddNode(id)
	}
	want := []NodeID{1, 3, 5, 9}
	if got := g.Nodes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Nodes = %v, want %v", got, want)
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New("t")
	g.SetEdge(Edge{From: 2, To: 1})
	g.SetEdge(Edge{From: 1, To: 3})
	g.SetEdge(Edge{From: 1, To: 2})
	es := g.Edges()
	want := [][2]NodeID{{1, 2}, {1, 3}, {2, 1}}
	for i, e := range es {
		if e.Key() != want[i] {
			t.Fatalf("Edges[%d] = %v, want %v", i, e.Key(), want[i])
		}
	}
}

func TestNeighborsUnion(t *testing.T) {
	g := New("t")
	g.SetEdge(Edge{From: 1, To: 2})
	g.SetEdge(Edge{From: 3, To: 1})
	got := g.Neighbors(1)
	want := []NodeID{2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Neighbors(1) = %v, want %v", got, want)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := New("t")
	g.SetEdge(Edge{From: 1, To: 2, Volume: 7})
	c := g.Clone()
	c.SetEdge(Edge{From: 1, To: 2, Volume: 100})
	c.SetEdge(Edge{From: 2, To: 3})
	if e, _ := g.EdgeBetween(1, 2); e.Volume != 7 {
		t.Fatalf("original mutated: %+v", e)
	}
	if g.HasNode(3) {
		t.Fatal("original gained node 3")
	}
}

func TestSumDefinition1(t *testing.T) {
	g := New("g")
	g.SetEdge(Edge{From: 1, To: 2, Volume: 3})
	h := New("h")
	h.SetEdge(Edge{From: 2, To: 3, Volume: 4})
	h.SetEdge(Edge{From: 1, To: 2, Volume: 1})
	s := Sum(g, h)
	if s.NodeCount() != 3 || s.EdgeCount() != 2 {
		t.Fatalf("Sum: V=%d E=%d, want 3,2", s.NodeCount(), s.EdgeCount())
	}
	if e, _ := s.EdgeBetween(1, 2); e.Volume != 4 {
		t.Fatalf("shared edge volume = %g, want accumulated 4", e.Volume)
	}
}

func TestSubtractDefinition2(t *testing.T) {
	g := New("g")
	g.SetEdge(Edge{From: 1, To: 2})
	g.SetEdge(Edge{From: 2, To: 3})
	sub := New("s")
	sub.SetEdge(Edge{From: 1, To: 2})
	r := Subtract(g, sub)
	// Definition 2: vertex set preserved, edges removed.
	if r.NodeCount() != 3 {
		t.Fatalf("remaining graph lost vertices: V=%d", r.NodeCount())
	}
	if r.HasEdge(1, 2) || !r.HasEdge(2, 3) {
		t.Fatal("wrong edges in remaining graph")
	}
}

func TestEqual(t *testing.T) {
	a := New("a")
	a.SetEdge(Edge{From: 1, To: 2, Volume: 5})
	b := New("b")
	b.SetEdge(Edge{From: 1, To: 2, Volume: 5})
	if !Equal(a, b) {
		t.Fatal("identical graphs reported unequal")
	}
	b.SetEdge(Edge{From: 1, To: 2, Volume: 6})
	if Equal(a, b) {
		t.Fatal("different volumes reported equal")
	}
}

func TestTotalVolumeAndBandwidth(t *testing.T) {
	g := New("t")
	g.SetEdge(Edge{From: 1, To: 2, Volume: 5, Bandwidth: 1})
	g.SetEdge(Edge{From: 2, To: 3, Volume: 7, Bandwidth: 2})
	if got := g.TotalVolume(); got != 12 {
		t.Fatalf("TotalVolume = %g", got)
	}
	if got := g.TotalBandwidth(); got != 3 {
		t.Fatalf("TotalBandwidth = %g", got)
	}
}

// Property: Subtract(Sum(g,h), h) restricted to g's edges equals g, when g
// and h have disjoint edge sets.
func TestPropertySumSubtractInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, h := randomDisjointPair(rng)
		s := Sum(g, h)
		r := Subtract(s, h)
		for _, e := range g.Edges() {
			got, ok := r.EdgeBetween(e.From, e.To)
			if !ok || got.Volume != e.Volume {
				return false
			}
		}
		return r.EdgeCount() == g.EdgeCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Clone always compares Equal and shares no storage.
func TestPropertyCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 12, 0.3)
		c := g.Clone()
		if !Equal(g, c) {
			return false
		}
		es := c.Edges()
		if len(es) > 0 {
			c.RemoveEdge(es[0].From, es[0].To)
			return g.EdgeCount() == len(es)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: JSON round trip preserves the graph exactly.
func TestPropertyJSONRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 10, 0.25)
		data, err := json.Marshal(g)
		if err != nil {
			return false
		}
		var back Graph
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		return Equal(g, &back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRejectsSelfLoop(t *testing.T) {
	var g Graph
	err := json.Unmarshal([]byte(`{"nodes":[1],"edges":[{"from":1,"to":1}]}`), &g)
	if err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestJSONRejectsDuplicateEdge(t *testing.T) {
	var g Graph
	err := json.Unmarshal([]byte(`{"nodes":[1,2],"edges":[{"from":1,"to":2},{"from":1,"to":2}]}`), &g)
	if err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

func randomGraph(rng *rand.Rand, n int, p float64) *Graph {
	g := New("rand")
	for i := 1; i <= n; i++ {
		g.AddNode(NodeID(i))
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			if i != j && rng.Float64() < p {
				g.SetEdge(Edge{
					From:   NodeID(i),
					To:     NodeID(j),
					Volume: float64(rng.Intn(100) + 1),
				})
			}
		}
	}
	return g
}

func randomDisjointPair(rng *rand.Rand) (*Graph, *Graph) {
	g := New("g")
	h := New("h")
	n := 10
	for i := 1; i <= n; i++ {
		g.AddNode(NodeID(i))
		h.AddNode(NodeID(i))
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			if i == j {
				continue
			}
			switch rng.Intn(4) {
			case 0:
				g.SetEdge(Edge{From: NodeID(i), To: NodeID(j), Volume: float64(rng.Intn(9) + 1)})
			case 1:
				h.SetEdge(Edge{From: NodeID(i), To: NodeID(j), Volume: float64(rng.Intn(9) + 1)})
			}
		}
	}
	return g, h
}
