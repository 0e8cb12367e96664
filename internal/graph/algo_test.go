package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestWeaklyConnected(t *testing.T) {
	g := New("t")
	if !g.WeaklyConnected() {
		t.Fatal("empty graph should be connected")
	}
	g.SetEdge(Edge{From: 1, To: 2})
	g.SetEdge(Edge{From: 3, To: 2}) // direction ignored
	if !g.WeaklyConnected() {
		t.Fatal("1-2-3 chain should be weakly connected")
	}
	g.AddNode(9)
	if g.WeaklyConnected() {
		t.Fatal("isolated node 9 should disconnect")
	}
}

func TestFindDirectedCycleNone(t *testing.T) {
	g := New("dag")
	g.SetEdge(Edge{From: 1, To: 2})
	g.SetEdge(Edge{From: 2, To: 3})
	g.SetEdge(Edge{From: 1, To: 3})
	if c := g.FindDirectedCycle(); c != nil {
		t.Fatalf("found cycle %v in a DAG", c)
	}
}

func TestFindDirectedCycleSimple(t *testing.T) {
	g := New("cyc")
	g.SetEdge(Edge{From: 1, To: 2})
	g.SetEdge(Edge{From: 2, To: 3})
	g.SetEdge(Edge{From: 3, To: 1})
	c := g.FindDirectedCycle()
	if len(c) != 3 {
		t.Fatalf("cycle = %v, want length 3", c)
	}
	// Verify it is an actual directed cycle.
	for i := range c {
		if !g.HasEdge(c[i], c[(i+1)%len(c)]) {
			t.Fatalf("cycle %v contains missing edge %d->%d", c, c[i], c[(i+1)%len(c)])
		}
	}
}

func TestFindDirectedCycleTwoNode(t *testing.T) {
	g := New("cyc2")
	g.SetEdge(Edge{From: 5, To: 9})
	g.SetEdge(Edge{From: 9, To: 5})
	c := g.FindDirectedCycle()
	if len(c) != 2 {
		t.Fatalf("cycle = %v, want length 2", c)
	}
}

// TestHopDistances checks the BFS oracle the shortest-path property test
// relies on.
func TestHopDistances(t *testing.T) {
	g := New("t")
	g.SetEdge(Edge{From: 1, To: 2})
	g.SetEdge(Edge{From: 2, To: 3})
	g.SetEdge(Edge{From: 3, To: 4})
	g.SetEdge(Edge{From: 1, To: 4})
	d := hopDistances(g, 1)
	if d[4] != 1 || d[3] != 2 {
		t.Fatalf("hopDistances = %v", d)
	}
	if _, ok := hopDistances(g, 4)[1]; ok {
		t.Fatal("4 should not reach 1 in directed sense")
	}
}

func TestUndirectedHopDistances(t *testing.T) {
	g := New("t")
	g.SetEdge(Edge{From: 2, To: 1})
	g.SetEdge(Edge{From: 2, To: 3})
	d := g.undirectedHopDistances(1)
	if d[3] != 2 {
		t.Fatalf("undirected distance 1->3 = %d, want 2", d[3])
	}
}

func TestDiameter(t *testing.T) {
	// Diameter ignores edge direction: a one-way 7-node path spans 6
	// hops and a one-way 6-cycle 3.
	g := DirectedPath("p", Range(1, 7), 0, 0)
	if got := g.Diameter(); got != 6 {
		t.Fatalf("7-node path diameter = %d, want 6", got)
	}
	h := DirectedCycle("c", Range(1, 6), 0, 0)
	if got := h.Diameter(); got != 3 {
		t.Fatalf("6-cycle diameter = %d, want 3", got)
	}
	empty := New("e")
	if got := empty.Diameter(); got != -1 {
		t.Fatalf("empty diameter = %d, want -1", got)
	}
	disc := New("d")
	disc.AddNode(1)
	disc.AddNode(2)
	if got := disc.Diameter(); got != -1 {
		t.Fatalf("disconnected diameter = %d, want -1", got)
	}
}

func TestShortestPathUnit(t *testing.T) {
	g := New("t")
	g.SetEdge(Edge{From: 1, To: 2})
	g.SetEdge(Edge{From: 2, To: 3})
	g.SetEdge(Edge{From: 1, To: 3})
	path, cost, ok := g.ShortestPath(1, 3, UnitWeight)
	if !ok || cost != 1 || !reflect.DeepEqual(path, []NodeID{1, 3}) {
		t.Fatalf("ShortestPath = %v cost=%g ok=%v", path, cost, ok)
	}
}

func TestShortestPathWeighted(t *testing.T) {
	g := New("t")
	g.SetEdge(Edge{From: 1, To: 2, Volume: 1})
	g.SetEdge(Edge{From: 2, To: 3, Volume: 1})
	g.SetEdge(Edge{From: 1, To: 3, Volume: 10})
	w := func(e Edge) float64 { return e.Volume }
	path, cost, ok := g.ShortestPath(1, 3, w)
	if !ok || cost != 2 || len(path) != 3 {
		t.Fatalf("weighted ShortestPath = %v cost=%g ok=%v", path, cost, ok)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New("t")
	g.SetEdge(Edge{From: 1, To: 2})
	g.AddNode(5)
	if _, _, ok := g.ShortestPath(1, 5, UnitWeight); ok {
		t.Fatal("unreachable node reported reachable")
	}
	if _, _, ok := g.ShortestPath(1, 99, UnitWeight); ok {
		t.Fatal("missing node reported reachable")
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := New("t")
	g.AddNode(1)
	path, cost, ok := g.ShortestPath(1, 1, UnitWeight)
	if !ok || cost != 0 || !reflect.DeepEqual(path, []NodeID{1}) {
		t.Fatalf("self path = %v cost=%g ok=%v", path, cost, ok)
	}
}

func TestBisectionBandwidthSmall(t *testing.T) {
	// Two K2 clusters joined by one bidirectional link of bandwidth 3 each
	// way: the optimal bisection cuts exactly that pair.
	g := New("t")
	g.SetEdge(Edge{From: 1, To: 2, Bandwidth: 100})
	g.SetEdge(Edge{From: 2, To: 1, Bandwidth: 100})
	g.SetEdge(Edge{From: 3, To: 4, Bandwidth: 100})
	g.SetEdge(Edge{From: 4, To: 3, Bandwidth: 100})
	g.SetEdge(Edge{From: 2, To: 3, Bandwidth: 3})
	g.SetEdge(Edge{From: 3, To: 2, Bandwidth: 3})
	if got := g.BisectionBandwidth(); got != 6 {
		t.Fatalf("BisectionBandwidth = %g, want 6", got)
	}
}

func TestBisectionBandwidthMesh(t *testing.T) {
	// In a 4x4 mesh with unit bandwidth per direction, cutting between two
	// columns severs 4 bidirectional links = 8 units.
	g := New("m")
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			id := NodeID(4*r + c + 1)
			if c < 3 {
				g.SetEdge(Edge{From: id, To: id + 1, Bandwidth: 1})
				g.SetEdge(Edge{From: id + 1, To: id, Bandwidth: 1})
			}
			if r < 3 {
				g.SetEdge(Edge{From: id, To: id + 4, Bandwidth: 1})
				g.SetEdge(Edge{From: id + 4, To: id, Bandwidth: 1})
			}
		}
	}
	if got := g.BisectionBandwidth(); got != 8 {
		t.Fatalf("mesh bisection = %g, want 8", got)
	}
}

func TestBisectionBandwidthLargeUsesKL(t *testing.T) {
	// 24 nodes: two 12-cliques joined by a single light link. KL refinement
	// should find a cut at or below the clique-internal bandwidth.
	g := New("t")
	for c := 0; c < 2; c++ {
		base := NodeID(c * 12)
		for i := NodeID(1); i <= 12; i++ {
			for j := NodeID(1); j <= 12; j++ {
				if i != j {
					g.SetEdge(Edge{From: base + i, To: base + j, Bandwidth: 10})
				}
			}
		}
	}
	g.SetEdge(Edge{From: 1, To: 13, Bandwidth: 1})
	got := g.BisectionBandwidth()
	if got != 1 {
		t.Fatalf("KL bisection = %g, want 1", got)
	}
}

func TestBisectionTrivial(t *testing.T) {
	g := New("t")
	if g.BisectionBandwidth() != 0 {
		t.Fatal("empty graph bisection should be 0")
	}
	g.AddNode(1)
	if g.BisectionBandwidth() != 0 {
		t.Fatal("single node bisection should be 0")
	}
}

func TestBuildersCompleteDigraph(t *testing.T) {
	g := CompleteDigraph("k4", Range(1, 4), 8, 1)
	if g.EdgeCount() != 12 {
		t.Fatalf("K4 digraph edges = %d, want 12", g.EdgeCount())
	}
	for _, n := range g.Nodes() {
		if g.OutDegree(n) != 3 || g.InDegree(n) != 3 {
			t.Fatalf("node %d degrees wrong", n)
		}
	}
}

func TestBuildersStar(t *testing.T) {
	g := Star("b13", 1, []NodeID{2, 3, 4}, 8, 1)
	if g.EdgeCount() != 3 || g.OutDegree(1) != 3 {
		t.Fatalf("star wrong: E=%d", g.EdgeCount())
	}
	// Root duplicated in leaves must be skipped.
	h := Star("b", 1, []NodeID{1, 2}, 0, 0)
	if h.EdgeCount() != 1 {
		t.Fatalf("star with root leaf: E=%d, want 1", h.EdgeCount())
	}
}

func TestBuildersCycleAndPath(t *testing.T) {
	c := DirectedCycle("l4", Range(1, 4), 8, 1)
	if c.EdgeCount() != 4 || !c.HasEdge(4, 1) {
		t.Fatalf("cycle wrong")
	}
	p := DirectedPath("p4", Range(1, 4), 8, 1)
	if p.EdgeCount() != 3 || p.HasEdge(4, 1) {
		t.Fatalf("path wrong")
	}
}

func TestRangePanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Range(5,1) did not panic")
		}
	}()
	Range(5, 1)
}

func TestDOTDeterministic(t *testing.T) {
	g := New("my graph!")
	g.SetEdge(Edge{From: 1, To: 2, Volume: 3})
	g.SetEdge(Edge{From: 2, To: 3})
	a, b := g.DOT(), g.DOT()
	if a != b {
		t.Fatal("DOT output not deterministic")
	}
	if len(a) == 0 {
		t.Fatal("empty DOT output")
	}
}

// hopDistances is the directed BFS hop distance from src to every
// reachable vertex: the oracle for TestPropertyShortestPathMatchesBFS.
func hopDistances(g *Graph, src NodeID) map[NodeID]int {
	dist := map[NodeID]int{src: 0}
	queue := []NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range g.OutNeighbors(n) {
			if _, ok := dist[m]; !ok {
				dist[m] = dist[n] + 1
				queue = append(queue, m)
			}
		}
	}
	return dist
}

// Property: shortest-path cost under unit weights equals BFS hop distance.
func TestPropertyShortestPathMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 9, 0.25)
		nodes := g.Nodes()
		if len(nodes) == 0 {
			return true
		}
		src := nodes[rng.Intn(len(nodes))]
		bfs := hopDistances(g, src)
		for _, dst := range nodes {
			want, reach := bfs[dst]
			path, cost, ok := g.ShortestPath(src, dst, UnitWeight)
			if ok != reach {
				return false
			}
			if ok && (int(cost) != want || len(path) != want+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every reported cycle is a genuine directed cycle.
func TestPropertyCycleIsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 8, 0.3)
		c := g.FindDirectedCycle()
		if c == nil {
			// Acyclic: no edge's head reaches back to its tail.
			for _, e := range g.Edges() {
				if _, _, back := g.ShortestPath(e.To, e.From, UnitWeight); back {
					return false
				}
			}
			return true
		}
		if len(c) < 2 {
			return false
		}
		for i := range c {
			if !g.HasEdge(c[i], c[(i+1)%len(c)]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
