package graph

import (
	"strings"
	"testing"
)

func TestEdgeKeyAndString(t *testing.T) {
	e := Edge{From: 2, To: 9, Volume: 1}
	if e.Key() != [2]NodeID{2, 9} {
		t.Fatalf("key = %v", e.Key())
	}
	if !strings.Contains(e.String(), "2->9") {
		t.Fatalf("string = %q", e.String())
	}
}

func TestGraphNameAndString(t *testing.T) {
	g := New("alpha")
	if g.Name() != "alpha" {
		t.Fatal("name lost")
	}
	g.SetName("beta")
	if g.Name() != "beta" {
		t.Fatal("rename lost")
	}
	g.SetEdge(Edge{From: 1, To: 2})
	s := g.String()
	if !strings.Contains(s, "beta") || !strings.Contains(s, "V=2") || !strings.Contains(s, "E=1") {
		t.Fatalf("string = %q", s)
	}
}

func TestInOutDegreeConsistency(t *testing.T) {
	g := Star("s", 1, []NodeID{2, 3, 4}, 0, 0)
	if g.OutDegree(1) != 3 || g.InDegree(1) != 0 {
		t.Fatalf("root degrees = %d/%d", g.OutDegree(1), g.InDegree(1))
	}
	if g.Degree(1) != 3 {
		t.Fatalf("total degree = %d", g.Degree(1))
	}
	// Sum of out-degrees equals edge count.
	sum := 0
	for _, n := range g.Nodes() {
		sum += g.OutDegree(n)
	}
	if sum != g.EdgeCount() {
		t.Fatalf("degree sum %d != edges %d", sum, g.EdgeCount())
	}
}

func TestSubtractEdgesPreservesVertices(t *testing.T) {
	g := New("t")
	g.SetEdge(Edge{From: 1, To: 2})
	g.SetEdge(Edge{From: 2, To: 3})
	r := SubtractEdges(g, [][2]NodeID{{1, 2}, {9, 9}})
	if r.NodeCount() != 3 || r.EdgeCount() != 1 {
		t.Fatalf("remaining: V=%d E=%d", r.NodeCount(), r.EdgeCount())
	}
	if g.EdgeCount() != 2 {
		t.Fatal("original mutated")
	}
}
