package graph

import "fmt"

// CompleteDigraph returns the complete directed graph on ids: an edge in
// both directions between every vertex pair. This is the representation
// graph of the gossip primitive (all-to-all, Figure 1 of the paper).
func CompleteDigraph(name string, ids []NodeID, volume, bandwidth float64) *Graph {
	g := New(name)
	for _, i := range ids {
		g.AddNode(i)
	}
	for _, i := range ids {
		for _, j := range ids {
			if i != j {
				g.SetEdge(Edge{From: i, To: j, Volume: volume, Bandwidth: bandwidth})
			}
		}
	}
	return g
}

// Star returns the one-to-all broadcast representation graph: directed
// edges from root to every leaf.
func Star(name string, root NodeID, leaves []NodeID, volume, bandwidth float64) *Graph {
	g := New(name)
	g.AddNode(root)
	for _, l := range leaves {
		if l == root {
			continue
		}
		g.SetEdge(Edge{From: root, To: l, Volume: volume, Bandwidth: bandwidth})
	}
	return g
}

// DirectedCycle returns the loop representation graph ids[0] -> ids[1] ->
// ... -> ids[n-1] -> ids[0].
func DirectedCycle(name string, ids []NodeID, volume, bandwidth float64) *Graph {
	g := New(name)
	n := len(ids)
	for i := 0; i < n; i++ {
		g.SetEdge(Edge{From: ids[i], To: ids[(i+1)%n], Volume: volume, Bandwidth: bandwidth})
	}
	return g
}

// DirectedPath returns the path representation graph ids[0] -> ids[1] ->
// ... -> ids[n-1].
func DirectedPath(name string, ids []NodeID, volume, bandwidth float64) *Graph {
	g := New(name)
	for _, id := range ids {
		g.AddNode(id)
	}
	for i := 0; i+1 < len(ids); i++ {
		g.SetEdge(Edge{From: ids[i], To: ids[i+1], Volume: volume, Bandwidth: bandwidth})
	}
	return g
}

// BidirectionalRing returns a ring with edges in both directions; used for
// implementation graphs where physical channels are bidirectional.
func BidirectionalRing(name string, ids []NodeID, volume, bandwidth float64) *Graph {
	g := New(name)
	n := len(ids)
	for i := 0; i < n; i++ {
		a, b := ids[i], ids[(i+1)%n]
		g.SetEdge(Edge{From: a, To: b, Volume: volume, Bandwidth: bandwidth})
		g.SetEdge(Edge{From: b, To: a, Volume: volume, Bandwidth: bandwidth})
	}
	return g
}

// Range returns the node ids first..last inclusive.
func Range(first, last NodeID) []NodeID {
	if last < first {
		panic(fmt.Sprintf("graph.Range: last %d < first %d", last, first))
	}
	ids := make([]NodeID, 0, last-first+1)
	for id := first; id <= last; id++ {
		ids = append(ids, id)
	}
	return ids
}
