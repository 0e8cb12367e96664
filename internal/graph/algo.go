package graph

import (
	"container/heap"
	"math"
)

// WeaklyConnected reports whether the graph is connected when edge
// directions are ignored. The empty graph is considered connected.
func (g *Graph) WeaklyConnected() bool {
	if g.NodeCount() == 0 {
		return true
	}
	start := g.Nodes()[0]
	seen := map[NodeID]struct{}{start: {}}
	stack := []NodeID{start}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range g.Neighbors(n) {
			if _, ok := seen[m]; !ok {
				seen[m] = struct{}{}
				stack = append(stack, m)
			}
		}
	}
	return len(seen) == g.NodeCount()
}

// FindDirectedCycle returns one directed cycle as a vertex sequence
// (first == last is implied, not repeated), or nil if the graph is acyclic.
// The routing layer uses this on channel-dependency graphs to locate
// deadlock cycles (Section 4.5 of the paper).
func (g *Graph) FindDirectedCycle() []NodeID {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[NodeID]int, g.NodeCount())
	parent := make(map[NodeID]NodeID, g.NodeCount())
	var cycle []NodeID

	var dfs func(n NodeID) bool
	dfs = func(n NodeID) bool {
		color[n] = gray
		for _, m := range g.OutNeighbors(n) {
			switch color[m] {
			case white:
				parent[m] = n
				if dfs(m) {
					return true
				}
			case gray:
				// Found a back edge n->m: reconstruct the cycle m..n.
				cycle = []NodeID{m}
				for v := n; v != m; v = parent[v] {
					cycle = append(cycle, v)
				}
				// Reverse so it reads m -> ... -> n in edge order.
				for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[n] = black
		return false
	}

	for _, n := range g.Nodes() {
		if color[n] == white && dfs(n) {
			return cycle
		}
	}
	return nil
}

// undirectedHopDistances returns BFS hop distances ignoring edge direction.
// This is the metric for the diameter bound of Section 4.3: physical links
// are bidirectional channels even when the ACG edge was one-way.
func (g *Graph) undirectedHopDistances(src NodeID) map[NodeID]int {
	dist := map[NodeID]int{src: 0}
	queue := []NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range g.Neighbors(n) {
			if _, ok := dist[m]; !ok {
				dist[m] = dist[n] + 1
				queue = append(queue, m)
			}
		}
	}
	return dist
}

// Diameter returns the largest undirected hop distance between any two
// vertices, or -1 if the graph is disconnected or empty.
func (g *Graph) Diameter() int {
	if g.NodeCount() == 0 {
		return -1
	}
	d := 0
	for _, src := range g.Nodes() {
		dist := g.undirectedHopDistances(src)
		if len(dist) != g.NodeCount() {
			return -1
		}
		for _, v := range dist {
			if v > d {
				d = v
			}
		}
	}
	return d
}

// WeightFunc assigns a traversal cost to an edge. Costs must be
// non-negative.
type WeightFunc func(Edge) float64

// ShortestPath runs Dijkstra from src to dst over directed edges using w as
// the edge cost, returning the vertex sequence (src first, dst last) and the
// total cost. ok is false if dst is unreachable. Ties are broken toward
// lower vertex ids for determinism.
func (g *Graph) ShortestPath(src, dst NodeID, w WeightFunc) (path []NodeID, cost float64, ok bool) {
	if !g.HasNode(src) || !g.HasNode(dst) {
		return nil, 0, false
	}
	dist := map[NodeID]float64{src: 0}
	prev := map[NodeID]NodeID{}
	pq := &nodePQ{{id: src, cost: 0}}
	done := map[NodeID]struct{}{}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(nodeItem)
		if _, ok := done[item.id]; ok {
			continue
		}
		done[item.id] = struct{}{}
		if item.id == dst {
			break
		}
		for _, m := range g.OutNeighbors(item.id) {
			e, _ := g.EdgeBetween(item.id, m)
			nd := dist[item.id] + w(e)
			old, seen := dist[m]
			if !seen || nd < old || (nd == old && item.id < prev[m]) {
				dist[m] = nd
				prev[m] = item.id
				heap.Push(pq, nodeItem{id: m, cost: nd})
			}
		}
	}
	total, reached := dist[dst]
	if !reached {
		return nil, 0, false
	}
	if _, fin := done[dst]; !fin {
		return nil, 0, false
	}
	for v := dst; v != src; v = prev[v] {
		path = append(path, v)
	}
	path = append(path, src)
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, total, true
}

// UnitWeight is a WeightFunc that charges 1 per edge (hop count).
func UnitWeight(Edge) float64 { return 1 }

// BisectionBandwidth computes the minimum, over balanced vertex
// bipartitions, of the total bandwidth crossing the cut (both directions).
// For graphs of up to exactBisectionLimit vertices the search is exhaustive;
// beyond that a Kernighan-Lin style local refinement from a sorted seed is
// used. The paper uses bisection bandwidth to check the wiring-resource
// constraint of Section 4.2.
func (g *Graph) BisectionBandwidth() float64 {
	n := g.NodeCount()
	if n < 2 {
		return 0
	}
	nodes := g.Nodes()
	half := n / 2
	if n <= exactBisectionLimit {
		return g.exactBisection(nodes, half)
	}
	return g.klBisection(nodes, half)
}

const exactBisectionLimit = 20

func (g *Graph) cutBandwidth(inA map[NodeID]bool) float64 {
	var cut float64
	for _, e := range g.Edges() {
		if inA[e.From] != inA[e.To] {
			cut += e.Bandwidth
		}
	}
	return cut
}

func (g *Graph) exactBisection(nodes []NodeID, half int) float64 {
	n := len(nodes)
	best := math.Inf(1)
	// Fix nodes[0] in side A to halve the search space.
	var rec func(idx, inA int, member map[NodeID]bool)
	rec = func(idx, inA int, member map[NodeID]bool) {
		if inA > half || (idx-inA) > n-half {
			return
		}
		if idx == n {
			if cut := g.cutBandwidth(member); cut < best {
				best = cut
			}
			return
		}
		member[nodes[idx]] = true
		rec(idx+1, inA+1, member)
		member[nodes[idx]] = false
		rec(idx+1, inA, member)
	}
	member := map[NodeID]bool{nodes[0]: true}
	rec(1, 1, member)
	return best
}

func (g *Graph) klBisection(nodes []NodeID, half int) float64 {
	member := make(map[NodeID]bool, len(nodes))
	for i, n := range nodes {
		member[n] = i < half
	}
	best := g.cutBandwidth(member)
	// Greedy pairwise swap refinement until no improving swap exists.
	improved := true
	for improved {
		improved = false
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				a, b := nodes[i], nodes[j]
				if member[a] == member[b] {
					continue
				}
				member[a], member[b] = member[b], member[a]
				if cut := g.cutBandwidth(member); cut < best {
					best = cut
					improved = true
				} else {
					member[a], member[b] = member[b], member[a]
				}
			}
		}
	}
	return best
}

type nodeItem struct {
	id   NodeID
	cost float64
}

type nodePQ []nodeItem

func (p nodePQ) Len() int { return len(p) }
func (p nodePQ) Less(i, j int) bool {
	if p[i].cost != p[j].cost {
		return p[i].cost < p[j].cost
	}
	return p[i].id < p[j].id
}
func (p nodePQ) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *nodePQ) Push(x interface{}) { *p = append(*p, x.(nodeItem)) }
func (p *nodePQ) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}
