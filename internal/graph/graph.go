// Package graph provides the directed, edge-weighted graph substrate used
// throughout the NoC synthesis flow.
//
// The central type is Graph, a mutable directed multigraph restricted to at
// most one edge per ordered vertex pair. Edges carry the two annotations the
// paper's Application Characterization Graph (ACG) needs: communication
// volume v(e) in bits and required bandwidth b(e) in Mbps. The package also
// implements the graph algebra of the paper's Definitions 1-2 (sum and
// difference), plus the traversal, connectivity and partitioning helpers the
// rest of the flow relies on.
//
// All iteration orders are deterministic (sorted by vertex id) so that the
// decomposition algorithm, tests and benchmarks are reproducible.
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// NodeID identifies a vertex. IDs are opaque but are conventionally the
// 1-based core indices used in the paper's figures.
type NodeID int

// Edge is a directed edge with the ACG annotations from Section 4 of the
// paper: v(e) is the communication volume in bits and b(e) the required
// bandwidth in Mbps. Either may be zero when the annotation is irrelevant
// (for example in library representation graphs).
type Edge struct {
	From, To  NodeID
	Volume    float64 // v(e): bits communicated over the application run
	Bandwidth float64 // b(e): required sustained bandwidth, Mbps
}

// Key returns the ordered-pair key of the edge.
func (e Edge) Key() [2]NodeID { return [2]NodeID{e.From, e.To} }

func (e Edge) String() string {
	return fmt.Sprintf("%d->%d(v=%g,b=%g)", e.From, e.To, e.Volume, e.Bandwidth)
}

// Graph is a directed graph with at most one edge per ordered vertex pair.
// The zero value is not usable; construct with New.
type Graph struct {
	name  string
	nodes map[NodeID]struct{}
	out   map[NodeID]map[NodeID]*Edge
	in    map[NodeID]map[NodeID]*Edge
	edges int
}

// New returns an empty graph with the given diagnostic name.
func New(name string) *Graph {
	return &Graph{
		name:  name,
		nodes: make(map[NodeID]struct{}),
		out:   make(map[NodeID]map[NodeID]*Edge),
		in:    make(map[NodeID]map[NodeID]*Edge),
	}
}

// Name returns the diagnostic name given at construction.
func (g *Graph) Name() string { return g.name }

// SetName replaces the diagnostic name.
func (g *Graph) SetName(n string) { g.name = n }

// AddNode inserts an isolated vertex; it is a no-op if already present.
func (g *Graph) AddNode(id NodeID) {
	if _, ok := g.nodes[id]; ok {
		return
	}
	g.nodes[id] = struct{}{}
	g.out[id] = make(map[NodeID]*Edge)
	g.in[id] = make(map[NodeID]*Edge)
}

// HasNode reports whether the vertex exists.
func (g *Graph) HasNode(id NodeID) bool {
	_, ok := g.nodes[id]
	return ok
}

// AddEdge inserts the edge, implicitly adding missing endpoints. If an edge
// already exists between the same ordered pair, the volumes and bandwidths
// are accumulated (this is what gluing two matchings over a shared pair
// means physically: the same link carries both flows).
func (g *Graph) AddEdge(e Edge) {
	g.AddNode(e.From)
	g.AddNode(e.To)
	if old, ok := g.out[e.From][e.To]; ok {
		old.Volume += e.Volume
		old.Bandwidth += e.Bandwidth
		return
	}
	cp := e
	g.out[e.From][e.To] = &cp
	g.in[e.To][e.From] = &cp
	g.edges++
}

// SetEdge inserts the edge, replacing any existing annotations rather than
// accumulating them.
func (g *Graph) SetEdge(e Edge) {
	g.AddNode(e.From)
	g.AddNode(e.To)
	if old, ok := g.out[e.From][e.To]; ok {
		old.Volume = e.Volume
		old.Bandwidth = e.Bandwidth
		return
	}
	cp := e
	g.out[e.From][e.To] = &cp
	g.in[e.To][e.From] = &cp
	g.edges++
}

// HasEdge reports whether the directed edge from->to exists.
func (g *Graph) HasEdge(from, to NodeID) bool {
	m, ok := g.out[from]
	if !ok {
		return false
	}
	_, ok = m[to]
	return ok
}

// EdgeBetween returns the edge from->to and whether it exists.
func (g *Graph) EdgeBetween(from, to NodeID) (Edge, bool) {
	if m, ok := g.out[from]; ok {
		if e, ok := m[to]; ok {
			return *e, true
		}
	}
	return Edge{}, false
}

// RemoveEdge deletes the directed edge from->to if present.
func (g *Graph) RemoveEdge(from, to NodeID) {
	if m, ok := g.out[from]; ok {
		if _, ok := m[to]; ok {
			delete(m, to)
			delete(g.in[to], from)
			g.edges--
		}
	}
}

// NodeCount returns the number of vertices.
func (g *Graph) NodeCount() int { return len(g.nodes) }

// EdgeCount returns the number of directed edges.
func (g *Graph) EdgeCount() int { return g.edges }

// Nodes returns all vertex ids in ascending order.
func (g *Graph) Nodes() []NodeID {
	ids := make([]NodeID, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Edges returns all edges sorted by (From, To).
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.edges)
	for _, out := range g.out {
		for _, e := range out {
			es = append(es, *e)
		}
	}
	slices.SortFunc(es, func(x, y Edge) int {
		return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.To, y.To))
	})
	return es
}

// OutNeighbors returns the successors of id in ascending order.
func (g *Graph) OutNeighbors(id NodeID) []NodeID {
	return sortedKeys(g.out[id])
}

// InNeighbors returns the predecessors of id in ascending order.
func (g *Graph) InNeighbors(id NodeID) []NodeID {
	return sortedKeys(g.in[id])
}

// Neighbors returns the union of in- and out-neighbors in ascending order.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	set := make(map[NodeID]struct{}, len(g.out[id])+len(g.in[id]))
	for n := range g.out[id] {
		set[n] = struct{}{}
	}
	for n := range g.in[id] {
		set[n] = struct{}{}
	}
	return sortedSet(set)
}

// OutDegree returns the number of outgoing edges of id.
func (g *Graph) OutDegree(id NodeID) int { return len(g.out[id]) }

// InDegree returns the number of incoming edges of id.
func (g *Graph) InDegree(id NodeID) int { return len(g.in[id]) }

// Degree returns the total degree (in + out) of id.
func (g *Graph) Degree(id NodeID) int { return len(g.out[id]) + len(g.in[id]) }

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.name)
	for id := range g.nodes {
		c.AddNode(id)
	}
	for _, e := range g.Edges() {
		c.SetEdge(e)
	}
	return c
}

// TotalVolume returns the sum of v(e) over all edges.
func (g *Graph) TotalVolume() float64 {
	var sum float64
	for _, e := range g.Edges() {
		sum += e.Volume
	}
	return sum
}

// TotalBandwidth returns the sum of b(e) over all edges.
func (g *Graph) TotalBandwidth() float64 {
	var sum float64
	for _, e := range g.Edges() {
		sum += e.Bandwidth
	}
	return sum
}

// Sum implements Definition 1 of the paper: the union of vertex sets and
// edge sets of g and h. Annotations of edges present in both graphs are
// accumulated, matching the physical interpretation that coincident traffic
// shares the link.
func Sum(g, h *Graph) *Graph {
	s := New(g.name + "+" + h.name)
	for _, id := range g.Nodes() {
		s.AddNode(id)
	}
	for _, id := range h.Nodes() {
		s.AddNode(id)
	}
	for _, e := range g.Edges() {
		s.AddEdge(e)
	}
	for _, e := range h.Edges() {
		s.AddEdge(e)
	}
	return s
}

// Subtract implements Definition 2 of the paper: the remaining graph
// R(V_R, E_R) with V_R = V and E_R = E - E_S. The vertex set is preserved;
// only edges named in sub are removed. Edges of sub absent from g are
// ignored.
func Subtract(g, sub *Graph) *Graph {
	r := g.Clone()
	r.SetName(g.name + "-" + sub.name)
	for _, e := range sub.Edges() {
		r.RemoveEdge(e.From, e.To)
	}
	return r
}

// SubtractEdges removes the listed directed edges from a clone of g and
// returns it. Like Subtract, the vertex set is preserved.
func SubtractEdges(g *Graph, edges [][2]NodeID) *Graph {
	r := g.Clone()
	for _, k := range edges {
		r.RemoveEdge(k[0], k[1])
	}
	return r
}

// Equal reports whether g and h have identical vertex sets, edge sets and
// edge annotations.
func Equal(g, h *Graph) bool {
	if g.NodeCount() != h.NodeCount() || g.EdgeCount() != h.EdgeCount() {
		return false
	}
	for id := range g.nodes {
		if !h.HasNode(id) {
			return false
		}
	}
	for _, e := range g.Edges() {
		o, ok := h.EdgeBetween(e.From, e.To)
		if !ok || o.Volume != e.Volume || o.Bandwidth != e.Bandwidth {
			return false
		}
	}
	return true
}

// String renders a compact single-line description.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s{V=%d,E=%d}", g.name, g.NodeCount(), g.EdgeCount())
	return b.String()
}

func sortedKeys(m map[NodeID]*Edge) []NodeID {
	ids := make([]NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func sortedSet(m map[NodeID]struct{}) []NodeID {
	ids := make([]NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
