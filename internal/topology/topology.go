// Package topology materializes network architectures: it glues the
// implementation graphs of a decomposition's matched primitives into the
// customized architecture of Section 3 ("the customized topology is
// obtained by gluing the optimal implementations together"), and builds the
// standard mesh baseline the paper compares against in Section 5.2.
//
// An Architecture is a set of bidirectional physical links between cores,
// each with a length from the floorplan and an aggregated bandwidth demand.
// Preferred routes — the optimal-schedule routes of the matched primitives
// (Section 4.5) — are carried alongside so the routing layer can honor
// them.
package topology

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/graph"
)

// Link is one bidirectional physical channel pair between two cores.
type Link struct {
	// A, B are the endpoints with A < B.
	A, B graph.NodeID
	// LengthMM is the physical link length from the floorplan (Manhattan
	// between core centers), or 1 without a placement.
	LengthMM float64
	// DemandMbps is the aggregated bandwidth demand of all flows mapped
	// onto this link, both directions.
	DemandMbps float64
}

// Key returns the canonical (min,max) endpoint pair.
func (l Link) Key() [2]graph.NodeID { return [2]graph.NodeID{l.A, l.B} }

// Architecture is a physical network topology over the application cores.
type Architecture struct {
	// Name identifies the architecture in reports.
	Name string

	nodes []graph.NodeID
	links map[[2]graph.NodeID]*Link

	// preferred maps ACG traffic pairs to the route the synthesis chose
	// (primitive schedule routes, or the direct link for remainder edges).
	preferred map[[2]graph.NodeID][]graph.NodeID

	placement *floorplan.Placement
}

// New returns an empty architecture over the given nodes.
func New(name string, nodes []graph.NodeID, placement *floorplan.Placement) *Architecture {
	sorted := append([]graph.NodeID(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return &Architecture{
		Name:      name,
		nodes:     sorted,
		links:     make(map[[2]graph.NodeID]*Link),
		preferred: make(map[[2]graph.NodeID][]graph.NodeID),
		placement: placement,
	}
}

// Nodes returns the cores in ascending order.
func (a *Architecture) Nodes() []graph.NodeID {
	return append([]graph.NodeID(nil), a.nodes...)
}

// AddLink inserts (or augments) the bidirectional link between u and v,
// adding the demand. Self-links are rejected.
func (a *Architecture) AddLink(u, v graph.NodeID, demandMbps float64) error {
	if u == v {
		return fmt.Errorf("topology: self-link on node %d", u)
	}
	if u > v {
		u, v = v, u
	}
	key := [2]graph.NodeID{u, v}
	if l, ok := a.links[key]; ok {
		l.DemandMbps += demandMbps
		return nil
	}
	length := 1.0
	if a.placement != nil && a.placement.Has(u) && a.placement.Has(v) {
		length = a.placement.ManhattanDistance(u, v)
	}
	a.links[key] = &Link{A: u, B: v, LengthMM: length, DemandMbps: demandMbps}
	return nil
}

// HasLink reports whether u and v are directly connected.
func (a *Architecture) HasLink(u, v graph.NodeID) bool {
	if u > v {
		u, v = v, u
	}
	_, ok := a.links[[2]graph.NodeID{u, v}]
	return ok
}

// LinkBetween returns the link between u and v.
func (a *Architecture) LinkBetween(u, v graph.NodeID) (Link, bool) {
	if u > v {
		u, v = v, u
	}
	l, ok := a.links[[2]graph.NodeID{u, v}]
	if !ok {
		return Link{}, false
	}
	return *l, true
}

// Links returns all links sorted by endpoints.
func (a *Architecture) Links() []Link {
	out := make([]Link, 0, len(a.links))
	for _, l := range a.links {
		out = append(out, *l)
	}
	slices.SortFunc(out, func(x, y Link) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})
	return out
}

// LinkCount returns the number of bidirectional links.
func (a *Architecture) LinkCount() int { return len(a.links) }

// Degree returns the number of links incident to the node.
func (a *Architecture) Degree(n graph.NodeID) int {
	d := 0
	for key := range a.links {
		if key[0] == n || key[1] == n {
			d++
		}
	}
	return d
}

// TotalWireLengthMM returns the summed link lengths.
func (a *Architecture) TotalWireLengthMM() float64 {
	var sum float64
	for _, l := range a.links {
		sum += l.LengthMM
	}
	return sum
}

// Graph returns the directed view of the architecture: each physical link
// contributes edges in both directions, each carrying half the aggregated
// demand as bandwidth (so graph cuts sum to the demand crossing them).
func (a *Architecture) Graph() *graph.Graph {
	g := graph.New(a.Name)
	for _, n := range a.nodes {
		g.AddNode(n)
	}
	for _, l := range a.Links() {
		g.SetEdge(graph.Edge{From: l.A, To: l.B, Bandwidth: l.DemandMbps / 2})
		g.SetEdge(graph.Edge{From: l.B, To: l.A, Bandwidth: l.DemandMbps / 2})
	}
	return g
}

// SetPreferredRoute records the synthesis-chosen route for the traffic
// pair (src, dst). The route must start at src, end at dst and follow
// architecture links.
func (a *Architecture) SetPreferredRoute(route []graph.NodeID) error {
	if len(route) < 2 {
		return fmt.Errorf("topology: route too short: %v", route)
	}
	for i := 0; i+1 < len(route); i++ {
		if !a.HasLink(route[i], route[i+1]) {
			return fmt.Errorf("topology: route %v uses missing link %d-%d", route, route[i], route[i+1])
		}
	}
	a.preferred[[2]graph.NodeID{route[0], route[len(route)-1]}] = append([]graph.NodeID(nil), route...)
	return nil
}

// PreferredRoute returns the synthesis-chosen route for (src, dst).
func (a *Architecture) PreferredRoute(src, dst graph.NodeID) ([]graph.NodeID, bool) {
	r, ok := a.preferred[[2]graph.NodeID{src, dst}]
	if !ok {
		return nil, false
	}
	return append([]graph.NodeID(nil), r...), true
}

// PreferredPairs returns the traffic pairs with recorded routes, sorted.
func (a *Architecture) PreferredPairs() [][2]graph.NodeID {
	keys := make([][2]graph.NodeID, 0, len(a.preferred))
	for k := range a.preferred {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(x, y [2]graph.NodeID) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
	return keys
}

// Placement returns the floorplan placement, which may be nil.
func (a *Architecture) Placement() *floorplan.Placement { return a.placement }

// Connected reports whether every node can reach every other over links.
func (a *Architecture) Connected() bool {
	return a.Graph().WeaklyConnected()
}

// Describe renders a deterministic multi-line summary.
func (a *Architecture) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d nodes, %d links, %.2f mm wire\n",
		a.Name, len(a.nodes), len(a.links), a.TotalWireLengthMM())
	for _, l := range a.Links() {
		fmt.Fprintf(&b, "  %d -- %d  len %.2f mm  demand %.1f Mbps\n", l.A, l.B, l.LengthMM, l.DemandMbps)
	}
	return b.String()
}

// DOT renders the architecture as an undirected Graphviz graph (Figure 6b
// style).
func (a *Architecture) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q {\n  node [shape=box];\n", a.Name)
	for _, n := range a.nodes {
		fmt.Fprintf(&b, "  n%d [label=\"%d\"];\n", n, n)
	}
	for _, l := range a.Links() {
		fmt.Fprintf(&b, "  n%d -- n%d [label=\"%.1f\"];\n", l.A, l.B, l.LengthMM)
	}
	b.WriteString("}\n")
	return b.String()
}

// FromDecomposition glues the matched primitives' implementation graphs
// (translated through their mappings) and the remainder's direct links
// into the customized architecture, aggregating per-link bandwidth demand
// and recording the schedule-derived routes.
func FromDecomposition(name string, acg *graph.Graph, d *core.Decomposition, placement *floorplan.Placement) (*Architecture, error) {
	if acg == nil || d == nil {
		return nil, fmt.Errorf("topology: nil ACG or decomposition")
	}
	a := New(name, acg.Nodes(), placement)

	// Implementation links of every match.
	for _, m := range d.Matches {
		for _, e := range m.Primitive.Impl.Edges() {
			u, v := m.Mapping[e.From], m.Mapping[e.To]
			if u < v { // each undirected link once
				if err := a.AddLink(u, v, 0); err != nil {
					return nil, err
				}
			}
		}
	}
	// Remainder edges become dedicated point-to-point links.
	if d.Remainder != nil {
		for _, e := range d.Remainder.Edges() {
			if err := a.AddLink(e.From, e.To, 0); err != nil {
				return nil, err
			}
		}
	}

	// Demand aggregation and preferred routes.
	for _, m := range d.Matches {
		for _, key := range m.CoveredEdges() {
			acgEdge, ok := acg.EdgeBetween(key[0], key[1])
			if !ok {
				return nil, fmt.Errorf("topology: match covers missing ACG edge %d->%d", key[0], key[1])
			}
			route, ok := m.MappedRoute(key[0], key[1])
			if !ok {
				return nil, fmt.Errorf("topology: no route for covered edge %d->%d", key[0], key[1])
			}
			for i := 0; i+1 < len(route); i++ {
				if err := a.AddLink(route[i], route[i+1], acgEdge.Bandwidth); err != nil {
					return nil, err
				}
			}
			if err := a.SetPreferredRoute(route); err != nil {
				return nil, err
			}
		}
	}
	if d.Remainder != nil {
		for _, e := range d.Remainder.Edges() {
			if err := a.AddLink(e.From, e.To, e.Bandwidth); err != nil {
				return nil, err
			}
			if err := a.SetPreferredRoute([]graph.NodeID{e.From, e.To}); err != nil {
				return nil, err
			}
		}
	}
	return a, nil
}

// Masked returns a copy of the architecture with the given links removed
// and every link incident to a down router removed — the degraded
// topology a fault map leaves behind. The node set is unchanged (a dead
// router keeps its floorplan slot; it simply has no live links), so
// frozen views of the masked architecture stay index-compatible with the
// pristine one. Preferred routes that cross a removed link or a down
// router are dropped; surviving links keep their length and demand.
// Unknown link keys and routers are ignored — validation belongs to the
// fault layer, which knows the fault map's provenance.
func (a *Architecture) Masked(downLinks [][2]graph.NodeID, downRouters []graph.NodeID) *Architecture {
	deadNode := make(map[graph.NodeID]bool, len(downRouters))
	for _, r := range downRouters {
		deadNode[r] = true
	}
	deadLink := make(map[[2]graph.NodeID]bool, len(downLinks))
	for _, k := range downLinks {
		if k[0] > k[1] {
			k[0], k[1] = k[1], k[0]
		}
		deadLink[k] = true
	}
	m := New(a.Name, a.nodes, a.placement)
	for key, l := range a.links {
		if deadLink[key] || deadNode[key[0]] || deadNode[key[1]] {
			continue
		}
		cp := *l
		m.links[key] = &cp
	}
	for pair, route := range a.preferred {
		alive := true
		for i, n := range route {
			if deadNode[n] {
				alive = false
				break
			}
			if i+1 < len(route) && !m.HasLink(n, route[i+1]) {
				alive = false
				break
			}
		}
		if alive {
			m.preferred[pair] = append([]graph.NodeID(nil), route...)
		}
	}
	return m
}

// Mesh builds the rows x cols standard mesh baseline over node ids
// 1..rows*cols in row-major order, with uniform link demand left at zero
// (the simulator accounts demand dynamically).
func Mesh(rows, cols int, placement *floorplan.Placement) (*Architecture, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("topology: bad mesh %dx%d", rows, cols)
	}
	n := rows * cols
	a := New(fmt.Sprintf("mesh%dx%d", rows, cols), graph.Range(1, graph.NodeID(n)), placement)
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c + 1) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				if err := a.AddLink(id(r, c), id(r, c+1), 0); err != nil {
					return nil, err
				}
			}
			if r+1 < rows {
				if err := a.AddLink(id(r, c), id(r+1, c), 0); err != nil {
					return nil, err
				}
			}
		}
	}
	return a, nil
}
