// Package routing builds deterministic routing tables for synthesized and
// mesh architectures, implementing Section 4.5 of the paper: the optimal
// gossip/broadcast schedules of the matched primitives induce routes
// ("each vertex knows precisely how to send a message to the vertices it
// is not directly connected to"), remaining pairs are completed with
// shortest paths, deadlock cycles are detected on the channel dependency
// graph, and virtual channels are assigned to eliminate them.
package routing

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/topology"
)

// ErrNoRoute is the sentinel every unroutable-pair error matches via
// errors.Is: a disconnected architecture, a table with no entry for a
// pair, or a compile over a fault-masked topology with unreachable
// (src, dst) pairs. Callers working over degraded topologies (the fault
// injection layer) branch on this instead of string-matching.
var ErrNoRoute = errors.New("routing: no route")

// UnreachableError is the typed form of ErrNoRoute carrying the pair the
// routing layer could not connect. It matches ErrNoRoute via errors.Is.
type UnreachableError struct {
	Src, Dst graph.NodeID
}

func (e *UnreachableError) Error() string {
	return fmt.Sprintf("routing: no route from %d to %d", e.Src, e.Dst)
}

// Is makes errors.Is(err, ErrNoRoute) succeed for UnreachableError.
func (e *UnreachableError) Is(target error) bool { return target == ErrNoRoute }

// Router is any deterministic route source: given an ordered node pair
// it yields the full vertex path. Table satisfies it, as do the
// demand-driven sources (SparseRouter, RouteSet) that never materialize
// an O(n²) table. Implementations must be safe for concurrent Route
// calls and must return the same path for the same pair every time —
// compilation, VC assignment and the lazy plan cache all assume route
// determinism.
type Router interface {
	Route(src, dst graph.NodeID) ([]graph.NodeID, error)
}

// Table is a deterministic distributed routing table: for every node, the
// next hop toward every destination. It is a value over two parts: the
// ascending list of the node ids it spans, and a dense n×n matrix of
// next-hop indices into that list (−1 = no entry). The matrix is stored
// one destination at a time — next[d*n+u] is u's next hop toward d — so
// a destination's whole in-tree is one contiguous column and following a
// route never leaves it. The zero Table has no entries. The entry for
// n == dst is never consulted by Route.
type Table struct {
	ids  []graph.NodeID
	next []int32
}

// newTable returns a table over the given ascending, distinct node ids
// with no entries. It keeps ids; callers must not modify them afterwards.
func newTable(ids []graph.NodeID) Table {
	next := make([]int32, len(ids)*len(ids))
	for i := range next {
		next[i] = -1
	}
	return Table{ids: ids, next: next}
}

// index returns the position of id in the table's node list.
func (t Table) index(id graph.NodeID) (int, bool) {
	i, ok := slices.BinarySearch(t.ids, id)
	return i, ok
}

// NextHop returns the next hop from n toward dst.
func (t Table) NextHop(n, dst graph.NodeID) (graph.NodeID, bool) {
	u, uok := t.index(n)
	d, dok := t.index(dst)
	if !uok || !dok {
		return 0, false
	}
	v := t.next[d*len(t.ids)+u]
	if v < 0 {
		return 0, false
	}
	return t.ids[v], true
}

// Route follows the table from src to dst, returning the vertex path. It
// fails if the table is incomplete or loops (a hop count above the node
// count is treated as a loop).
func (t Table) Route(src, dst graph.NodeID) ([]graph.NodeID, error) {
	if src == dst {
		return []graph.NodeID{src}, nil
	}
	noEntry := func(at graph.NodeID) error {
		return fmt.Errorf("routing: no entry at node %d for destination %d: %w",
			at, dst, &UnreachableError{Src: src, Dst: dst})
	}
	n := len(t.ids)
	u, uok := t.index(src)
	d, dok := t.index(dst)
	if !uok || !dok {
		return nil, noEntry(src)
	}
	col := t.next[d*n : (d+1)*n]
	path := []graph.NodeID{src}
	for u != d {
		v := col[u]
		if v < 0 {
			return nil, noEntry(t.ids[u])
		}
		path = append(path, t.ids[v])
		u = int(v)
		if len(path) > n+1 {
			return nil, fmt.Errorf("routing: loop detected from %d to %d: %v", src, dst, path)
		}
	}
	return path, nil
}

// set installs one hop, detecting conflicting previous entries.
func (t Table) set(n, dst, next graph.NodeID) error {
	u, uok := t.index(n)
	d, dok := t.index(dst)
	v, vok := t.index(next)
	if !uok || !dok || !vok {
		return fmt.Errorf("routing: hop %d->%d toward %d names a node outside the table", n, next, dst)
	}
	cell := &t.next[d*len(t.ids)+u]
	if *cell >= 0 && int(*cell) != v {
		return fmt.Errorf("routing: conflicting next hop at node %d for %d: %d vs %d", n, dst, t.ids[*cell], next)
	}
	*cell = int32(v)
	return nil
}

// installPath writes all suffix hops of a path into the table: every
// intermediate node learns its next hop toward the final destination.
// Hops are written front to back and the first conflict stops the
// install, so the hops before it stay in the table.
func (t Table) installPath(path []graph.NodeID) error {
	dst := path[len(path)-1]
	for i := 0; i+1 < len(path); i++ {
		if err := t.set(path[i], dst, path[i+1]); err != nil {
			return err
		}
	}
	return nil
}

// lengthWeights returns the per-edge-id Dijkstra costs of a frozen
// architecture graph: the physical link length, or 1 where the floorplan
// offers none.
func lengthWeights(arch *topology.Architecture, f *graph.Frozen) []float64 {
	w := make([]float64, f.EdgeCount())
	ids := f.IDs()
	for e := range w {
		from, to := f.EdgeEndpoints(e)
		w[e] = 1
		if l, ok := arch.LinkBetween(ids[from], ids[to]); ok {
			w[e] = l.LengthMM
		}
	}
	return w
}

// Build constructs the routing table for an architecture. Preferred routes
// (the primitive-schedule routes recorded during synthesis) are installed
// first; all remaining node pairs are completed with shortest paths over
// the architecture links, weighted by physical length, with deterministic
// tie-breaks.
//
// Preferred routes are installed in listing order, hop by hop from the
// source. When a hop conflicts with an already-installed entry (the
// table must stay destination-deterministic: one next hop per (node,
// destination)), the install of that route stops there: the hops it
// wrote before the conflict stay in the table, and the pairs its
// remainder would have covered are completed by shortest path like any
// other uncovered pair.
//
// Shortest-path completion freezes the architecture graph once and runs
// a single Dijkstra per source vertex over the CSR, installing only each
// uncovered pair's first hop (suffix hops may conflict with preferred
// routes of other pairs).
func Build(arch *topology.Architecture) (Table, error) {
	return build(arch, true)
}

// BuildShortestPath constructs a routing table ignoring the architecture's
// preferred (schedule-derived) routes, using pure length-weighted shortest
// paths — the routing ablation of the Section 4.5 design choice. Like
// Build, it runs one CSR Dijkstra per source vertex.
func BuildShortestPath(arch *topology.Architecture) (Table, error) {
	return build(arch, false)
}

func build(arch *topology.Architecture, preferred bool) (Table, error) {
	if arch == nil {
		return Table{}, fmt.Errorf("routing: nil architecture")
	}
	if !arch.Connected() {
		return Table{}, fmt.Errorf("routing: architecture %q is disconnected: %w", arch.Name, ErrNoRoute)
	}
	f := arch.Graph().Freeze()
	ids := f.IDs()
	t := newTable(ids)
	if preferred {
		for _, pair := range arch.PreferredPairs() {
			route, _ := arch.PreferredRoute(pair[0], pair[1])
			// A conflict keeps the hops installed before it; see Build.
			_ = t.installPath(route)
		}
	}
	w := lengthWeights(arch, f)
	n := len(ids)
	var scratch graph.TreeScratch
	for si, src := range ids {
		// The shortest-path tree from src is computed at most once, and
		// only if some destination was not covered by a preferred route.
		var prev []int32
		for di, dst := range ids {
			cell := &t.next[di*n+si]
			if si == di || *cell >= 0 {
				continue
			}
			if prev == nil {
				_, prev = f.ShortestPathTreeInto(si, w, &scratch)
			}
			hop, ok := firstHop(prev, si, di)
			if !ok {
				return Table{}, &UnreachableError{Src: src, Dst: dst}
			}
			*cell = hop
		}
	}
	if err := Validate(t, arch); err != nil {
		return Table{}, err
	}
	return t, nil
}

// firstHop returns the vertex following src on the tree path to dst of a
// ShortestPathTree prev array.
func firstHop(prev []int32, src, dst int) (int32, bool) {
	v := int32(dst)
	for steps := 0; steps < len(prev); steps++ {
		p := prev[v]
		if p < 0 {
			return 0, false
		}
		if int(p) == src {
			return v, true
		}
		v = p
	}
	return 0, false
}

// XY builds dimension-ordered XY routing for a rows x cols mesh with
// row-major 1-based node ids: packets first correct the column (X), then
// the row (Y). XY routing on a mesh is deadlock-free.
func XY(rows, cols int) (Table, error) {
	return dimensionOrdered(rows, cols, false)
}

// dimensionOrdered builds XY (rowsFirst false) or YX routing for a
// rows x cols mesh with row-major 1-based node ids.
func dimensionOrdered(rows, cols int, rowsFirst bool) (Table, error) {
	if rows < 1 || cols < 1 {
		return Table{}, fmt.Errorf("routing: bad mesh %dx%d", rows, cols)
	}
	n := rows * cols
	t := newTable(graph.Range(1, graph.NodeID(n)))
	// Dense index i is node id i+1, at row i/cols, column i%cols.
	for u := 0; u < n; u++ {
		r, c := u/cols, u%cols
		for d := 0; d < n; d++ {
			if d == u {
				continue
			}
			dr, dc := d/cols, d%cols
			next := u
			switch {
			case rowsFirst && dr != r, !rowsFirst && dc == c:
				next += cols * sign(dr-r)
			default:
				next += sign(dc - c)
			}
			t.next[d*n+u] = int32(next)
		}
	}
	return t, nil
}

func sign(x int) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// Validate checks that the table is complete (every ordered pair has a
// route), loop-free, and uses only architecture links. A hop over a
// missing link is reported with ErrNoRoute.
func Validate(t Table, arch *topology.Architecture) error {
	return newEdgeWalker(t, arch.Graph().Freeze(), true).walkAll(func([]int32) {})
}

// AverageHops returns the mean route length in hops over all ordered node
// pairs.
func AverageHops(t Table, arch *topology.Architecture) (float64, error) {
	nodes := arch.Nodes()
	total, count := 0, 0
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			path, err := t.Route(src, dst)
			if err != nil {
				return 0, err
			}
			total += len(path) - 1
			count++
		}
	}
	if count == 0 {
		return 0, nil
	}
	return float64(total) / float64(count), nil
}

// Channel is a directed use of a physical link.
type Channel struct {
	From, To graph.NodeID
}

// ChannelDependencyGraph builds the channel dependency graph of the routes
// in the table over the given traffic pairs (nil means all ordered pairs):
// vertices are directed channels, and an edge c1 -> c2 means some route
// holds c1 while requesting c2. Deadlock is possible iff this graph has a
// directed cycle (Dally & Seitz).
//
// Channels are encoded as graph vertices via a dense index; the returned
// index maps channel -> vertex id.
func ChannelDependencyGraph(t Router, arch *topology.Architecture, pairs [][2]graph.NodeID) (*graph.Graph, map[Channel]graph.NodeID, error) {
	if pairs == nil {
		nodes := arch.Nodes()
		for _, s := range nodes {
			for _, d := range nodes {
				if s != d {
					pairs = append(pairs, [2]graph.NodeID{s, d})
				}
			}
		}
	}
	idx := make(map[Channel]graph.NodeID)
	cdg := graph.New("cdg")
	chanID := func(c Channel) graph.NodeID {
		if id, ok := idx[c]; ok {
			return id
		}
		id := graph.NodeID(len(idx) + 1)
		idx[c] = id
		cdg.AddNode(id)
		return id
	}
	for _, pr := range pairs {
		path, err := t.Route(pr[0], pr[1])
		if err != nil {
			return nil, nil, err
		}
		for i := 0; i+2 < len(path); i++ {
			c1 := Channel{From: path[i], To: path[i+1]}
			c2 := Channel{From: path[i+1], To: path[i+2]}
			cdg.SetEdge(graph.Edge{From: chanID(c1), To: chanID(c2)})
		}
		if len(path) == 2 {
			chanID(Channel{From: path[0], To: path[1]})
		}
	}
	return cdg, idx, nil
}

// DeadlockFree reports whether the routes over the given traffic pairs
// (nil = all pairs) are deadlock-free on a single virtual channel: their
// channel dependency graph (see ChannelDependencyGraph) is acyclic. A
// route hop over a missing link is an ErrNoRoute error.
func DeadlockFree(t Router, arch *topology.Architecture, pairs [][2]graph.NodeID) (bool, error) {
	scan, err := scanRoutes(t, arch, pairs)
	if err != nil {
		return false, err
	}
	return !scan.cyclic, nil
}

// VCAssignment maps each (route position) to a virtual channel, via the
// dateline scheme of AssignVirtualChannels — or via a custom scheme when
// the route source carries its own deadlock-freedom proof (the landmark
// router's tree-index VCs).
type VCAssignment struct {
	// NumVCs is the number of virtual channels required.
	NumVCs int
	// singleVC short-circuits escalation when the channel dependency
	// graph is acyclic and a single channel is provably sufficient.
	singleVC bool
	// labels orders the directed channels, sorted by (From, To); packets
	// ascend labels within a VC and bump the VC on every descent. A
	// channel without a label has label 0.
	labels []channelLabel
	// fn, when set, replaces the dateline scheme entirely: the route
	// source supplies the per-hop VC (and owns the deadlock-freedom
	// argument for it). It must be deterministic and safe for concurrent
	// calls, and must return values in [0, NumVCs).
	fn func(route []graph.NodeID, hop int) int
}

// channelLabel is one directed channel's dateline label.
type channelLabel struct {
	Channel
	label int
}

func channelLess(a, b Channel) bool {
	return a.From < b.From || (a.From == b.From && a.To < b.To)
}

// label returns the dateline label of channel c (0 when unlabeled).
func (a VCAssignment) label(c Channel) int {
	i := sort.Search(len(a.labels), func(i int) bool { return !channelLess(a.labels[i].Channel, c) })
	if i < len(a.labels) && a.labels[i].Channel == c {
		return a.labels[i].label
	}
	return 0
}

// edgeLabels returns the dateline label of every edge id of a frozen
// graph. Edge ids ascend in (From, To) order, as the labels do, so one
// merge pass resolves them all.
func (a VCAssignment) edgeLabels(frz *graph.Frozen) []int {
	out := make([]int, frz.EdgeCount())
	ids := frz.IDs()
	j := 0
	for e := range out {
		from, to := frz.EdgeEndpoints(e)
		c := Channel{From: ids[from], To: ids[to]}
		for j < len(a.labels) && channelLess(a.labels[j].Channel, c) {
			j++
		}
		if j < len(a.labels) && a.labels[j].Channel == c {
			out[e] = a.labels[j].label
		}
	}
	return out
}

// VCForHop returns the virtual channel a packet occupies on the i-th hop
// (0-based) of the given route.
func (a VCAssignment) VCForHop(route []graph.NodeID, hop int) int {
	if a.fn != nil {
		return a.fn(route, hop)
	}
	if a.singleVC {
		return 0
	}
	vc := 0
	for i := 1; i <= hop; i++ {
		prev := Channel{From: route[i-1], To: route[i]}
		cur := Channel{From: route[i], To: route[i+1]}
		if a.label(cur) <= a.label(prev) {
			vc++
		}
	}
	return vc
}

// AssignVirtualChannels produces a provably deadlock-free virtual channel
// assignment for the table's routes over the given pairs (nil = all): all
// directed channels are totally ordered (the dateline order), a packet
// starts on VC 0 and moves to the next VC whenever its next channel does
// not increase in the order. Within one VC, every dependency goes up the
// order, so each VC's dependency graph is acyclic and the whole network is
// deadlock-free (Dally & Seitz dateline argument). NumVCs is 1 + the
// maximum number of descents on any route. If the channel dependency
// graph is already acyclic (as for XY on a mesh), a single channel is
// provably deadlock-free and no dateline escalation is needed.
//
// The dateline order is the lexicographic (From, To) order of every
// directed channel of the architecture — exactly the edge-id order of
// its frozen graph, so each channel's label is its frozen edge id. It
// spans every channel, not only the channels the given pairs traverse:
// restricting the pairs never changes the assignment of the routes they
// cover, and routes compiled lazily later (pairs outside a sparse demand
// set) still receive meaningful labels. A route hop over a missing link
// is an ErrNoRoute error.
func AssignVirtualChannels(t Router, arch *topology.Architecture, pairs [][2]graph.NodeID) (VCAssignment, error) {
	scan, err := scanRoutes(t, arch, pairs)
	if err != nil {
		return VCAssignment{}, err
	}
	ids := scan.frz.IDs()
	labels := make([]channelLabel, scan.frz.EdgeCount())
	for e := range labels {
		from, to := scan.frz.EdgeEndpoints(e)
		labels[e] = channelLabel{Channel: Channel{From: ids[from], To: ids[to]}, label: e}
	}
	a := VCAssignment{NumVCs: 1, labels: labels}
	if !scan.cyclic {
		a.singleVC = true
		return a, nil
	}
	a.NumVCs = scan.maxDescents + 1
	return a, nil
}
