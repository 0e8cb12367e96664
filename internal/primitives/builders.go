package primitives

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// NewGossip constructs the gossip primitive on n vertices for n a power of
// two (n >= 2). The implementation graph is the recursive-pairing gossip
// graph: for n = 4 this is the 4-cycle MGG-4 of Figure 1 (pairs (1,3),(2,4)
// exchange in round 1, then (1,2),(3,4) in round 2), and for n = 2^d it is
// the d-dimensional hypercube, which completes gossiping in d = log2(n)
// rounds — the optimal time for even n — using (n/2)·log2(n) links.
func NewGossip(n int) (*Primitive, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("primitives: gossip size %d not a power of two >= 2", n)
	}
	d := 0
	for 1<<uint(d) < n {
		d++
	}
	rep := graph.CompleteDigraph(fmt.Sprintf("MGG%d-rep", n), graph.Range(1, graph.NodeID(n)), 0, 0)
	impl := graph.New(fmt.Sprintf("MGG%d-impl", n))

	// Dimension-ordered exchange schedule. Round r pairs i with i XOR
	// 2^(r-1) over the (i-1) labels. To reproduce the paper's MGG-4
	// drawing, where round 1 exchanges (1,3),(2,4) and round 2 exchanges
	// (1,2),(3,4), the highest dimension is exchanged first.
	var schedule []Round
	for r := d - 1; r >= 0; r-- {
		var round Round
		for i := 0; i < n; i++ {
			j := i ^ (1 << uint(r))
			if i < j {
				a, b := graph.NodeID(i+1), graph.NodeID(j+1)
				round = append(round, Transfer{From: a, To: b, Exchange: true})
				impl.SetEdge(graph.Edge{From: a, To: b})
				impl.SetEdge(graph.Edge{From: b, To: a})
			}
		}
		schedule = append(schedule, round)
	}

	p := &Primitive{
		Name:     fmt.Sprintf("MGG%d", n),
		Kind:     Gossip,
		Size:     n,
		Rep:      rep,
		Impl:     impl,
		Schedule: schedule,
	}
	p.Routes = deriveRoutes(p)
	return p, nil
}

// NewBroadcast constructs the one-to-(n-1) broadcast primitive on n
// vertices (root is vertex 1). The implementation graph is the (possibly
// truncated) binomial tree, which achieves the optimal broadcast time
// ceil(log2 n) with n-1 links — a minimum broadcast tree. Names follow the
// paper's labels: G123 broadcasts from one node to three nodes (n = 4),
// G124 to four nodes (n = 5).
func NewBroadcast(n int) (*Primitive, error) {
	if n < 2 {
		return nil, fmt.Errorf("primitives: broadcast size %d < 2", n)
	}
	leaves := graph.Range(2, graph.NodeID(n))
	rep := graph.Star(fmt.Sprintf("G12%d-rep", n-1), 1, leaves, 0, 0)
	impl := graph.New(fmt.Sprintf("G12%d-impl", n-1))
	impl.AddNode(1)

	// Doubling schedule: each round, every informed vertex calls the next
	// uninformed vertex (lowest-id first, callers in id order).
	informed := []graph.NodeID{1}
	next := graph.NodeID(2)
	var schedule []Round
	for next <= graph.NodeID(n) {
		var round Round
		for _, caller := range informed {
			if next > graph.NodeID(n) {
				break
			}
			round = append(round, Transfer{From: caller, To: next})
			impl.SetEdge(graph.Edge{From: caller, To: next})
			impl.SetEdge(graph.Edge{From: next, To: caller})
			next++
		}
		for _, tr := range round {
			informed = append(informed, tr.To)
		}
		sort.Slice(informed, func(i, j int) bool { return informed[i] < informed[j] })
		schedule = append(schedule, round)
	}

	p := &Primitive{
		Name:     fmt.Sprintf("G12%d", n-1),
		Kind:     Broadcast,
		Size:     n,
		Rep:      rep,
		Impl:     impl,
		Schedule: schedule,
	}
	p.Routes = deriveRoutes(p)
	return p, nil
}

// NewLoop constructs the loop primitive on n vertices: the representation
// graph is the directed cycle 1 -> 2 -> ... -> n -> 1 and the
// implementation graph is the ring with one link per cycle edge. The
// schedule is a proper edge coloring of the ring under the 1-port model:
// two rounds for even n, three for odd n.
func NewLoop(n int) (*Primitive, error) {
	if n < 3 {
		return nil, fmt.Errorf("primitives: loop size %d < 3", n)
	}
	ids := graph.Range(1, graph.NodeID(n))
	rep := graph.DirectedCycle(fmt.Sprintf("L%d-rep", n), ids, 0, 0)
	impl := graph.BidirectionalRing(fmt.Sprintf("L%d-impl", n), ids, 0, 0)

	schedule := ringEdgeColoring(n)
	p := &Primitive{
		Name:     fmt.Sprintf("L%d", n),
		Kind:     Loop,
		Size:     n,
		Rep:      rep,
		Impl:     impl,
		Schedule: schedule,
	}
	p.Routes = directRoutes(rep)
	return p, nil
}

// NewPath constructs the path primitive on n vertices: representation
// graph 1 -> 2 -> ... -> n, implementation graph the same chain of links.
// The schedule alternates odd and even links (two rounds).
func NewPath(n int) (*Primitive, error) {
	if n < 2 {
		return nil, fmt.Errorf("primitives: path size %d < 2", n)
	}
	ids := graph.Range(1, graph.NodeID(n))
	rep := graph.DirectedPath(fmt.Sprintf("P%d-rep", n), ids, 0, 0)
	impl := graph.New(fmt.Sprintf("P%d-impl", n))
	for i := 0; i+1 < len(ids); i++ {
		impl.SetEdge(graph.Edge{From: ids[i], To: ids[i+1]})
		impl.SetEdge(graph.Edge{From: ids[i+1], To: ids[i]})
	}

	var odd, even Round
	for i := 1; i < n; i++ {
		tr := Transfer{From: graph.NodeID(i), To: graph.NodeID(i + 1)}
		if i%2 == 1 {
			odd = append(odd, tr)
		} else {
			even = append(even, tr)
		}
	}
	schedule := []Round{odd}
	if len(even) > 0 {
		schedule = append(schedule, even)
	}
	p := &Primitive{
		Name:     fmt.Sprintf("P%d", n),
		Kind:     Path,
		Size:     n,
		Rep:      rep,
		Impl:     impl,
		Schedule: schedule,
	}
	p.Routes = directRoutes(rep)
	return p, nil
}

// ringEdgeColoring schedules the n cycle transfers i -> i+1 (mod n) under
// the 1-port constraint: alternating links for even n (2 rounds), with the
// final wrap link deferred to a third round when n is odd.
func ringEdgeColoring(n int) []Round {
	var r1, r2, r3 Round
	for i := 1; i <= n; i++ {
		to := i%n + 1
		tr := Transfer{From: graph.NodeID(i), To: graph.NodeID(to)}
		switch {
		case n%2 == 1 && i == n:
			r3 = append(r3, tr)
		case i%2 == 1:
			r1 = append(r1, tr)
		default:
			r2 = append(r2, tr)
		}
	}
	rounds := []Round{r1, r2}
	if len(r3) > 0 {
		rounds = append(rounds, r3)
	}
	return rounds
}

// directRoutes maps every representation edge to the two-vertex direct
// path, for primitives whose implementation carries each demand on its own
// link.
func directRoutes(rep *graph.Graph) map[[2]graph.NodeID][]graph.NodeID {
	routes := make(map[[2]graph.NodeID][]graph.NodeID, rep.EdgeCount())
	for _, e := range rep.Edges() {
		routes[[2]graph.NodeID{e.From, e.To}] = []graph.NodeID{e.From, e.To}
	}
	return routes
}

// deriveRoutes simulates the optimal schedule and extracts, for every
// representation edge (src, dst), the path along which src's information
// first reaches dst — exactly the routing-table construction of Section 4.5
// ("if vertex 1 needs to send a message to vertex 4, then it will forward
// its message to vertex 3 first, since there exists an optimal schedule
// which delivers the information to vertex 4 using this route").
func deriveRoutes(p *Primitive) map[[2]graph.NodeID][]graph.NodeID {
	nodes := p.Impl.Nodes()
	// arrivedFrom[src][v] = the neighbor from which v first received src's
	// information (src itself maps to 0).
	arrivedFrom := make(map[graph.NodeID]map[graph.NodeID]graph.NodeID, len(nodes))
	for _, src := range nodes {
		arrivedFrom[src] = map[graph.NodeID]graph.NodeID{src: 0}
	}
	for _, round := range p.Schedule {
		// Snapshot knowledge at the start of the round: transfers within a
		// round exchange only previously-held information.
		type gain struct{ holder, from graph.NodeID }
		gains := make(map[graph.NodeID][]gain)
		deliver := func(from, to graph.NodeID) {
			for _, src := range nodes {
				_, fromKnows := arrivedFrom[src][from]
				_, toKnows := arrivedFrom[src][to]
				if fromKnows && !toKnows {
					gains[src] = append(gains[src], gain{holder: to, from: from})
				}
			}
		}
		for _, tr := range round {
			deliver(tr.From, tr.To)
			if tr.Exchange {
				deliver(tr.To, tr.From)
			}
		}
		for src, gs := range gains {
			for _, g := range gs {
				if _, ok := arrivedFrom[src][g.holder]; !ok {
					arrivedFrom[src][g.holder] = g.from
				}
			}
		}
	}
	routes := make(map[[2]graph.NodeID][]graph.NodeID, p.Rep.EdgeCount())
	for _, e := range p.Rep.Edges() {
		var rev []graph.NodeID
		v := e.To
		for v != e.From {
			rev = append(rev, v)
			next, ok := arrivedFrom[e.From][v]
			if !ok {
				// Schedule does not deliver src to dst; fall back to a
				// shortest path on the implementation graph.
				rev = nil
				break
			}
			v = next
		}
		var path []graph.NodeID
		if rev != nil {
			path = append(path, e.From)
			for i := len(rev) - 1; i >= 0; i-- {
				path = append(path, rev[i])
			}
		}
		// The schedule's first-arrival path can exceed the implementation
		// graph's shortest path (information may detour through busier
		// relays). Routing a steady-state unicast along the detour would
		// waste switch energy and break the Section 4.3 diameter bound, so
		// fall back to the shortest path whenever it is strictly shorter
		// (ties keep the schedule route, preserving the paper's Section
		// 4.5 example).
		if sp, _, ok := p.Impl.ShortestPath(e.From, e.To, graph.UnitWeight); ok {
			if path == nil || len(sp) < len(path) {
				path = sp
			}
		}
		if path == nil {
			continue
		}
		routes[[2]graph.NodeID{e.From, e.To}] = path
	}
	return routes
}
