package core

import (
	"math"
	"math/bits"

	"repro/internal/floorplan"
	"repro/internal/graph"
)

// coster evaluates Equation 5 match costs, remainder costs and the
// admissible lower bound against the problem's placement and energy model.
//
// When built over a frozen ACG the coster carries, per frozen edge id, the
// two per-edge constants the search needs at every tree node — the
// admissible lower-bound energy (volume times the straight-line minimum
// bit energy) and the remainder energy (volume through one dedicated
// point-to-point link), precomputed once per solve by edgeCostConstants —
// so the hot mask-based bound and leaf costing are pure array sums over
// the live-edge bitmask, with no placement or energy model calls inside
// the search.
type coster struct {
	p           *Problem
	cachedRatio float64

	facg *graph.Frozen
	// minEdge[e] / remEdge[e] are the energy-mode per-edge constants; nil
	// in link mode. nodeScratch is the worker-local active-vertex bitset of
	// the link-mode lower bound.
	minEdge     []float64
	remEdge     []float64
	nodeScratch []uint64

	// center[i] is the floorplan center of ACG dense index i and placed[i]
	// whether it has one (both nil without a placement, or in link mode);
	// lengths is the worker-local route-length buffer of coreCost.
	center  []floorplan.Point
	placed  []bool
	lengths []float64

	// Latency-aware link-mode bound constants (see lowerBoundMask). latR0
	// is the best edges-per-link ratio achievable without spending any
	// latency slack (hop-free primitives and the 1:1 remainder); latRmax
	// is the best ratio overall (== maxCoverPerLink); latXmin is the
	// cheapest extra-hops-per-covered-edge any primitive beating latR0
	// pays; latWmin is the smallest per-edge latency weight in the ACG.
	// latXmin == 0 marks the term inactive (no primitive beats latR0, or
	// no library).
	latR0, latRmax, latXmin, latWmin float64
}

// newCoster builds a coster with the library's cover-per-link ratio
// precomputed and the per-edge cost constants attached, so the copies
// handed to concurrent DFS workers never write to themselves on the hot
// path. minEdge/remEdge are computed once per solve (edgeCostConstants)
// and shared read-only across workers; nodeScratch is the one mutable
// member and is per-worker by construction.
func newCoster(p *Problem, facg *graph.Frozen, minEdge, remEdge []float64) coster {
	c := coster{p: p, facg: facg, minEdge: minEdge, remEdge: remEdge}
	if p.Library != nil && p.Library.Len() > 0 {
		c.maxCoverPerLink()
		c.initLatencyBound()
	}
	if facg != nil {
		c.nodeScratch = make([]uint64, (facg.NodeCount()+63)/64)
		if p.Options.Mode == CostEnergy && p.Placement != nil {
			c.center = make([]floorplan.Point, facg.NodeCount())
			c.placed = make([]bool, facg.NodeCount())
			for i, id := range facg.IDs() {
				if p.Placement.Has(id) {
					c.center[i], c.placed[i] = p.Placement.Center(id), true
				}
			}
		}
	}
	return c
}

// initLatencyBound precomputes the constants of the latency-aware link
// bound from the library's routing tables. For each primitive it derives
// the cover ratio (representation edges per implementation link) and the
// total extra route hops (hops beyond one per representation edge). The
// remainder contributes the baseline hop-free ratio 1. latWmin comes from
// the same per-edge weights the AvgHops objective uses, so the slack
// arithmetic in lowerBoundMask is expressed in identical units.
func (c *coster) initLatencyBound() {
	c.latR0, c.latRmax = 1, c.maxCoverPerLink()
	c.latXmin = 0
	type hungry struct{ ratio, perEdge float64 }
	var above []hungry
	for _, p := range c.p.Library.Primitives() {
		links := p.ImplLinkCount()
		n := p.Rep.EdgeCount()
		if links <= 0 || n <= 0 {
			continue
		}
		ratio := float64(n) / float64(links)
		extra := 0
		for _, e := range p.Rep.Edges() {
			if route, ok := p.Routes[[2]graph.NodeID{e.From, e.To}]; ok {
				extra += len(route) - 2
			}
		}
		if extra == 0 {
			if ratio > c.latR0 {
				c.latR0 = ratio
			}
			continue
		}
		above = append(above, hungry{ratio, float64(extra) / float64(n)})
	}
	for _, h := range above {
		if h.ratio > c.latR0 && (c.latXmin == 0 || h.perEdge < c.latXmin) {
			c.latXmin = h.perEdge
		}
	}
	if c.facg != nil {
		lw, _ := latencyWeights(c.facg)
		wmin := math.Inf(1)
		for _, w := range lw {
			if w < wmin {
				wmin = w
			}
		}
		if !math.IsInf(wmin, 1) {
			c.latWmin = wmin
		}
	}
}

// edgeCostConstants precomputes, per frozen edge id, the energy-mode
// admissible lower bound and remainder cost (both nil in link mode, where
// the mask popcount suffices).
func edgeCostConstants(p *Problem, facg *graph.Frozen) (minEdge, remEdge []float64) {
	if p.Options.Mode != CostEnergy {
		return nil, nil
	}
	c := coster{p: p}
	e := facg.EdgeCount()
	minEdge = make([]float64, e)
	remEdge = make([]float64, e)
	ids := facg.IDs()
	for i := 0; i < e; i++ {
		from, to := facg.EdgeEndpoints(i)
		u, v := ids[from], ids[to]
		vol := facg.Volume(i)
		minEdge[i] = vol * p.Energy.MinBitEnergy(c.straightLine(u, v))
		remEdge[i] = p.Energy.TransferEnergy(vol, []float64{c.linkLength(u, v)})
	}
	return minEdge, remEdge
}

// linkLength returns the physical length of a link between cores u and v:
// the Manhattan distance between their centers, or 1 mm without a
// placement.
func (c *coster) linkLength(u, v graph.NodeID) float64 {
	if c.p.Placement == nil || !c.p.Placement.Has(u) || !c.p.Placement.Has(v) {
		return 1
	}
	return c.p.Placement.ManhattanDistance(u, v)
}

// straightLine returns the Euclidean distance between cores, the admissible
// wire lower bound; 1 mm without a placement (matching linkLength so the
// bound stays admissible).
func (c *coster) straightLine(u, v graph.NodeID) float64 {
	if c.p.Placement == nil || !c.p.Placement.Has(u) || !c.p.Placement.Has(v) {
		return 1
	}
	return c.p.Placement.EuclideanDistance(u, v)
}

// linkLengthIdx is linkLength between ACG dense indices, answered from the
// center arrays with the same arithmetic as the placement.
func (c *coster) linkLengthIdx(a, b int32) float64 {
	if c.center == nil || !c.placed[a] || !c.placed[b] {
		return 1
	}
	return floorplan.Manhattan(c.center[a], c.center[b])
}

// coreCost evaluates the match cost of a raw matching given as a VF2
// core array (pattern dense index -> ACG dense index), with ids[r] the ACG
// edge id covered by representation edge r. In energy mode this is
// Equation 5: every covered ACG edge's volume travels the primitive's
// optimal-schedule route, whose per-hop lengths come from the floorplan,
// summed in representation-edge order. In link mode it is the
// implementation-link count.
func (c *coster) coreCost(pi *primInfo, core, ids []int32) float64 {
	if c.p.Options.Mode == CostLinks {
		return float64(pi.links)
	}
	var total float64
	for r, route := range pi.routes {
		if route == nil {
			continue
		}
		lengths := c.lengths[:0]
		for i := 0; i+1 < len(route); i++ {
			lengths = append(lengths, c.linkLengthIdx(core[route[i]], core[route[i+1]]))
		}
		c.lengths = lengths
		total += c.p.Energy.TransferEnergy(c.facg.Volume(int(ids[r])), lengths)
	}
	return total
}

// remainderCostMask is remainderCost over the frozen ACG restricted to the
// live-edge mask — the form the leaf handler uses. In energy mode it sums
// the precomputed per-edge constants; in link mode it is the popcount.
func (c *coster) remainderCostMask(mask graph.EdgeMask) float64 {
	if c.p.Options.Mode == CostLinks {
		return float64(mask.Count())
	}
	var total float64
	for wi, w := range mask {
		for w != 0 {
			total += c.remEdge[wi<<6+bits.TrailingZeros64(w)]
			w &= w - 1
		}
	}
	return total
}

// remainderCost prices the remainder graph: each leftover edge becomes a
// dedicated point-to-point link (two switch traversals, one link at the
// floorplanned distance in energy mode; one unit per directed edge in link
// mode). It is the map-graph reference implementation of remainderCostMask,
// kept for callers and tests outside the mask-based search.
func (c *coster) remainderCost(r *graph.Graph) float64 {
	if c.p.Options.Mode == CostLinks {
		return float64(r.EdgeCount())
	}
	var total float64
	for _, e := range r.Edges() {
		total += c.p.Energy.TransferEnergy(e.Volume, []float64{c.linkLength(e.From, e.To)})
	}
	return total
}

// lowerBoundMask is lowerBound over the frozen ACG restricted to the
// live-edge mask (live is the mask's popcount, tracked incrementally by
// the search) — the form the hot pruning path uses. Link mode walks the
// live edges once, marking active endpoints in the worker-local scratch
// bitset; energy mode sums the precomputed per-edge admissible minima.
//
// slack is the remaining weighted extra-hop budget an active MaxLatency
// ceiling leaves the subtree: MaxLatency·totalWeight − wHops − liveWeight
// (+Inf when no ceiling is active). In link mode a third admissible bound
// uses it: covering an edge at better than the hop-free ratio latR0
// requires a primitive whose routes spend at least latXmin extra hops per
// covered edge, each weighted at least latWmin — so at most
// slack/(latXmin·latWmin) edges can be covered at the high ratio latRmax
// and the rest cost at least 1/latR0 links each. With tight ceilings this
// term approaches one link per remaining edge, far above the latency-blind
// ratio bound, which is what lets a warm-started (ε-constraint) solve
// prune dominated subtrees near the root. Admissibility: any completion
// partitions live edges into those covered by primitives with ratio ≤
// latR0 or the remainder (≥ 1/latR0 links each, no slack claimed) and
// those covered by higher-ratio primitives (≥ 1/latRmax links each, ≥
// latXmin·latWmin weighted extra hops each, and the total weighted extra
// hops of a feasible completion cannot exceed slack).
func (c *coster) lowerBoundMask(mask graph.EdgeMask, live int, slack float64) float64 {
	if c.p.Options.Mode == CostLinks {
		for i := range c.nodeScratch {
			c.nodeScratch[i] = 0
		}
		active := 0
		for wi, w := range mask {
			for w != 0 {
				e := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				from, to := c.facg.EdgeEndpoints(e)
				if c.nodeScratch[from>>6]&(1<<uint(from&63)) == 0 {
					c.nodeScratch[from>>6] |= 1 << uint(from&63)
					active++
				}
				if c.nodeScratch[to>>6]&(1<<uint(to&63)) == 0 {
					c.nodeScratch[to>>6] |= 1 << uint(to&63)
					active++
				}
			}
		}
		bound := float64((active + 1) / 2)
		if byRatio := float64(live) / c.maxCoverPerLink(); byRatio > bound {
			bound = byRatio
		}
		if bySlack := c.slackBound(live, slack); bySlack > bound {
			bound = bySlack
		}
		return bound
	}
	var total float64
	for wi, w := range mask {
		for w != 0 {
			total += c.minEdge[wi<<6+bits.TrailingZeros64(w)]
			w &= w - 1
		}
	}
	return total
}

// slackBound is the latency-aware piece of the link-mode lower bound (see
// lowerBoundMask): the minimum links needed to cover live edges when only
// slack weighted extra hops remain. Returns 0 (never binding) when no
// ceiling is active, the constants are degenerate, or the budget admits
// high-ratio coverage of everything.
func (c *coster) slackBound(live int, slack float64) float64 {
	if math.IsInf(slack, 1) || c.latXmin <= 0 || c.latWmin <= 0 || c.latR0 <= 0 {
		return 0
	}
	if slack < 0 {
		slack = 0
	}
	m := slack / (c.latXmin * c.latWmin)
	if m >= float64(live) {
		return 0
	}
	return (float64(live)-m)/c.latR0 + m/c.latRmax
}

// lowerBound is the "minimum remaining cost" of Figure 3: an admissible
// estimate of the cheapest possible implementation of the remaining graph.
// Every remaining edge must move v(e) bits between its endpoint cores
// through at least two switches and wire no shorter than their straight-
// line separation, regardless of which primitive (or the remainder) ends
// up carrying it. It is the map-graph reference implementation of
// lowerBoundMask, kept for the representation-equivalence tests; slack has
// the same meaning as there.
func (c *coster) lowerBound(r *graph.Graph, slack float64) float64 {
	if c.p.Options.Mode == CostLinks {
		// Three admissible bounds, combined by max. (1) Every vertex that
		// still sends or receives needs at least one incident physical
		// link, and one link serves two vertices. (2) No library primitive
		// covers more than maxCoverPerLink representation edges per
		// implementation link, and a remainder edge is 1:1, so covering E
		// edges needs at least E/maxCoverPerLink links. (3) The latency
		// slack bound of lowerBoundMask.
		active := 0
		for _, n := range r.Nodes() {
			if r.Degree(n) > 0 {
				active++
			}
		}
		bound := float64((active + 1) / 2)
		if byRatio := float64(r.EdgeCount()) / c.maxCoverPerLink(); byRatio > bound {
			bound = byRatio
		}
		if bySlack := c.slackBound(r.EdgeCount(), slack); bySlack > bound {
			bound = bySlack
		}
		return bound
	}
	var total float64
	for _, e := range r.Edges() {
		total += e.Volume * c.p.Energy.MinBitEnergy(c.straightLine(e.From, e.To))
	}
	return total
}

// maxCoverPerLink returns the best edges-covered-per-link ratio any
// library primitive achieves (at least 1, the remainder's ratio).
func (c *coster) maxCoverPerLink() float64 {
	if c.cachedRatio > 0 {
		return c.cachedRatio
	}
	best := 1.0
	for _, p := range c.p.Library.Primitives() {
		if links := p.ImplLinkCount(); links > 0 {
			if r := float64(p.Rep.EdgeCount()) / float64(links); r > best {
				best = r
			}
		}
	}
	c.cachedRatio = best
	return best
}

// linkDemands aggregates, for a complete decomposition, the bandwidth
// demand on every physical link of the implied architecture. Links are
// undirected (a physical channel pair); the key is the ordered (min,max)
// vertex pair. Demands of both directions accumulate, matching the
// bandwidth feasibility condition of Section 4.2: b(e_ij^I) must cover the
// sum of b(e) over all ACG edges mapped onto that implementation edge.
func (c *coster) linkDemands(d *Decomposition) map[[2]graph.NodeID]float64 {
	demands := make(map[[2]graph.NodeID]float64)
	add := func(a, b graph.NodeID, bw float64) {
		if a > b {
			a, b = b, a
		}
		demands[[2]graph.NodeID{a, b}] += bw
	}
	for _, m := range d.Matches {
		for _, key := range m.CoveredEdges() {
			acgEdge, ok := c.p.ACG.EdgeBetween(key[0], key[1])
			if !ok {
				continue
			}
			route, ok := m.MappedRoute(key[0], key[1])
			if !ok {
				continue
			}
			for i := 0; i+1 < len(route); i++ {
				add(route[i], route[i+1], acgEdge.Bandwidth)
			}
		}
	}
	if d.Remainder != nil {
		for _, e := range d.Remainder.Edges() {
			add(e.From, e.To, e.Bandwidth)
		}
	}
	return demands
}

// checkConstraints applies Section 4.2 feasibility to a complete
// decomposition: per-link aggregated bandwidth against the link capacity,
// and the architecture's bisection bandwidth against the technology
// maximum.
func (c *coster) checkConstraints(d *Decomposition) bool {
	cons := c.p.Constraints
	if cons.LinkBandwidthMbps == 0 && cons.MaxBisectionMbps == 0 {
		return true
	}
	demands := c.linkDemands(d)
	if cons.LinkBandwidthMbps > 0 {
		for _, bw := range demands {
			if bw > cons.LinkBandwidthMbps {
				return false
			}
		}
	}
	if cons.MaxBisectionMbps > 0 {
		arch := graph.New("arch")
		for _, n := range c.p.ACG.Nodes() {
			arch.AddNode(n)
		}
		for key, bw := range demands {
			// Model the physical channel pair as two directed edges each
			// carrying half the aggregate so the cut sums to the demand.
			arch.SetEdge(graph.Edge{From: key[0], To: key[1], Bandwidth: bw / 2})
			arch.SetEdge(graph.Edge{From: key[1], To: key[0], Bandwidth: bw / 2})
		}
		if arch.BisectionBandwidth() > cons.MaxBisectionMbps {
			return false
		}
	}
	return true
}
