package core

import (
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/internal/floorplan"
	"repro/internal/graph"
	"repro/internal/iso"
)

// coster evaluates Equation 5 match costs, remainder costs and the
// admissible lower bound against the problem's placement and energy model.
//
// When built over a frozen ACG the coster carries the per-edge constants
// of the solve (edgeConsts, computed once by edgeConstants) — the cover
// floors of the lower bound and the remainder energies — so the hot
// mask-based bound and leaf costing are pure array sums over the live-edge
// bitmask, with no placement or energy model calls inside the search.
type coster struct {
	p *Problem

	facg *graph.Frozen
	edgeConsts
	// nodeScratch is the worker-local active-vertex bitset of the
	// link-mode lower bound.
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

// newCoster builds a coster with the latency-bound constants precomputed
// and the per-edge constants attached, so the copies handed to
// concurrent DFS workers never write to themselves on the hot path. The
// constants are computed once per solve (edgeConstants) and shared
// read-only across workers; nodeScratch and the lengths buffer are the
// mutable members and are per-worker by construction.
func newCoster(p *Problem, facg *graph.Frozen, k edgeConsts) coster {
	c := coster{p: p, facg: facg, edgeConsts: k}
	if p.Library != nil && p.Library.Len() > 0 {
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

// edgeConsts are the per-frozen-edge constants of one solve, shared
// read-only by every worker's coster.
//
// Each edge gets a floor: the least cost any legal decomposition can
// assign to it. The lower bound at a search node is the sum of the floors
// of its live edges. The floors come from one enumeration of the library
// on the full ACG (edgeConstants), and they stay admissible at every node
// below the root for two reasons. Matching is monomorphism, never induced,
// so every match the search finds in a remaining graph is also a match in
// the full ACG. And a match's cost splits over its covered edges: evenly
// in link mode, and in energy mode one Equation 5 term per representation
// edge (coreCost sums exactly these terms).
type edgeConsts struct {
	// share[e] is the link-mode floor of edge e in units of 1/unit links:
	// the lowest links·unit/k over the matches that cover e, k being the
	// primitive's representation edge count, or unit (one remainder link)
	// when no primitive with fewer links than edges covers it. nil in
	// energy mode.
	share []int32
	unit  int64

	// Energy mode (all nil in link mode): remEdge[e] is the remainder
	// energy of edge e, one dedicated point-to-point link; floor[e] is the
	// least of remEdge[e] and the Equation 5 term of e under every
	// full-ACG matching of every primitive (nil when the enumeration was
	// truncated); minEdge[e] is the per-edge bound term, the larger of the
	// straight-line minimum energy and floor[e], scaled by 1−floorMargin.
	minEdge, remEdge, floor []float64
}

// floorMargin scales the energy-mode bound terms down, so that a tie
// between a subtree's bound and its best leaf can never prune that leaf on
// rounding alone.
//
// Why it suffices. floor[e] is computed by the same float operations as
// the term a leaf adds for e (edgeEnergy, or remEdge), and the
// straight-line minimum is at most every such term in exact arithmetic —
// equal to the remainder term on an axis-aligned edge short enough to
// need no repeater, so it is as tight as a floor. With B the exact sum of
// the unscaled terms over the live edges and S the exact sum of the terms
// any completion adds, B ≤ S. Only the rounding differs: the bound check
// evaluates C + Σ minEdge[e] in mask order, C being the node's cost,
// while a leaf adds its match and remainder terms to C in path order. A
// sum of n nonnegative floats is within n·u of its exact value (u = 2⁻⁵³,
// n ≤ E, the ACG's edge count), so the two sides drift by at most about
// 2(E+2)·u·(C+S) ≈ 2.2e-16·(E+2)·(C+S) together, against the 1e-9·B the
// margin removes. The bound therefore never exceeds a leaf below it while
// (C+S)/B < 4.5e6/(E+2) — spent cost and remaining floor within four
// decades of each other at E = 400 — and trivially when B = 0 (rounding a
// sum of nonnegative terms onto C never drops below C). Like the
// warm-start margin of incumbent.init, the margin is far below any real
// cost gap, so it costs no pruning that matters.
const floorMargin = 1e-9

// maxShareUnit caps the link-mode share unit. A library whose edge counts
// have a larger least common multiple gets its shares rounded down, which
// keeps the bound admissible.
const maxShareUnit = 1 << 20

// edgeConstants computes the per-edge constants of one solve. The floors
// come from enumerating the primitives once on the full ACG with a
// dedicated VF2 searcher, each enumeration capped at budget raw matchings
// (0 means unlimited) and at the deadline, tightened by IsoTimeout. When a
// cap cuts an enumeration short, the floors fall back conservatively: in
// link mode every edge takes at most that primitive's share, in energy
// mode the floors are dropped and the straight-line minimum stays.
func edgeConstants(p *Problem, facg *graph.Frozen, prims []primInfo, budget int, deadline time.Time) edgeConsts {
	var k edgeConsts
	var sr iso.Searcher
	// covers enumerates pi on the full ACG, calling fn with the ACG edge
	// each raw matching maps representation edge r onto, for every r in
	// reps, and reports whether the enumeration was complete.
	covers := func(pi *primInfo, reps []int, fn func(core []int32, r int, e int32)) bool {
		opts := iso.Options{Limit: budget, Deadline: deadline}
		if to := p.Options.IsoTimeout; to > 0 {
			if d := time.Now().Add(to); opts.Deadline.IsZero() || d.Before(opts.Deadline) {
				opts.Deadline = d
			}
		}
		found, err := sr.FindEach(pi.pat, facg, nil, opts, func(core []int32) {
			for _, r := range reps {
				e, _ := facg.EdgeIndexBetween(int(core[pi.from[r]]), int(core[pi.to[r]]))
				fn(core, r, int32(e))
			}
		})
		return err == nil && (budget <= 0 || found < budget)
	}

	var reps []int
	if p.Options.Mode != CostEnergy {
		k.unit = shareUnit(prims)
		k.share = make([]int32, facg.EdgeCount())
		for e := range k.share {
			k.share[e] = int32(k.unit)
		}
		for i := range prims {
			pi := &prims[i]
			n := int64(len(pi.from))
			if n == 0 || int64(pi.links) >= n {
				continue // never cheaper than one remainder link per edge
			}
			s := int32(int64(pi.links) * k.unit / n)
			reps = reps[:0]
			for r := range pi.from {
				reps = append(reps, r)
			}
			complete := covers(pi, reps, func(_ []int32, _ int, e int32) {
				k.share[e] = min(k.share[e], s)
			})
			if !complete {
				for e := range k.share {
					k.share[e] = min(k.share[e], s)
				}
			}
		}
		return k
	}

	c := newCoster(p, facg, edgeConsts{})
	n := facg.EdgeCount()
	k.minEdge = make([]float64, n)
	k.remEdge = make([]float64, n)
	ids := facg.IDs()
	for i := 0; i < n; i++ {
		from, to := facg.EdgeEndpoints(i)
		u, v := ids[from], ids[to]
		vol := facg.Volume(i)
		k.minEdge[i] = vol * p.Energy.MinBitEnergy(c.straightLine(u, v))
		k.remEdge[i] = p.Energy.TransferEnergy(vol, []float64{c.linkLength(u, v)})
	}

	floor := slices.Clone(k.remEdge)
	for i := range prims {
		pi := &prims[i]
		// A one-hop route's term is the edge's remainder energy, computed
		// the same way, so only the other edges can lower a floor.
		reps = reps[:0]
		for r, route := range pi.routes {
			if len(route) != 2 {
				reps = append(reps, r)
			}
		}
		if len(reps) == 0 {
			continue
		}
		complete := covers(pi, reps, func(core []int32, r int, e int32) {
			if pi.routes[r] == nil {
				floor[e] = 0 // coreCost adds no term for an unrouted edge
			} else if t := c.edgeEnergy(pi, core, r, e); t < floor[e] {
				floor[e] = t
			}
		})
		if !complete {
			floor = nil
			break
		}
	}
	k.floor = floor
	for e := range k.minEdge {
		if floor != nil {
			k.minEdge[e] = max(k.minEdge[e], floor[e])
		}
		k.minEdge[e] *= 1 - floorMargin
	}
	return k
}

// shareUnit returns the link-mode share unit: the least common multiple
// of the representation edge counts of the primitives that cover more
// edges than they spend links on, so that every such share is an exact
// integer; capped at maxShareUnit.
func shareUnit(prims []primInfo) int64 {
	unit := int64(1)
	for _, pi := range prims {
		n := int64(len(pi.from))
		if n == 0 || int64(pi.links) >= n {
			continue
		}
		a, b := unit, n
		for b != 0 {
			a, b = b, a%b
		}
		if unit = unit / a * n; unit > maxShareUnit {
			return maxShareUnit
		}
	}
	return unit
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
		if route != nil {
			total += c.edgeEnergy(pi, core, r, ids[r])
		}
	}
	return total
}

// edgeEnergy is representation edge r's Equation 5 term under the raw
// matching core: the volume of ACG edge e travelling r's route, whose
// per-hop lengths come from the floorplan. r must have a route.
func (c *coster) edgeEnergy(pi *primInfo, core []int32, r int, e int32) float64 {
	route := pi.routes[r]
	lengths := c.lengths[:0]
	for i := 0; i+1 < len(route); i++ {
		lengths = append(lengths, c.linkLengthIdx(core[route[i]], core[route[i+1]]))
	}
	c.lengths = lengths
	return c.p.Energy.TransferEnergy(c.facg.Volume(int(e)), lengths)
}

// remainderCostMask prices the remainder over the frozen ACG restricted
// to the live-edge mask — the form the leaf handler uses: each leftover
// edge becomes a dedicated point-to-point link (two switch traversals,
// one link at the floorplanned distance in energy mode; one unit per
// directed edge in link mode). In energy mode it sums the precomputed
// per-edge constants; in link mode it is the popcount. The map-graph
// reference, remainderCost, lives with the tests.
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

// lowerBoundMask is the "minimum remaining cost" of Figure 3, an
// admissible estimate of the cheapest implementation of the remaining
// graph, over the frozen ACG restricted to the live-edge mask (live is
// the mask's popcount, tracked incrementally by the search) — the form
// the hot pruning path uses; the map-graph reference, lowerBound, lives
// with the tests. Energy mode sums the per-edge bound terms minEdge (see
// edgeConsts). Link mode walks the live edges once, summing their
// integer shares and marking active endpoints in the worker-local
// scratch bitset, and takes the largest of three admissible bounds:
//
//   - every vertex that still sends or receives needs an incident link,
//     and one link serves two vertices;
//   - the cover floors: ceil(Σ share / unit) links. The sum is an exact
//     integer, so no rounding can prune an optimal tie, and the ceiling is
//     admissible because every link-mode cost is an integer;
//   - the latency slack bound below.
//
// slack is the remaining weighted extra-hop budget an active MaxLatency
// ceiling leaves the subtree: MaxLatency·totalWeight − wHops − liveWeight
// (+Inf when no ceiling is active). Covering an edge at better than the
// hop-free ratio latR0 requires a primitive whose routes spend at least
// latXmin extra hops per covered edge, each weighted at least latWmin —
// so at most slack/(latXmin·latWmin) edges can be covered at the high
// ratio latRmax and the rest cost at least 1/latR0 links each. With tight
// ceilings this term approaches one link per remaining edge, which is
// what lets a warm-started (ε-constraint) solve prune dominated subtrees
// near the root. Admissibility: any completion partitions live edges into
// those covered by primitives with ratio ≤ latR0 or the remainder (≥
// 1/latR0 links each, no slack claimed) and those covered by higher-ratio
// primitives (≥ 1/latRmax links each, ≥ latXmin·latWmin weighted extra
// hops each, and the total weighted extra hops of a feasible completion
// cannot exceed slack).
func (c *coster) lowerBoundMask(mask graph.EdgeMask, live int, slack float64) float64 {
	if c.p.Options.Mode == CostLinks {
		for i := range c.nodeScratch {
			c.nodeScratch[i] = 0
		}
		active := 0
		var shares int64
		for wi, w := range mask {
			for w != 0 {
				e := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				shares += int64(c.share[e])
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
		return c.linkBound(active, shares, live, slack)
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

// linkBound combines the three link-mode bounds of lowerBoundMask from
// the active vertex count, the summed shares and the live edge count.
func (c *coster) linkBound(active int, shares int64, live int, slack float64) float64 {
	bound := float64((active + 1) / 2)
	if byShare := float64((shares + c.unit - 1) / c.unit); byShare > bound {
		bound = byShare
	}
	if bySlack := c.slackBound(live, slack); bySlack > bound {
		bound = bySlack
	}
	return bound
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

// maxCoverPerLink returns the best edges-covered-per-link ratio any
// library primitive achieves (at least 1, the remainder's ratio).
func (c *coster) maxCoverPerLink() float64 {
	best := 1.0
	for _, p := range c.p.Library.Primitives() {
		if links := p.ImplLinkCount(); links > 0 {
			if r := float64(p.Rep.EdgeCount()) / float64(links); r > best {
				best = r
			}
		}
	}
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
