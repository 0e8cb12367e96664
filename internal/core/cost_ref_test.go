package core

// Map-graph reference implementations of the coster's mask-based
// remainder price and lower bound. The search runs only the mask forms;
// these walk a *graph.Graph directly and back the
// representation-equivalence and energy-mode tests.

import "repro/internal/graph"

// remainderCost prices the remainder graph: each leftover edge becomes a
// dedicated point-to-point link (two switch traversals, one link at the
// floorplanned distance in energy mode; one unit per directed edge in link
// mode). It is the map-graph reference implementation of remainderCostMask.
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

// lowerBound is the "minimum remaining cost" of Figure 3: an admissible
// estimate of the cheapest possible implementation of the remaining graph.
// It is the map-graph reference implementation of lowerBoundMask and
// reads the same cover floors
// through each edge's frozen id; slack has the same meaning as there. In
// energy mode it recomputes the straight-line term — every remaining edge
// must move v(e) bits between its endpoint cores through at least two
// switches and wire no shorter than their straight-line separation —
// raises it to the edge's floor and scales it by 1−floorMargin.
func (c *coster) lowerBound(r *graph.Graph, slack float64) float64 {
	if c.p.Options.Mode == CostLinks {
		active := 0
		for _, n := range r.Nodes() {
			if r.Degree(n) > 0 {
				active++
			}
		}
		var shares int64
		for _, e := range r.Edges() {
			shares += int64(c.share[c.edgeID(e)])
		}
		return c.linkBound(active, shares, r.EdgeCount(), slack)
	}
	var total float64
	for _, e := range r.Edges() {
		lb := e.Volume * c.p.Energy.MinBitEnergy(c.straightLine(e.From, e.To))
		if c.floor != nil {
			lb = max(lb, c.floor[c.edgeID(e)])
		}
		total += lb * (1 - floorMargin)
	}
	return total
}

// edgeID returns the frozen edge id of e, which must be an ACG edge.
func (c *coster) edgeID(e graph.Edge) int {
	from, _ := c.facg.IndexOf(e.From)
	to, _ := c.facg.IndexOf(e.To)
	id, _ := c.facg.EdgeIndexBetween(from, to)
	return id
}
