package floorplan

import "repro/internal/graph"

// TrafficAnnealOptions extends the area-driven anneal with a
// communication-aware term, implementing the paper's first future-work
// direction ("it is possible to relax the initial floorplan information
// and solve the optimization problem for the general case"): instead of
// floorplanning purely for area and then synthesizing on fixed
// coordinates, the floorplanner co-optimizes
//
//	cost = area + WirelengthWeight * Σ_e v(e) · manhattan(center_i, center_j)
//
// so heavily communicating cores are pulled together before the
// decomposition prices its routes.
type TrafficAnnealOptions struct {
	// Traffic supplies v(e); nil edges contribute nothing.
	Traffic *graph.Graph
	// WirelengthWeight is the λ above, in mm⁻¹·bit⁻¹ relative to area
	// units. Zero reduces to the pure area anneal.
	WirelengthWeight float64
}

// SlicingWithTraffic runs the slicing anneal under the combined
// area + traffic-weighted-wirelength objective.
func SlicingWithTraffic(cores []Core, seed int64, opts TrafficAnnealOptions) (*Placement, error) {
	if opts.WirelengthWeight == 0 || opts.Traffic == nil || len(cores) < 2 {
		return Slicing(cores, seed)
	}
	if err := checkCores(cores); err != nil {
		return nil, err
	}
	return anneal(cores, seed, func(expr []token) float64 {
		p := realize(expr, cores)
		return p.Area() + opts.WirelengthWeight*WeightedWirelength(p, opts.Traffic)
	}), nil
}

// WeightedWirelength returns Σ_e v(e) · manhattan distance between the
// placed centers of e's endpoints. Edges with unplaced endpoints are
// skipped.
func WeightedWirelength(p *Placement, traffic *graph.Graph) float64 {
	if traffic == nil {
		return 0
	}
	var sum float64
	for _, e := range traffic.Edges() {
		if !p.Has(e.From) || !p.Has(e.To) {
			continue
		}
		sum += e.Volume * p.ManhattanDistance(e.From, e.To)
	}
	return sum
}
