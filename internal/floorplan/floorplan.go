// Package floorplan computes core placements. The paper assumes "an
// initial floorplanning step has been performed and optimized for chip
// area. Hence, the core coordinates are given as inputs to the algorithm"
// (Section 4). This package is that step: a classic Wong-Liu slicing
// floorplanner — simulated annealing over normalized Polish expressions —
// minimizing chip area, plus a trivial grid placer for arrays of identical
// cores (the AES case).
//
// Link lengths for the energy model are Manhattan distances between core
// centers, the natural metric for rectilinearly routed global wires. The
// Euclidean distance is also exposed because it lower-bounds any rectilinear
// route and therefore keeps the branch-and-bound's remaining-cost estimate
// admissible.
package floorplan

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// Core describes one processing element to place.
type Core struct {
	ID   graph.NodeID
	Name string
	// W, H are the core dimensions in millimeters.
	W, H float64
}

// Point is a location in millimeters.
type Point struct{ X, Y float64 }

// Placement maps cores to positions on the die.
type Placement struct {
	// Origin (lower-left corner) of each core.
	origins map[graph.NodeID]Point
	// Dimensions of each core as placed (possibly rotated).
	dims map[graph.NodeID]Point
	// ChipW, ChipH are the bounding-box dimensions.
	ChipW, ChipH float64
}

// NewPlacement builds a placement from explicit core origins and
// dimensions. The chip bounding box is computed.
func NewPlacement(origins map[graph.NodeID]Point, dims map[graph.NodeID]Point) *Placement {
	p := &Placement{
		origins: make(map[graph.NodeID]Point, len(origins)),
		dims:    make(map[graph.NodeID]Point, len(dims)),
	}
	for id, o := range origins {
		p.origins[id] = o
		d := dims[id]
		p.dims[id] = d
		if o.X+d.X > p.ChipW {
			p.ChipW = o.X + d.X
		}
		if o.Y+d.Y > p.ChipH {
			p.ChipH = o.Y + d.Y
		}
	}
	return p
}

// Has reports whether the core is placed.
func (p *Placement) Has(id graph.NodeID) bool {
	_, ok := p.origins[id]
	return ok
}

// Center returns the center coordinate of the core.
func (p *Placement) Center(id graph.NodeID) Point {
	o := p.origins[id]
	d := p.dims[id]
	return Point{X: o.X + d.X/2, Y: o.Y + d.Y/2}
}

// Origin returns the lower-left corner of the core.
func (p *Placement) Origin(id graph.NodeID) Point { return p.origins[id] }

// Dims returns the placed dimensions of the core.
func (p *Placement) Dims(id graph.NodeID) Point { return p.dims[id] }

// Cores returns the placed core ids in ascending order.
func (p *Placement) Cores() []graph.NodeID {
	ids := make([]graph.NodeID, 0, len(p.origins))
	for id := range p.origins {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Area returns the chip bounding-box area in square millimeters.
func (p *Placement) Area() float64 { return p.ChipW * p.ChipH }

// ManhattanDistance returns |dx|+|dy| between the core centers: the length
// a rectilinear link between the two cores must span.
func (p *Placement) ManhattanDistance(a, b graph.NodeID) float64 {
	return Manhattan(p.Center(a), p.Center(b))
}

// Manhattan returns |dx|+|dy| between two points. Callers that cache core
// centers in dense arrays use it to reproduce ManhattanDistance exactly.
func Manhattan(a, b Point) float64 {
	return math.Abs(a.X-b.X) + math.Abs(a.Y-b.Y)
}

// EuclideanDistance returns the straight-line distance between core
// centers; it lower-bounds ManhattanDistance.
func (p *Placement) EuclideanDistance(a, b graph.NodeID) float64 {
	ca, cb := p.Center(a), p.Center(b)
	return math.Hypot(ca.X-cb.X, ca.Y-cb.Y)
}

// TotalCoreArea returns the sum of placed core areas (a lower bound on
// chip area; the ratio to Area is the packing efficiency).
func (p *Placement) TotalCoreArea() float64 {
	var sum float64
	for _, d := range p.dims {
		sum += d.X * d.Y
	}
	return sum
}

// Describe renders the placement deterministically.
func (p *Placement) Describe() string {
	s := fmt.Sprintf("chip %.2f x %.2f mm (area %.2f, util %.0f%%)\n",
		p.ChipW, p.ChipH, p.Area(), 100*p.TotalCoreArea()/math.Max(p.Area(), 1e-12))
	for _, id := range p.Cores() {
		o, d := p.origins[id], p.dims[id]
		s += fmt.Sprintf("  core %d @ (%.2f,%.2f) %.2fx%.2f\n", id, o.X, o.Y, d.X, d.Y)
	}
	return s
}

// Grid places n identical cores of the given dimensions on a near-square
// grid in row-major id order (ids 1..n), with the given channel spacing
// between adjacent cores. This matches the AES experiment's 16 identical
// nodes, which any area-optimal floorplanner arranges as a 4x4 array.
func Grid(n int, coreW, coreH, spacing float64) *Placement {
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	origins := make(map[graph.NodeID]Point, n)
	dims := make(map[graph.NodeID]Point, n)
	for i := 0; i < n; i++ {
		r, c := i/cols, i%cols
		origins[graph.NodeID(i+1)] = Point{
			X: float64(c) * (coreW + spacing),
			Y: float64(r) * (coreH + spacing),
		}
		dims[graph.NodeID(i+1)] = Point{X: coreW, Y: coreH}
	}
	_ = rows
	return NewPlacement(origins, dims)
}
