package routing

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// MeshO1Turn implements O1TURN-style oblivious routing on a 2-D mesh, the
// "stochastic routing" direction of the paper's future work (Section 6):
// each packet picks XY or YX dimension-ordered routing, each class riding
// its own virtual channel. Both classes are individually dimension-ordered
// (acyclic channel dependencies), so with one VC per class the union is
// deadlock-free; randomizing the choice balances load across the two
// minimal route families.
type MeshO1Turn struct {
	Rows, Cols int
	xy, yx     Table
}

// NewMeshO1Turn builds the XY and YX tables for a rows x cols mesh.
func NewMeshO1Turn(rows, cols int) (*MeshO1Turn, error) {
	xy, err := XY(rows, cols)
	if err != nil {
		return nil, err
	}
	yx, err := YX(rows, cols)
	if err != nil {
		return nil, err
	}
	return &MeshO1Turn{Rows: rows, Cols: cols, xy: xy, yx: yx}, nil
}

// NumVCs returns the virtual channels O1TURN requires: one per class.
func (o *MeshO1Turn) NumVCs() int { return 2 }

// Route returns the route and per-position VC list for the given class:
// class 0 = XY on VC 0, class 1 = YX on VC 1.
func (o *MeshO1Turn) Route(src, dst graph.NodeID, class int) ([]graph.NodeID, []int, error) {
	var t Table
	switch class {
	case 0:
		t = o.xy
	case 1:
		t = o.yx
	default:
		return nil, nil, fmt.Errorf("routing: O1TURN class %d", class)
	}
	route, err := t.Route(src, dst)
	if err != nil {
		return nil, nil, err
	}
	vcs := make([]int, len(route))
	for i := range vcs {
		vcs[i] = class
	}
	vcs[len(vcs)-1] = 0 // ejection
	return route, vcs, nil
}

// RandomRoute picks a class uniformly at random (stochastic routing).
func (o *MeshO1Turn) RandomRoute(src, dst graph.NodeID, rng *rand.Rand) ([]graph.NodeID, []int, error) {
	return o.Route(src, dst, rng.Intn(2))
}

// AdaptiveRoute picks the class whose first hop leads toward the less
// congested neighbor, using the occupancy probe the caller supplies — a
// minimal congestion-aware (adaptive) strategy built on the same two
// deadlock-free classes.
func (o *MeshO1Turn) AdaptiveRoute(src, dst graph.NodeID, occupancy func(graph.NodeID) int) ([]graph.NodeID, []int, error) {
	r0, v0, err := o.Route(src, dst, 0)
	if err != nil {
		return nil, nil, err
	}
	r1, v1, err := o.Route(src, dst, 1)
	if err != nil {
		return nil, nil, err
	}
	if occupancy == nil || len(r0) < 2 || len(r1) < 2 {
		return r0, v0, nil
	}
	if occupancy(r1[1]) < occupancy(r0[1]) {
		return r1, v1, nil
	}
	return r0, v0, nil
}

// YX builds dimension-ordered YX routing for a rows x cols mesh (rows
// first, then columns) — the mirror of XY, also deadlock-free.
func YX(rows, cols int) (Table, error) {
	return dimensionOrdered(rows, cols, true)
}
