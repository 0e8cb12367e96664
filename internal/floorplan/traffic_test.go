package floorplan

import (
	"testing"

	"repro/internal/graph"
)

func eightMixedCores() []Core {
	return []Core{
		{ID: 1, W: 1, H: 1}, {ID: 2, W: 1, H: 2}, {ID: 3, W: 2, H: 1},
		{ID: 4, W: 1, H: 1}, {ID: 5, W: 2, H: 2}, {ID: 6, W: 1, H: 1},
		{ID: 7, W: 1, H: 2}, {ID: 8, W: 2, H: 1},
	}
}

// hotPairTraffic puts all communication on one pair of cores.
func hotPairTraffic(a, b graph.NodeID) *graph.Graph {
	g := graph.New("hot")
	g.SetEdge(graph.Edge{From: a, To: b, Volume: 1000})
	g.SetEdge(graph.Edge{From: b, To: a, Volume: 1000})
	return g
}

func TestSlicingWithTrafficPullsHotPairTogether(t *testing.T) {
	cores := eightMixedCores()
	traffic := hotPairTraffic(1, 8)

	pure, err := Slicing(cores, 4)
	if err != nil {
		t.Fatal(err)
	}
	aware, err := SlicingWithTraffic(cores, 4, TrafficAnnealOptions{
		Traffic:          traffic,
		WirelengthWeight: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	dPure := pure.ManhattanDistance(1, 8)
	dAware := aware.ManhattanDistance(1, 8)
	if dAware > dPure {
		t.Fatalf("traffic-aware anneal separated the hot pair: %.2f vs %.2f", dAware, dPure)
	}
	// The weighted wirelength objective must actually improve.
	if WeightedWirelength(aware, traffic) > WeightedWirelength(pure, traffic) {
		t.Fatalf("weighted wirelength did not improve: %.1f vs %.1f",
			WeightedWirelength(aware, traffic), WeightedWirelength(pure, traffic))
	}
}

func TestSlicingWithTrafficStillLegal(t *testing.T) {
	cores := eightMixedCores()
	traffic := hotPairTraffic(2, 7)
	p, err := SlicingWithTraffic(cores, 8, TrafficAnnealOptions{
		Traffic:          traffic,
		WirelengthWeight: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertLegal(t, p, cores)
}

func TestSlicingWithTrafficZeroWeightFallsBack(t *testing.T) {
	cores := eightMixedCores()
	p1, err := SlicingWithTraffic(cores, 2, TrafficAnnealOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Slicing(cores, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range p1.Cores() {
		if p1.Origin(id) != p2.Origin(id) {
			t.Fatal("zero-weight traffic anneal differs from pure area anneal")
		}
	}
}

func TestSlicingWithTrafficValidation(t *testing.T) {
	if _, err := SlicingWithTraffic(nil, 0, TrafficAnnealOptions{}); err == nil {
		t.Fatal("empty cores accepted")
	}
	if _, err := SlicingWithTraffic([]Core{{ID: 1, W: 0, H: 1}}, 0, TrafficAnnealOptions{}); err == nil {
		t.Fatal("bad dims accepted")
	}
}

func TestWeightedWirelength(t *testing.T) {
	p := Grid(4, 1, 1, 0) // pitch 1
	g := graph.New("t")
	g.SetEdge(graph.Edge{From: 1, To: 2, Volume: 10}) // distance 1
	g.SetEdge(graph.Edge{From: 1, To: 4, Volume: 2})  // distance 2 (diag manhattan)
	g.SetEdge(graph.Edge{From: 1, To: 99, Volume: 5}) // unplaced, skipped
	got := WeightedWirelength(p, g)
	if got != 10*1+2*2 {
		t.Fatalf("weighted wirelength = %g, want 14", got)
	}
	if WeightedWirelength(p, nil) != 0 {
		t.Fatal("nil traffic should be 0")
	}
}
