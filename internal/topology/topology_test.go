package topology

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/floorplan"
	"repro/internal/graph"
	"repro/internal/primitives"
)

func TestAddLinkBasics(t *testing.T) {
	a := New("t", graph.Range(1, 4), nil)
	if err := a.AddLink(2, 1, 10); err != nil {
		t.Fatal(err)
	}
	if !a.HasLink(1, 2) || !a.HasLink(2, 1) {
		t.Fatal("link not symmetric")
	}
	l, ok := a.LinkBetween(1, 2)
	if !ok || l.A != 1 || l.B != 2 || l.DemandMbps != 10 {
		t.Fatalf("link = %+v", l)
	}
	// Aggregation.
	if err := a.AddLink(1, 2, 5); err != nil {
		t.Fatal(err)
	}
	l, _ = a.LinkBetween(1, 2)
	if l.DemandMbps != 15 {
		t.Fatalf("demand = %g, want 15", l.DemandMbps)
	}
	if a.LinkCount() != 1 {
		t.Fatalf("LinkCount = %d", a.LinkCount())
	}
	if err := a.AddLink(3, 3, 1); err == nil {
		t.Fatal("self-link accepted")
	}
}

func TestLinkLengthFromPlacement(t *testing.T) {
	p := floorplan.Grid(4, 1, 1, 0.5) // pitch 1.5
	a := New("t", graph.Range(1, 4), p)
	if err := a.AddLink(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	l, _ := a.LinkBetween(1, 2)
	if l.LengthMM != 1.5 {
		t.Fatalf("length = %g, want 1.5", l.LengthMM)
	}
}

func TestMeshArchitecture(t *testing.T) {
	a, err := Mesh(4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.LinkCount(); got != 24 {
		t.Fatalf("4x4 mesh links = %d, want 24", got)
	}
	if a.Degree(1) != 2 || a.Degree(6) != 4 {
		t.Fatalf("corner/center degrees = %d/%d", a.Degree(1), a.Degree(6))
	}
	if !a.Connected() {
		t.Fatal("mesh not connected")
	}
	if _, err := Mesh(0, 4, nil); err == nil {
		t.Fatal("0-row mesh accepted")
	}
}

func TestPreferredRoutes(t *testing.T) {
	a, _ := Mesh(2, 2, nil)
	if err := a.SetPreferredRoute([]graph.NodeID{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	r, ok := a.PreferredRoute(1, 4)
	if !ok || len(r) != 3 {
		t.Fatalf("route = %v ok=%v", r, ok)
	}
	// Route over a missing link must be rejected (1-4 is diagonal).
	if err := a.SetPreferredRoute([]graph.NodeID{1, 4}); err == nil {
		t.Fatal("diagonal route accepted")
	}
	if err := a.SetPreferredRoute([]graph.NodeID{1}); err == nil {
		t.Fatal("1-vertex route accepted")
	}
	pairs := a.PreferredPairs()
	if len(pairs) != 1 || pairs[0] != [2]graph.NodeID{1, 4} {
		t.Fatalf("pairs = %v", pairs)
	}
}

func aesACG() *graph.Graph {
	g := graph.New("aes")
	for col := 1; col <= 4; col++ {
		ids := []graph.NodeID{graph.NodeID(col), graph.NodeID(col + 4), graph.NodeID(col + 8), graph.NodeID(col + 12)}
		for _, i := range ids {
			for _, j := range ids {
				if i != j {
					g.AddEdge(graph.Edge{From: i, To: j, Volume: 8, Bandwidth: 1})
				}
			}
		}
	}
	for i := 0; i < 4; i++ {
		g.AddEdge(graph.Edge{From: graph.NodeID(5 + i), To: graph.NodeID(5 + (i+1)%4), Volume: 8, Bandwidth: 1})
		g.AddEdge(graph.Edge{From: graph.NodeID(13 + i), To: graph.NodeID(13 + (i+1)%4), Volume: 8, Bandwidth: 1})
	}
	for _, pr := range [][2]graph.NodeID{{9, 11}, {10, 12}} {
		g.AddEdge(graph.Edge{From: pr[0], To: pr[1], Volume: 8, Bandwidth: 1})
		g.AddEdge(graph.Edge{From: pr[1], To: pr[0], Volume: 8, Bandwidth: 1})
	}
	return g
}

func solveAES(t *testing.T) (*graph.Graph, *core.Decomposition) {
	t.Helper()
	acg := aesACG()
	res, err := core.Solve(core.Problem{
		ACG:     acg,
		Library: primitives.MustDefault(),
		Energy:  energy.Tech180,
		Options: core.Options{Mode: core.CostLinks, Timeout: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no decomposition")
	}
	return acg, res.Best
}

func TestFromDecompositionAES(t *testing.T) {
	acg, d := solveAES(t)
	p := floorplan.Grid(16, 1, 1, 0.2)
	a, err := FromDecomposition("aes-custom", acg, d, p)
	if err != nil {
		t.Fatal(err)
	}
	// 4 column gossip rings (4 links each) + 2 row loops (4 links each) +
	// row 3 swaps (2 bidirectional links) = 16 + 8 + 2 = 26 links.
	if got := a.LinkCount(); got != 26 {
		t.Fatalf("links = %d, want 26\n%s", got, a.Describe())
	}
	if !a.Connected() {
		t.Fatal("customized architecture disconnected")
	}
	// Every ACG traffic pair must have a preferred route.
	for _, e := range acg.Edges() {
		r, ok := a.PreferredRoute(e.From, e.To)
		if !ok {
			t.Fatalf("no route for %d->%d", e.From, e.To)
		}
		if r[0] != e.From || r[len(r)-1] != e.To {
			t.Fatalf("malformed route %v", r)
		}
		for i := 0; i+1 < len(r); i++ {
			if !a.HasLink(r[i], r[i+1]) {
				t.Fatalf("route %v off-architecture", r)
			}
		}
	}
	// The mesh has 24 links; the custom architecture is in the same
	// ballpark (the paper notes both AES designs used ~32% of the FPGA).
	mesh, _ := Mesh(4, 4, p)
	if a.LinkCount() > 2*mesh.LinkCount() {
		t.Fatalf("custom architecture far larger than mesh: %d vs %d links",
			a.LinkCount(), mesh.LinkCount())
	}
}

func TestFromDecompositionDemandAggregation(t *testing.T) {
	acg, d := solveAES(t)
	a, err := FromDecomposition("aes", acg, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Total demand over links >= total ACG bandwidth (relayed flows count
	// on every hop they traverse).
	var total float64
	for _, l := range a.Links() {
		total += l.DemandMbps
	}
	if total < acg.TotalBandwidth() {
		t.Fatalf("aggregated demand %g below ACG bandwidth %g", total, acg.TotalBandwidth())
	}
}

func TestFromDecompositionNilArgs(t *testing.T) {
	if _, err := FromDecomposition("x", nil, nil, nil); err == nil {
		t.Fatal("nil args accepted")
	}
}

func TestGraphViewHalvesDemand(t *testing.T) {
	a := New("t", graph.Range(1, 2), nil)
	if err := a.AddLink(1, 2, 10); err != nil {
		t.Fatal(err)
	}
	g := a.Graph()
	e1, _ := g.EdgeBetween(1, 2)
	e2, _ := g.EdgeBetween(2, 1)
	if e1.Bandwidth+e2.Bandwidth != 10 {
		t.Fatalf("directed view bandwidths = %g + %g, want sum 10", e1.Bandwidth, e2.Bandwidth)
	}
}

func TestDescribeAndDOT(t *testing.T) {
	a, _ := Mesh(2, 2, nil)
	d := a.Describe()
	if !strings.Contains(d, "4 nodes") || !strings.Contains(d, "4 links") {
		t.Fatalf("describe = %q", d)
	}
	dot := a.DOT()
	if !strings.Contains(dot, "n1 -- n2") {
		t.Fatalf("dot = %q", dot)
	}
}

func TestTotalWireLength(t *testing.T) {
	p := floorplan.Grid(4, 1, 1, 0) // pitch 1.0
	a := New("t", graph.Range(1, 4), p)
	a.AddLink(1, 2, 0) // length 1
	a.AddLink(1, 4, 0) // 1,4: (0,0) to (1,1) -> manhattan 2
	if got := a.TotalWireLengthMM(); got != 3 {
		t.Fatalf("wire length = %g, want 3", got)
	}
}
