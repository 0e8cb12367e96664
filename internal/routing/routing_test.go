package routing

import (
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/floorplan"
	"repro/internal/graph"
	"repro/internal/primitives"
	"repro/internal/topology"
)

func meshArch(t *testing.T, rows, cols int) *topology.Architecture {
	t.Helper()
	a, err := topology.Mesh(rows, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// mustTable builds a table from (node, dst, next) hop triples, over every
// node id they name.
func mustTable(t *testing.T, hops ...[3]graph.NodeID) Table {
	t.Helper()
	list := make([]jsonHop, len(hops))
	for i, h := range hops {
		list[i] = jsonHop{Node: h[0], Dst: h[1], Next: h[2]}
	}
	table, err := tableFromHops(list)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// withoutHop returns a copy of table with the (node, dst) entry removed.
func withoutHop(t *testing.T, table Table, node, dst graph.NodeID) Table {
	t.Helper()
	u, uok := table.index(node)
	d, dok := table.index(dst)
	if !uok || !dok {
		t.Fatalf("no entry %d->%d to remove", node, dst)
	}
	out := Table{ids: table.ids, next: slices.Clone(table.next)}
	out.next[d*len(out.ids)+u] = -1
	return out
}

func TestXYRoutingCompleteAndDeadlockFree(t *testing.T) {
	arch := meshArch(t, 4, 4)
	table, err := XY(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(table, arch); err != nil {
		t.Fatal(err)
	}
	free, err := DeadlockFree(table, arch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !free {
		t.Fatal("XY routing reported deadlock-prone")
	}
}

func TestXYRouteShape(t *testing.T) {
	table, _ := XY(4, 4)
	// 1 (r0,c0) to 16 (r3,c3): X first along row 0, then Y down column 3.
	path, err := table.Route(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.NodeID{1, 2, 3, 4, 8, 12, 16}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestXYAverageHopsMatchesMeshFormula(t *testing.T) {
	arch := meshArch(t, 4, 4)
	table, _ := XY(4, 4)
	avg, err := AverageHops(table, arch)
	if err != nil {
		t.Fatal(err)
	}
	// Mean Manhattan distance on a 4x4 grid over ordered distinct pairs:
	// E|dx| = E|dy| = (2*(3*1+2*2+1*3))/ (16*15/ ... ) — computed directly:
	var sum, cnt float64
	for a := 0; a < 16; a++ {
		for b := 0; b < 16; b++ {
			if a == b {
				continue
			}
			dx := abs(a%4 - b%4)
			dy := abs(a/4 - b/4)
			sum += float64(dx + dy)
			cnt++
		}
	}
	want := sum / cnt
	if absf(avg-want) > 1e-9 {
		t.Fatalf("avg hops = %g, want %g", avg, want)
	}
}

func TestBuildOnMeshIsCompleteAndValid(t *testing.T) {
	arch := meshArch(t, 3, 3)
	table, err := Build(arch)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(table, arch); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRejectsDisconnected(t *testing.T) {
	a := topology.New("disc", graph.Range(1, 4), nil)
	if err := a.AddLink(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.AddLink(3, 4, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(a); err == nil {
		t.Fatal("disconnected architecture accepted")
	}
	if _, err := Build(nil); err == nil {
		t.Fatal("nil architecture accepted")
	}
}

func TestTableRouteErrors(t *testing.T) {
	table := Table{}
	if _, err := table.Route(1, 2); err == nil {
		t.Fatal("missing entry not reported")
	}
	// Loop: 1 -> 2 -> 1.
	table = mustTable(t, [3]graph.NodeID{1, 3, 2}, [3]graph.NodeID{2, 3, 1})
	if _, err := table.Route(1, 3); err == nil {
		t.Fatal("loop not reported")
	}
	// Self route is trivially fine.
	p, err := table.Route(5, 5)
	if err != nil || len(p) != 1 {
		t.Fatalf("self route = %v, %v", p, err)
	}
}

func customAESArch(t *testing.T) (*topology.Architecture, *graph.Graph) {
	t.Helper()
	acg := graph.New("aes")
	for col := 1; col <= 4; col++ {
		ids := []graph.NodeID{graph.NodeID(col), graph.NodeID(col + 4), graph.NodeID(col + 8), graph.NodeID(col + 12)}
		for _, i := range ids {
			for _, j := range ids {
				if i != j {
					acg.AddEdge(graph.Edge{From: i, To: j, Volume: 8, Bandwidth: 1})
				}
			}
		}
	}
	for i := 0; i < 4; i++ {
		acg.AddEdge(graph.Edge{From: graph.NodeID(5 + i), To: graph.NodeID(5 + (i+1)%4), Volume: 8, Bandwidth: 1})
		acg.AddEdge(graph.Edge{From: graph.NodeID(13 + i), To: graph.NodeID(13 + (i+1)%4), Volume: 8, Bandwidth: 1})
	}
	for _, pr := range [][2]graph.NodeID{{9, 11}, {10, 12}} {
		acg.AddEdge(graph.Edge{From: pr[0], To: pr[1], Volume: 8, Bandwidth: 1})
		acg.AddEdge(graph.Edge{From: pr[1], To: pr[0], Volume: 8, Bandwidth: 1})
	}
	res, err := core.Solve(core.Problem{
		ACG:     acg,
		Library: primitives.MustDefault(),
		Energy:  energy.Tech180,
		Options: core.Options{Mode: core.CostLinks, Timeout: 30 * time.Second},
	})
	if err != nil || res.Best == nil {
		t.Fatalf("decompose failed: %v", err)
	}
	arch, err := topology.FromDecomposition("aes-custom", acg, res.Best, floorplan.Grid(16, 1, 1, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	return arch, acg
}

func TestBuildOnCustomAESArchitecture(t *testing.T) {
	arch, acg := customAESArch(t)
	table, err := Build(arch)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(table, arch); err != nil {
		t.Fatal(err)
	}
	// Preferred (schedule-derived) routes must be honored where installed:
	// each ACG pair's route must exist and stay within the architecture.
	for _, e := range acg.Edges() {
		path, err := table.Route(e.From, e.To)
		if err != nil {
			t.Fatalf("route %d->%d: %v", e.From, e.To, err)
		}
		if len(path) < 2 {
			t.Fatalf("degenerate path %v", path)
		}
	}
	// Diameter bound of Section 4.3: no route between communicating pairs
	// exceeds the library's largest implementation diameter (3 for the
	// default library) plus remainder direct links of 1.
	for _, e := range acg.Edges() {
		path, _ := table.Route(e.From, e.To)
		if len(path)-1 > 3 {
			t.Fatalf("ACG pair %d->%d routed in %d hops, exceeding library diameter",
				e.From, e.To, len(path)-1)
		}
	}
}

func TestChannelDependencyGraphOnRing(t *testing.T) {
	// A unidirectional ring routing pattern has a cyclic CDG.
	a := topology.New("ring", graph.Range(1, 4), nil)
	for i := 1; i <= 4; i++ {
		j := i%4 + 1
		if err := a.AddLink(graph.NodeID(i), graph.NodeID(j), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Force clockwise-only routing.
	table := newTable(graph.Range(1, 4))
	for i := 1; i <= 4; i++ {
		for d := 1; d <= 4; d++ {
			if i == d {
				continue
			}
			table.set(graph.NodeID(i), graph.NodeID(d), graph.NodeID(i%4+1))
		}
	}
	free, err := DeadlockFree(table, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if free {
		t.Fatal("clockwise ring should have a cyclic CDG")
	}
	// The dateline VC assignment must need exactly 2 VCs on a ring.
	vc, err := AssignVirtualChannels(table, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vc.NumVCs != 2 {
		t.Fatalf("ring VCs = %d, want 2", vc.NumVCs)
	}
}

func TestVCAssignmentAcyclicPerVC(t *testing.T) {
	arch, _ := customAESArch(t)
	table, err := Build(arch)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := AssignVirtualChannels(table, arch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vc.NumVCs < 1 {
		t.Fatalf("NumVCs = %d", vc.NumVCs)
	}
	// Property of the dateline scheme: along any route, the VC index is
	// non-decreasing and bounded by NumVCs-1.
	nodes := arch.Nodes()
	for _, s := range nodes {
		for _, d := range nodes {
			if s == d {
				continue
			}
			path, err := table.Route(s, d)
			if err != nil {
				t.Fatal(err)
			}
			prev := 0
			for hop := 0; hop+1 < len(path); hop++ {
				v := vc.VCForHop(path, hop)
				if v < prev || v >= vc.NumVCs {
					t.Fatalf("route %v hop %d: vc %d (prev %d, max %d)",
						path, hop, v, prev, vc.NumVCs)
				}
				prev = v
			}
		}
	}
}

func TestXYBadDims(t *testing.T) {
	if _, err := XY(0, 3); err == nil {
		t.Fatal("bad dims accepted")
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
