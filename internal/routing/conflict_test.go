package routing

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// conflictArch is a 7-node architecture carrying two preferred routes
// toward node 4, the second of which conflicts with the first at node 2.
func conflictArch(t testing.TB) *topology.Architecture {
	t.Helper()
	arch := topology.New("conflict", graph.Range(1, 7), nil)
	for _, l := range [][2]graph.NodeID{{1, 2}, {2, 3}, {3, 4}, {2, 5}, {4, 5}, {2, 6}, {6, 7}, {4, 7}, {4, 6}} {
		if err := arch.AddLink(l[0], l[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][]graph.NodeID{{1, 2, 3, 4}, {5, 2, 6, 7, 4}} {
		if err := arch.SetPreferredRoute(r); err != nil {
			t.Fatal(err)
		}
	}
	return arch
}

// TestBuildConflictingPreferredRouteKeepsPrefix pins what Build does when
// a preferred route's suffix conflicts with an earlier one, hop by hop.
// Route A (1→4) = 1-2-3-4 is installed first. Route B (5→4) = 5-2-6-7-4
// installs its first hop 5→2, then conflicts at node 2 (A already sends
// 2 toward 4 via 3). B's install stops there: 5→2 stays, so 5 reaches 4
// over A's suffix even though the direct 5-4 link is shorter, and the
// rest of B (6→7, 7→4) is never installed — 6 is completed by shortest
// path over the direct 6-4 link.
func TestBuildConflictingPreferredRouteKeepsPrefix(t *testing.T) {
	arch := conflictArch(t)
	table, err := Build(arch)
	if err != nil {
		t.Fatal(err)
	}
	hops := []struct {
		node, next graph.NodeID
		why        string
	}{
		{1, 2, "route A, first hop"},
		{2, 3, "route A, kept against B's 2→6"},
		{3, 4, "route A, last hop"},
		{5, 2, "route B's hop before the conflict stays (shortest path would take 5-4)"},
		{6, 4, "route B's remainder (6→7) is not installed; shortest path takes 6-4"},
		{7, 4, "shortest path"},
	}
	for _, h := range hops {
		got, ok := table.NextHop(h.node, 4)
		if !ok || got != h.next {
			t.Errorf("next hop at %d toward 4 = %d (%v), want %d: %s", h.node, got, ok, h.next, h.why)
		}
	}
	for src, want := range map[graph.NodeID][]graph.NodeID{
		1: {1, 2, 3, 4},
		5: {5, 2, 3, 4},
		6: {6, 4},
		7: {7, 4},
	} {
		got, err := table.Route(src, 4)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("Route(%d, 4) = %v, %v; want %v", src, got, err, want)
		}
	}
	// Without preferred routes every node takes its shortest path.
	sp, err := BuildShortestPath(arch)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := sp.NextHop(5, 4); got != 4 {
		t.Errorf("shortest-path next hop at 5 toward 4 = %d, want 4", got)
	}
}
