package routing

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/floorplan"
	"repro/internal/graph"
	"repro/internal/primitives"
	"repro/internal/topology"
)

// referenceShortestPathTable is the pre-CSR construction: one map-graph
// Dijkstra per ordered pair, first hop installed. The CSR per-source
// builds must reproduce it byte for byte.
func referenceShortestPathTable(t *testing.T, arch *topology.Architecture) Table {
	t.Helper()
	tab := newTable(arch.Nodes())
	g := arch.Graph()
	w := func(e graph.Edge) float64 {
		if l, ok := arch.LinkBetween(e.From, e.To); ok {
			return l.LengthMM
		}
		return 1
	}
	nodes := arch.Nodes()
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			path, _, ok := g.ShortestPath(src, dst, w)
			if !ok {
				t.Fatalf("reference: no path %d -> %d", src, dst)
			}
			if err := tab.set(src, dst, path[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tab
}

// tablesEqual reports whether two tables hold the same (node, dst, next)
// entries, compared through their canonical hop lists.
func tablesEqual(a, b Table) bool {
	ja, errA := a.MarshalJSON()
	jb, errB := b.MarshalJSON()
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

// randomArch builds a connected random architecture with a floorplan (so
// link lengths differ and weighted tie-breaks are exercised): a spanning
// tree plus random chords.
func randomArch(t *testing.T, n int, seed int64) *topology.Architecture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	placement := floorplan.Grid(n, 1, 1, 0.2)
	ids := graph.Range(1, graph.NodeID(n))
	arch := topology.New("rand", ids, placement)
	for i := 1; i < n; i++ {
		if err := arch.AddLink(ids[rng.Intn(i)], ids[i], 10); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < n; k++ {
		u, v := ids[rng.Intn(n)], ids[rng.Intn(n)]
		if u == v {
			continue
		}
		if err := arch.AddLink(u, v, 5); err != nil {
			t.Fatal(err)
		}
	}
	return arch
}

// BuildShortestPath over the CSR must equal the per-pair map-graph
// reference on meshes and random floorplanned architectures.
func TestBuildShortestPathMatchesReference(t *testing.T) {
	arches := []*topology.Architecture{meshArch(t, 4, 4)}
	for seed := int64(0); seed < 6; seed++ {
		arches = append(arches, randomArch(t, 10, seed))
	}
	for i, arch := range arches {
		got, err := BuildShortestPath(arch)
		if err != nil {
			t.Fatalf("arch %d: %v", i, err)
		}
		want := referenceShortestPathTable(t, arch)
		if !tablesEqual(got, want) {
			t.Fatalf("arch %d: CSR table differs from per-pair reference", i)
		}
	}
}

// Build (preferred routes + shortest-path completion) on a synthesized
// architecture must route every pair, honor the schedule routes, and the
// completion hops must agree with the reference Dijkstra's first hops.
func TestBuildOnSynthesizedArchMatchesReference(t *testing.T) {
	acg := graph.CompleteDigraph("k4", graph.Range(1, 4), 8, 1)
	acg.AddEdge(graph.Edge{From: 1, To: 5, Volume: 8, Bandwidth: 1})
	res, err := core.Solve(core.Problem{
		ACG:     acg,
		Library: primitives.MustDefault(),
		Energy:  energy.Tech180,
		Options: core.Options{Mode: core.CostLinks, Timeout: 30 * time.Second},
	})
	if err != nil || res.Best == nil {
		t.Fatalf("solve: %v", err)
	}
	arch, err := topology.FromDecomposition("custom", acg, res.Best, floorplan.Grid(5, 1, 1, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	table, err := Build(arch)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(table, arch); err != nil {
		t.Fatal(err)
	}
	// Rebuild with the reference completion: install the same preferred
	// routes, then complete per pair with map-graph Dijkstra first hops.
	want := newTable(arch.Nodes())
	for _, pair := range arch.PreferredPairs() {
		route, _ := arch.PreferredRoute(pair[0], pair[1])
		if err := want.installPath(route); err != nil {
			continue
		}
	}
	g := arch.Graph()
	w := func(e graph.Edge) float64 {
		if l, ok := arch.LinkBetween(e.From, e.To); ok {
			return l.LengthMM
		}
		return 1
	}
	for _, src := range arch.Nodes() {
		for _, dst := range arch.Nodes() {
			if src == dst {
				continue
			}
			if _, ok := want.NextHop(src, dst); ok {
				continue
			}
			path, _, ok := g.ShortestPath(src, dst, w)
			if !ok {
				t.Fatalf("reference: no path %d -> %d", src, dst)
			}
			if err := want.set(src, dst, path[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !tablesEqual(table, want) {
		t.Fatal("Build differs from preferred+reference completion")
	}
}
