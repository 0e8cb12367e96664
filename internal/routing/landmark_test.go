package routing

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/randgraph"
	"repro/internal/topology"
)

func landmarkFamilies(t *testing.T) []struct {
	name string
	arch *topology.Architecture
} {
	t.Helper()
	fromGraph := func(g *graph.Graph) *topology.Architecture {
		arch := topology.New(g.Name(), g.Nodes(), nil)
		seen := make(map[[2]graph.NodeID]bool)
		for _, e := range g.Edges() {
			a, b := e.From, e.To
			if a > b {
				a, b = b, a
			}
			if a == b || seen[[2]graph.NodeID{a, b}] {
				continue
			}
			seen[[2]graph.NodeID{a, b}] = true
			if err := arch.AddLink(a, b, 0); err != nil {
				t.Fatal(err)
			}
		}
		return arch
	}
	mesh, err := topology.Mesh(5, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := randgraph.BarabasiAlbert(32, 2, 8, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	ring := topology.New("chordring", graph.Range(1, 12), nil)
	for i := 1; i <= 12; i++ {
		if err := ring.AddLink(graph.NodeID(i), graph.NodeID(i%12+1), 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, chord := range [][2]graph.NodeID{{1, 7}, {4, 10}} {
		if err := ring.AddLink(chord[0], chord[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	return []struct {
		name string
		arch *topology.Architecture
	}{
		{"mesh5x5", mesh},
		{"scalefree", fromGraph(ba)},
		{"chordring", ring},
	}
}

// TestLandmarkRoutesValid: every ordered pair routes, over architecture
// links only, endpoints exact, deterministically.
func TestLandmarkRoutesValid(t *testing.T) {
	for _, fam := range landmarkFamilies(t) {
		t.Run(fam.name, func(t *testing.T) {
			lr, err := NewLandmarkRouter(fam.arch, DefaultLandmarks)
			if err != nil {
				t.Fatal(err)
			}
			nodes := fam.arch.Nodes()
			for _, src := range nodes {
				for _, dst := range nodes {
					path, err := lr.Route(src, dst)
					if err != nil {
						t.Fatalf("%d->%d: %v", src, dst, err)
					}
					if path[0] != src || path[len(path)-1] != dst {
						t.Fatalf("%d->%d: endpoints %v", src, dst, path)
					}
					if src == dst && len(path) != 1 {
						t.Fatalf("self route %d: %v", src, path)
					}
					for i := 0; i+1 < len(path); i++ {
						if !fam.arch.HasLink(path[i], path[i+1]) {
							t.Fatalf("%d->%d uses missing link %d-%d", src, dst, path[i], path[i+1])
						}
					}
					again, err := lr.Route(src, dst)
					if err != nil || !reflect.DeepEqual(path, again) {
						t.Fatalf("%d->%d nondeterministic: %v vs %v (%v)", src, dst, path, again, err)
					}
				}
			}
		})
	}
}

// TestLandmarkSelection: landmarks are the top-degree nodes, ties to the
// lower index, and Trees reports the clamped count.
func TestLandmarkSelection(t *testing.T) {
	star := topology.New("star", graph.Range(1, 8), nil)
	for i := graph.NodeID(2); i <= 8; i++ {
		if err := star.AddLink(1, i, 0); err != nil {
			t.Fatal(err)
		}
	}
	lr, err := NewLandmarkRouter(star, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.NodeID{1, 2, 3} // hub first, then lowest-id leaves
	if got := lr.Landmarks(); !reflect.DeepEqual(got, want) {
		t.Fatalf("landmarks = %v, want %v", got, want)
	}
	if lr.Trees() != 3 {
		t.Fatalf("Trees() = %d", lr.Trees())
	}
	// Count above the node count clamps.
	small := topology.New("pair", graph.Range(1, 2), nil)
	if err := small.AddLink(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	lr2, err := NewLandmarkRouter(small, 10)
	if err != nil {
		t.Fatal(err)
	}
	if lr2.Trees() != 2 {
		t.Fatalf("clamped Trees() = %d, want 2", lr2.Trees())
	}
}

// TestLandmarkDeadlockFreePerVC: the traffic class assigned to each
// virtual channel (tree) has an acyclic channel dependency graph — the
// property the tree-index VC scheme claims for every tree.
func TestLandmarkDeadlockFreePerVC(t *testing.T) {
	for _, fam := range landmarkFamilies(t) {
		t.Run(fam.name, func(t *testing.T) {
			lr, err := NewLandmarkRouter(fam.arch, DefaultLandmarks)
			if err != nil {
				t.Fatal(err)
			}
			vc := lr.VCAssignment()
			if vc.NumVCs != lr.Trees() {
				t.Fatalf("NumVCs = %d, trees = %d", vc.NumVCs, lr.Trees())
			}
			nodes := fam.arch.Nodes()
			byVC := make([][][2]graph.NodeID, vc.NumVCs)
			for _, src := range nodes {
				for _, dst := range nodes {
					if src == dst {
						continue
					}
					route, err := lr.Route(src, dst)
					if err != nil {
						t.Fatal(err)
					}
					c := vc.VCForHop(route, 0)
					if c < 0 || c >= vc.NumVCs {
						t.Fatalf("%d->%d: VC %d outside [0,%d)", src, dst, c, vc.NumVCs)
					}
					// The VC must be constant along the route.
					for i := 0; i+1 < len(route); i++ {
						if got := vc.VCForHop(route, i); got != c {
							t.Fatalf("%d->%d: VC changes mid-route: hop %d has %d, hop 0 has %d",
								src, dst, i, got, c)
						}
					}
					byVC[c] = append(byVC[c], [2]graph.NodeID{src, dst})
				}
			}
			for c, pairs := range byVC {
				if len(pairs) == 0 {
					continue
				}
				free, err := DeadlockFree(lr, fam.arch, pairs)
				if err != nil {
					t.Fatal(err)
				}
				if !free {
					t.Fatalf("VC %d traffic class has a cyclic channel dependency graph", c)
				}
			}
		})
	}
}

// TestLandmarkStretch: landmark routes are longer than true shortest
// paths, but boundedly so — mean stretch stays under 1.6 on every
// family (roots at the best-connected nodes keep detours short).
func TestLandmarkStretch(t *testing.T) {
	for _, fam := range landmarkFamilies(t) {
		t.Run(fam.name, func(t *testing.T) {
			lr, err := NewLandmarkRouter(fam.arch, DefaultLandmarks)
			if err != nil {
				t.Fatal(err)
			}
			table, err := BuildShortestPath(fam.arch)
			if err != nil {
				t.Fatal(err)
			}
			nodes := fam.arch.Nodes()
			var lmHops, spHops int
			for _, src := range nodes {
				for _, dst := range nodes {
					if src == dst {
						continue
					}
					lp, err := lr.Route(src, dst)
					if err != nil {
						t.Fatal(err)
					}
					sp, err := table.Route(src, dst)
					if err != nil {
						t.Fatal(err)
					}
					if len(lp) < len(sp) {
						t.Fatalf("%d->%d: landmark route %d hops beats shortest path %d",
							src, dst, len(lp)-1, len(sp)-1)
					}
					lmHops += len(lp) - 1
					spHops += len(sp) - 1
				}
			}
			stretch := float64(lmHops) / float64(spHops)
			t.Logf("%s: mean stretch %.3f (%d vs %d total hops)", fam.name, stretch, lmHops, spHops)
			if stretch > 1.6 {
				t.Fatalf("mean stretch %.3f above bound 1.6", stretch)
			}
		})
	}
}

// TestLandmarkCompile: an empty-demand sparse compile over the landmark
// router resolves every pair through the lazy cache with in-range VCs.
func TestLandmarkCompile(t *testing.T) {
	fam := landmarkFamilies(t)[1] // scalefree
	lr, err := NewLandmarkRouter(fam.arch, DefaultLandmarks)
	if err != nil {
		t.Fatal(err)
	}
	n := len(fam.arch.Nodes())
	ct, err := CompileTablePairs(lr, fam.arch, lr.VCAssignment(), NewPairSet(n))
	if err != nil {
		t.Fatal(err)
	}
	if ct.PairCount() != 0 {
		t.Fatalf("expected empty sparse table, got pairs=%d", ct.PairCount())
	}
	if ct.NumVCs() != lr.Trees() {
		t.Fatalf("NumVCs = %d, want %d", ct.NumVCs(), lr.Trees())
	}
	ids := ct.Frozen().IDs()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			route, vcs, _, miss, ok := ct.PlanByIndexLazy(s, d)
			if !ok || !miss {
				t.Fatalf("%d->%d: lazy plan ok=%v miss=%v", ids[s], ids[d], ok, miss)
			}
			if route[0] != ids[s] || route[len(route)-1] != ids[d] {
				t.Fatalf("%d->%d: plan endpoints %v", ids[s], ids[d], route)
			}
			for _, v := range vcs {
				if int(v) >= ct.NumVCs() {
					t.Fatalf("%d->%d: VC %d outside table's %d lanes", ids[s], ids[d], v, ct.NumVCs())
				}
			}
		}
	}
	if got := ct.LazyCompiles(); got != int64(n*(n-1)) {
		t.Fatalf("lazy compiles %d, want %d", got, n*(n-1))
	}
}

// TestLandmarkDisconnected: a disconnected architecture is rejected with
// the typed sentinel.
func TestLandmarkDisconnected(t *testing.T) {
	arch := topology.New("split", graph.Range(1, 4), nil)
	if err := arch.AddLink(1, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := arch.AddLink(3, 4, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLandmarkRouter(arch, 2); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

// TestLandmarkDegreeOrderMatchesSort guards the selection rule against
// frozen-index reordering: recompute the expected top-degree list from
// the architecture's public link view.
func TestLandmarkDegreeOrderMatchesSort(t *testing.T) {
	fam := landmarkFamilies(t)[1] // scalefree
	deg := make(map[graph.NodeID]int)
	for _, l := range fam.arch.Links() {
		deg[l.A]++
		deg[l.B]++
	}
	nodes := append([]graph.NodeID(nil), fam.arch.Nodes()...)
	sort.Slice(nodes, func(i, j int) bool {
		if deg[nodes[i]] != deg[nodes[j]] {
			return deg[nodes[i]] > deg[nodes[j]]
		}
		return nodes[i] < nodes[j]
	})
	lr, err := NewLandmarkRouter(fam.arch, DefaultLandmarks)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := lr.Landmarks(), nodes[:DefaultLandmarks]; !reflect.DeepEqual(got, want) {
		t.Fatalf("landmarks %v, want top-degree %v", got, want)
	}
}
