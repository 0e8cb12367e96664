package iso

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/primitives"
)

func randomTarget(n int, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New("target")
	for i := 1; i <= n; i++ {
		g.AddNode(graph.NodeID(i))
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			if i != j && rng.Float64() < p {
				g.SetEdge(graph.Edge{From: graph.NodeID(i), To: graph.NodeID(j)})
			}
		}
	}
	return g
}

func mappingsEqual(a, b []Mapping) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		pa, pb := a[i].Pairs(), b[i].Pairs()
		if len(pa) != len(pb) {
			return false
		}
		for k := range pa {
			if pa[k] != pb[k] {
				return false
			}
		}
	}
	return true
}

// The frozen CSR search must return byte-identical mapping lists, in the
// same order, as the map-graph search, for every library pattern against
// seeded random targets.
func TestFindAllFrozenMatchesFindAll(t *testing.T) {
	lib := primitives.MustDefault()
	for seed := int64(0); seed < 10; seed++ {
		target := randomTarget(10, 0.3, seed)
		ft := target.Freeze()
		for _, prim := range lib.Primitives() {
			want, werr := FindAll(prim.Rep, target, Options{})
			got, gerr := FindAllFrozen(prim.Rep.Freeze(), ft, nil, Options{})
			if werr != gerr {
				t.Fatalf("seed %d %s: err %v vs %v", seed, prim.Name, werr, gerr)
			}
			if !mappingsEqual(want, got) {
				t.Fatalf("seed %d %s: %d mappings vs %d, or order differs",
					seed, prim.Name, len(want), len(got))
			}
		}
	}
}

// A masked frozen search must equal the map search over the materialized
// subtracted graph — the exact substitution the solver performs at every
// decomposition-tree node.
func TestFindAllFrozenMaskMatchesSubtractedGraph(t *testing.T) {
	lib := primitives.MustDefault()
	for seed := int64(0); seed < 10; seed++ {
		target := randomTarget(10, 0.35, 50+seed)
		ft := target.Freeze()
		rng := rand.New(rand.NewSource(99 + seed))
		mask := graph.FullEdgeMask(ft.EdgeCount())
		for e := 0; e < ft.EdgeCount(); e++ {
			if rng.Float64() < 0.3 {
				mask.Clear(e)
			}
		}
		sub := ft.Materialize(mask)
		for _, prim := range lib.Primitives() {
			want, _ := FindAll(prim.Rep, sub, Options{})
			got, _ := FindAllFrozen(prim.Rep.Freeze(), ft, mask, Options{})
			if !mappingsEqual(want, got) {
				t.Fatalf("seed %d %s: masked search differs from subtracted graph",
					seed, prim.Name)
			}
		}
	}
}

// Limits must behave identically on both representations.
func TestFindAllFrozenOptionsParity(t *testing.T) {
	lib := primitives.MustDefault()
	target := randomTarget(9, 0.4, 7)
	ft := target.Freeze()
	for _, prim := range lib.Primitives() {
		fp := prim.Rep.Freeze()
		for _, opts := range []Options{{}, {Limit: 1}, {Limit: 5}} {
			want, _ := FindAll(prim.Rep, target, opts)
			got, _ := FindAllFrozen(fp, ft, nil, opts)
			if !mappingsEqual(want, got) {
				t.Fatalf("%s %+v: representations disagree", prim.Name, opts)
			}
		}
	}
}
