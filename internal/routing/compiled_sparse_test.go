package routing

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// equivalenceArchs returns three topology families with their route
// tables: a 4x4 mesh under XY, a star and a chorded ring under the
// shortest-path Build. Together they cover regular grids, hub-dominated
// and irregular multi-path shapes.
func equivalenceArchs(t *testing.T) map[string]struct {
	arch  *topology.Architecture
	table Table
} {
	t.Helper()
	out := make(map[string]struct {
		arch  *topology.Architecture
		table Table
	})

	mesh, err := topology.Mesh(4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	xy, err := XY(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	out["mesh4x4"] = struct {
		arch  *topology.Architecture
		table Table
	}{mesh, xy}

	star := topology.New("star", graph.Range(1, 8), nil)
	for i := graph.NodeID(2); i <= 8; i++ {
		if err := star.AddLink(1, i, 0); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Build(star)
	if err != nil {
		t.Fatal(err)
	}
	out["star"] = struct {
		arch  *topology.Architecture
		table Table
	}{star, st}

	ring := topology.New("chordring", graph.Range(1, 10), nil)
	for i := 1; i <= 10; i++ {
		if err := ring.AddLink(graph.NodeID(i), graph.NodeID(i%10+1), 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, chord := range [][2]graph.NodeID{{1, 6}, {3, 8}} {
		if err := ring.AddLink(chord[0], chord[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	rt, err := Build(ring)
	if err != nil {
		t.Fatal(err)
	}
	out["chordring"] = struct {
		arch  *topology.Architecture
		table Table
	}{ring, rt}

	return out
}

func plansEqual(ar []graph.NodeID, av []uint8, as []int32, br []graph.NodeID, bv []uint8, bs []int32) bool {
	if len(ar) != len(br) {
		return false
	}
	for i := range ar {
		if ar[i] != br[i] || av[i] != bv[i] || as[i] != bs[i] {
			return false
		}
	}
	return true
}

// TestCompileTablePairsMatchesDense is the demand-vs-complete equivalence
// property: for the same route source and the same VC assignment, every
// demanded pair's plan is byte-identical to the complete CompileTable
// compile, across three topology families. Pairs outside the demand
// resolve through the lazy fallback to the same plan the complete table
// holds.
func TestCompileTablePairsMatchesDense(t *testing.T) {
	for name, tc := range equivalenceArchs(t) {
		vc, err := AssignVirtualChannels(tc.table, tc.arch, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dense, err := CompileTable(tc.table, tc.arch, vc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := dense.NodeCount()

		// Demand roughly half the pairs, deterministically scattered.
		demand := NewPairSet(n)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s != d && (s*7+d*3)%2 == 0 {
					demand.Add(s, d)
				}
			}
		}
		sparse, err := CompileTablePairs(tc.table, tc.arch, vc, demand)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sparse.PairCount() == n*(n-1) {
			t.Fatalf("%s: sparse table reports all pairs", name)
		}
		if sparse.PairCount() != demand.Len() {
			t.Fatalf("%s: pair count %d != demand %d", name, sparse.PairCount(), demand.Len())
		}
		if sparse.NumVCs() != dense.NumVCs() {
			t.Fatalf("%s: NumVCs %d != %d", name, sparse.NumVCs(), dense.NumVCs())
		}

		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				wr, wv, ws, ok := dense.PlanByIndex(s, d)
				if !ok {
					t.Fatalf("%s: dense has no plan %d->%d", name, s, d)
				}
				if demand.Contains(s, d) {
					gr, gv, gs, ok := sparse.PlanByIndex(s, d)
					if !ok {
						t.Fatalf("%s: demanded pair %d->%d missing from sparse index", name, s, d)
					}
					if !plansEqual(gr, gv, gs, wr, wv, ws) {
						t.Fatalf("%s: %d->%d sparse plan (%v,%v,%v) != dense (%v,%v,%v)",
							name, s, d, gr, gv, gs, wr, wv, ws)
					}
					continue
				}
				if _, _, _, ok := sparse.PlanByIndex(s, d); ok {
					t.Fatalf("%s: undemanded pair %d->%d present in sparse index", name, s, d)
				}
				gr, gv, gs, miss, ok := sparse.PlanByIndexLazy(s, d)
				if !ok || !miss {
					t.Fatalf("%s: lazy %d->%d miss=%v ok=%v", name, s, d, miss, ok)
				}
				if !plansEqual(gr, gv, gs, wr, wv, ws) {
					t.Fatalf("%s: %d->%d lazy plan (%v,%v,%v) != dense (%v,%v,%v)",
						name, s, d, gr, gv, gs, wr, wv, ws)
				}
			}
		}
		if sparse.LazyCompiles() == 0 {
			t.Fatalf("%s: lazy fallback never compiled", name)
		}

		// Nil, all-pairs and an explicitly complete demand all compile
		// the complete table: same fingerprint, no lazy resolver.
		full := NewPairSet(n)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				full.Add(s, d)
			}
		}
		for _, p := range []*PairSet{nil, AllPairs(n), full} {
			d2, err := CompileTablePairs(tc.table, tc.arch, vc, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if d2.PairCount() != n*(n-1) {
				t.Fatalf("%s: complete demand compiled %d pairs, want %d", name, d2.PairCount(), n*(n-1))
			}
			if d2.lazy != nil {
				t.Fatalf("%s: complete table carries a lazy resolver", name)
			}
			if d2.Fingerprint() != dense.Fingerprint() {
				t.Fatalf("%s: complete-demand fingerprint differs from CompileTable", name)
			}
		}
	}
}

// TestSparseFingerprintCoversDemand pins the pool-keying contract: the
// fingerprint separates dense from sparse layouts and distinguishes two
// different demand sets, while identical demand hashes identically.
func TestSparseFingerprintCoversDemand(t *testing.T) {
	arch, err := topology.Mesh(3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	table, err := XY(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := AssignVirtualChannels(table, arch, nil)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := CompileTable(table, arch, vc)
	if err != nil {
		t.Fatal(err)
	}
	a := NewPairSet(9)
	a.Add(0, 8)
	a.Add(3, 1)
	b := NewPairSet(9)
	b.Add(0, 8)
	sa, err := CompileTablePairs(table, arch, vc, a)
	if err != nil {
		t.Fatal(err)
	}
	sa2, err := CompileTablePairs(table, arch, vc, a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := CompileTablePairs(table, arch, vc, b)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Fingerprint() == dense.Fingerprint() {
		t.Fatal("sparse fingerprint collides with dense")
	}
	if sa.Fingerprint() == sb.Fingerprint() {
		t.Fatal("different demand sets share a fingerprint")
	}
	if sa.Fingerprint() != sa2.Fingerprint() {
		t.Fatal("identical demand sets hash differently")
	}
	if sa.MemoryFootprint() <= 0 || dense.MemoryFootprint() <= sa.MemoryFootprint() {
		t.Fatalf("footprints: dense %d, sparse %d", dense.MemoryFootprint(), sa.MemoryFootprint())
	}
}

// TestCompileTablePairsRejectsMismatchedDemand: a demand over a
// different node count fails, whatever its kind — all-pairs included.
func TestCompileTablePairsRejectsMismatchedDemand(t *testing.T) {
	arch, err := topology.Mesh(3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	table, err := XY(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := AssignVirtualChannels(table, arch, nil)
	if err != nil {
		t.Fatal(err)
	}
	sparse := NewPairSet(4)
	sparse.Add(0, 3)
	for _, p := range []*PairSet{AllPairs(4), sparse, NewPairSet(16)} {
		if _, err := CompileTablePairs(table, arch, vc, p); err == nil {
			t.Fatalf("demand over %d nodes (all=%v) compiled on a 9-node mesh", p.N(), p.All())
		}
	}
}

// TestLazyPlanCacheEviction bounds the fallback cache: with a tiny
// bound, compiles keep succeeding, repeated lookups of the same pair
// hit the cache, and residency never exceeds the bound.
func TestLazyPlanCacheEviction(t *testing.T) {
	arch, err := topology.Mesh(4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	table, err := XY(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := AssignVirtualChannels(table, arch, nil)
	if err != nil {
		t.Fatal(err)
	}
	demand := NewPairSet(16)
	demand.Add(0, 15)
	ct, err := CompileTablePairs(table, arch, vc, demand)
	if err != nil {
		t.Fatal(err)
	}
	const bound = lazyShardCount // one plan per shard
	ct.SetLazyBound(bound)

	// Demanded pair: indexed, no miss, no compile.
	if _, _, _, miss, ok := ct.PlanByIndexLazy(0, 15); !ok || miss {
		t.Fatalf("demanded pair: miss=%v ok=%v", miss, ok)
	}
	if ct.LazyCompiles() != 0 {
		t.Fatalf("indexed lookup compiled %d plans", ct.LazyCompiles())
	}

	// Same undemanded pair twice: one compile, second is a hit.
	if _, _, _, miss, ok := ct.PlanByIndexLazy(1, 2); !ok || !miss {
		t.Fatalf("lazy pair: miss=%v ok=%v", miss, ok)
	}
	if _, _, _, _, ok := ct.PlanByIndexLazy(1, 2); !ok {
		t.Fatal("second lookup failed")
	}
	if got := ct.LazyCompiles(); got != 1 {
		t.Fatalf("two lookups of one pair compiled %d plans", got)
	}

	// Sweep every pair; the cache must stay within the bound while all
	// lookups keep succeeding.
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			if _, _, _, _, ok := ct.PlanByIndexLazy(s, d); !ok {
				t.Fatalf("lazy plan %d->%d failed", s, d)
			}
			if got := ct.LazyCached(); got > bound {
				t.Fatalf("cache holds %d plans, bound %d", got, bound)
			}
		}
	}
	if ct.LazyCompiles() < int64(bound) {
		t.Fatalf("full sweep compiled only %d plans", ct.LazyCompiles())
	}

	// Evicted pairs recompile to the same plan.
	wr, wv, ws, _ := CompiledMustPlan(t, table, arch, vc, 1, 2)
	gr, gv, gs, _, ok := ct.PlanByIndexLazy(1, 2)
	if !ok || !plansEqual(gr, gv, gs, wr, wv, ws) {
		t.Fatalf("recompiled plan differs: (%v,%v,%v) != (%v,%v,%v)", gr, gv, gs, wr, wv, ws)
	}
}

// CompiledMustPlan compiles the dense table and returns one plan — a
// test helper for single-pair comparisons.
func CompiledMustPlan(t *testing.T, table Table, arch *topology.Architecture, vc VCAssignment, s, d int) ([]graph.NodeID, []uint8, []int32, bool) {
	t.Helper()
	dense, err := CompileTable(table, arch, vc)
	if err != nil {
		t.Fatal(err)
	}
	r, v, sl, ok := dense.PlanByIndex(s, d)
	if !ok {
		t.Fatalf("dense plan %d->%d missing", s, d)
	}
	return r, v, sl, ok
}
