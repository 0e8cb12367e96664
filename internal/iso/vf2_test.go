package iso

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/graph"
)

// validateMonomorphism checks that m is injective and embeds every pattern
// edge into the target.
func validateMonomorphism(t *testing.T, pattern, target *graph.Graph, m Mapping) {
	t.Helper()
	if len(m) != pattern.NodeCount() {
		t.Fatalf("mapping covers %d of %d pattern vertices", len(m), pattern.NodeCount())
	}
	seen := map[graph.NodeID]bool{}
	for _, v := range m {
		if seen[v] {
			t.Fatalf("mapping not injective: %v", m)
		}
		seen[v] = true
		if !target.HasNode(v) {
			t.Fatalf("mapped to missing target vertex %d", v)
		}
	}
	for _, e := range pattern.Edges() {
		if !target.HasEdge(m[e.From], m[e.To]) {
			t.Fatalf("pattern edge %v not embedded (%d->%d missing)", e, m[e.From], m[e.To])
		}
	}
}

func TestTriangleInK4(t *testing.T) {
	pattern := graph.DirectedCycle("c3", graph.Range(1, 3), 0, 0)
	target := graph.CompleteDigraph("k4", graph.Range(1, 4), 0, 0)
	ms, _ := FindAll(pattern, target, Options{Limit: 1})
	if len(ms) == 0 {
		t.Fatal("no matching found")
	}
	validateMonomorphism(t, pattern, target, ms[0])
}

func TestCountTriangleMatchesInK4(t *testing.T) {
	pattern := graph.DirectedCycle("c3", graph.Range(1, 3), 0, 0)
	target := graph.CompleteDigraph("k4", graph.Range(1, 4), 0, 0)
	ms, err := FindAll(pattern, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Directed 3-cycles in K4: choose 3 of 4 vertices (4 ways), each set
	// yields 2 directed cycles, each cycle has 3 rotations as distinct
	// mappings: 4*2*3 = 24.
	if len(ms) != 24 {
		t.Fatalf("found %d matchings, want 24", len(ms))
	}
	for _, m := range ms {
		validateMonomorphism(t, pattern, target, m)
	}
}

func TestNoMatchWhenPatternLarger(t *testing.T) {
	pattern := graph.CompleteDigraph("k5", graph.Range(1, 5), 0, 0)
	target := graph.CompleteDigraph("k4", graph.Range(1, 4), 0, 0)
	if ms, _ := FindAll(pattern, target, Options{Limit: 1}); len(ms) > 0 {
		t.Fatal("K5 cannot embed in K4")
	}
}

func TestNoMatchWrongDirection(t *testing.T) {
	pattern := graph.New("p")
	pattern.SetEdge(graph.Edge{From: 1, To: 2})
	target := graph.New("t")
	target.SetEdge(graph.Edge{From: 2, To: 1})
	target.AddNode(3)
	ms, _ := FindAll(pattern, target, Options{})
	// Edge 2->1 in the target can host the pattern edge with mapping
	// {1:2, 2:1}; verify orientation is respected, not ignored.
	for _, m := range ms {
		validateMonomorphism(t, pattern, target, m)
	}
	if len(ms) != 1 {
		t.Fatalf("found %d matchings, want exactly 1", len(ms))
	}
}

func TestEmptyPatternNoMatch(t *testing.T) {
	pattern := graph.New("p")
	target := graph.CompleteDigraph("k3", graph.Range(1, 3), 0, 0)
	if ms, _ := FindAll(pattern, target, Options{Limit: 1}); len(ms) > 0 {
		t.Fatal("empty pattern should not match")
	}
}

func TestPathInPath(t *testing.T) {
	pattern := graph.DirectedPath("p3", graph.Range(1, 3), 0, 0)
	target := graph.DirectedPath("p5", graph.Range(1, 5), 0, 0)
	ms, err := FindAll(pattern, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// P3 (2 edges) embeds in P5 (4 edges) at 3 offsets.
	if len(ms) != 3 {
		t.Fatalf("found %d matchings, want 3", len(ms))
	}
}

func TestCycleNotInPath(t *testing.T) {
	pattern := graph.DirectedCycle("c3", graph.Range(1, 3), 0, 0)
	target := graph.DirectedPath("p6", graph.Range(1, 6), 0, 0)
	if ms, _ := FindAll(pattern, target, Options{Limit: 1}); len(ms) > 0 {
		t.Fatal("cycle cannot embed in path")
	}
}

func TestMonomorphismAllowsExtraTargetEdges(t *testing.T) {
	// Pattern: path 1->2->3. Target: triangle (has extra closing edge).
	pattern := graph.DirectedPath("p3", graph.Range(1, 3), 0, 0)
	target := graph.DirectedCycle("c3", graph.Range(1, 3), 0, 0)
	if ms, _ := FindAll(pattern, target, Options{Limit: 1}); len(ms) == 0 {
		t.Fatal("monomorphism should allow extra target edges")
	}
}

func TestLimit(t *testing.T) {
	pattern := graph.DirectedCycle("c3", graph.Range(1, 3), 0, 0)
	target := graph.CompleteDigraph("k5", graph.Range(1, 5), 0, 0)
	ms, err := FindAll(pattern, target, Options{Limit: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 7 {
		t.Fatalf("limit ignored: got %d matchings", len(ms))
	}
}

func TestDeadlineAborts(t *testing.T) {
	// A pattern guaranteed absent from a large dense target forces the
	// search to exhaust permutations; an already-expired deadline must
	// abort immediately with ErrDeadline.
	pattern := graph.CompleteDigraph("k9", graph.Range(1, 9), 0, 0)
	target := graph.New("t")
	for i := 1; i <= 40; i++ {
		for j := 1; j <= 40; j++ {
			if i != j && (i+j)%2 == 0 {
				target.SetEdge(graph.Edge{From: graph.NodeID(i), To: graph.NodeID(j)})
			}
		}
	}
	start := time.Now()
	_, err := FindAll(pattern, target, Options{Deadline: time.Now().Add(5 * time.Millisecond)})
	elapsed := time.Since(start)
	if err != ErrDeadline {
		// The search may legitimately finish fast if pruning is strong;
		// only fail if it took long AND did not report the deadline.
		if elapsed > time.Second {
			t.Fatalf("deadline not honored: err=%v elapsed=%v", err, elapsed)
		}
	}
	if elapsed > 2*time.Second {
		t.Fatalf("search ran %v despite 5ms deadline", elapsed)
	}
}

func TestDisconnectedPattern(t *testing.T) {
	// Two disjoint edges as pattern.
	pattern := graph.New("p")
	pattern.SetEdge(graph.Edge{From: 1, To: 2})
	pattern.SetEdge(graph.Edge{From: 3, To: 4})
	target := graph.New("t")
	target.SetEdge(graph.Edge{From: 10, To: 11})
	target.SetEdge(graph.Edge{From: 20, To: 21})
	ms, err := FindAll(pattern, target, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Each pattern edge can map to either target edge: 2 assignments.
	if len(ms) != 2 {
		t.Fatalf("found %d matchings, want 2", len(ms))
	}
	for _, m := range ms {
		validateMonomorphism(t, pattern, target, m)
	}
}

func TestStarRequiresOutDegree(t *testing.T) {
	pattern := graph.Star("s", 1, []graph.NodeID{2, 3, 4}, 0, 0)
	target := graph.DirectedCycle("c5", graph.Range(1, 5), 0, 0)
	if ms, _ := FindAll(pattern, target, Options{Limit: 1}); len(ms) > 0 {
		t.Fatal("out-degree-3 star cannot embed in a cycle")
	}
}

func TestGossip4InAESColumn(t *testing.T) {
	// The AES ACG maps column {1,5,9,13} to a gossip-4; reproduce that
	// matching situation: target has K4 on those vertices plus noise.
	pattern := graph.CompleteDigraph("mgg4", graph.Range(1, 4), 0, 0)
	target := graph.CompleteDigraph("col", []graph.NodeID{1, 5, 9, 13}, 0, 0)
	target.SetEdge(graph.Edge{From: 5, To: 6})
	target.SetEdge(graph.Edge{From: 6, To: 7})
	ms, _ := FindAll(pattern, target, Options{Limit: 1})
	if len(ms) == 0 {
		t.Fatal("gossip-4 not found in column")
	}
	validateMonomorphism(t, pattern, target, ms[0])
	for _, v := range ms[0] {
		if v == 6 || v == 7 {
			t.Fatalf("matching used noise vertex: %v", ms[0])
		}
	}
}

func TestMappingPairsSorted(t *testing.T) {
	m := Mapping{3: 30, 1: 10, 2: 20}
	p := m.Pairs()
	if p[0][0] != 1 || p[1][0] != 2 || p[2][0] != 3 {
		t.Fatalf("Pairs not sorted: %v", p)
	}
}

func TestMappingClone(t *testing.T) {
	m := Mapping{1: 10}
	c := m.Clone()
	c[1] = 99
	if m[1] != 10 {
		t.Fatal("Clone shares storage")
	}
}

// Property: every matching returned on random instances is a valid
// monomorphism, and the matcher agrees with brute force on small cases.
func TestPropertyMatchingsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pattern := randomGraph(rng, 2+rng.Intn(3), 0.5, "p")
		target := randomGraph(rng, 5+rng.Intn(4), 0.4, "t")
		if pattern.EdgeCount() == 0 {
			return true
		}
		ms, err := FindAll(pattern, target, Options{})
		if err != nil {
			return false
		}
		for _, m := range ms {
			if len(m) != pattern.NodeCount() {
				return false
			}
			used := map[graph.NodeID]bool{}
			for _, v := range m {
				if used[v] {
					return false
				}
				used[v] = true
			}
			for _, e := range pattern.Edges() {
				if !target.HasEdge(m[e.From], m[e.To]) {
					return false
				}
			}
		}
		return len(ms) == bruteForceCount(pattern, target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// bruteForceCount counts monomorphisms by trying every injective vertex
// assignment. Only viable for tiny patterns.
func bruteForceCount(pattern, target *graph.Graph) int {
	pNodes := pattern.Nodes()
	tNodes := target.Nodes()
	count := 0
	used := make(map[graph.NodeID]bool)
	assign := make(Mapping)
	var rec func(i int)
	rec = func(i int) {
		if i == len(pNodes) {
			for _, e := range pattern.Edges() {
				if !target.HasEdge(assign[e.From], assign[e.To]) {
					return
				}
			}
			count++
			return
		}
		for _, tv := range tNodes {
			if used[tv] {
				continue
			}
			used[tv] = true
			assign[pNodes[i]] = tv
			rec(i + 1)
			delete(assign, pNodes[i])
			used[tv] = false
		}
	}
	rec(0)
	return count
}

func randomGraph(rng *rand.Rand, n int, p float64, name string) *graph.Graph {
	g := graph.New(name)
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
