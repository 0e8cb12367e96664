package tgff

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestGenerateBasicShape(t *testing.T) {
	g, err := Generate(DefaultConfig(18, 1))
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() != 18 {
		t.Fatalf("nodes = %d", g.NodeCount())
	}
	if g.EdgeCount() < 17 {
		t.Fatalf("edges = %d, too few for connectivity", g.EdgeCount())
	}
	if !g.WeaklyConnected() {
		t.Fatal("graph disconnected")
	}
	if g.FindDirectedCycle() != nil {
		t.Fatal("task graph must be a DAG")
	}
}

func TestGenerateRespectsFanBounds(t *testing.T) {
	cfg := DefaultConfig(20, 3)
	cfg.MaxOut = 2
	cfg.MaxIn = 2
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes() {
		if g.OutDegree(n) > cfg.MaxOut {
			t.Fatalf("node %d out-degree %d > %d", n, g.OutDegree(n), cfg.MaxOut)
		}
		// Fan-in bound applies to the extra edges; the mandatory
		// connectivity parent can exceed it by at most a small factor.
		if g.InDegree(n) > cfg.MaxIn+1 {
			t.Fatalf("node %d in-degree %d", n, g.InDegree(n))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(DefaultConfig(12, 9))
	b, _ := Generate(DefaultConfig(12, 9))
	if !graph.Equal(a, b) {
		t.Fatal("same seed produced different graphs")
	}
	c, _ := Generate(DefaultConfig(12, 10))
	if graph.Equal(a, c) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Nodes: 1, MaxOut: 1, MaxIn: 1}); err == nil {
		t.Fatal("1-node accepted")
	}
	if _, err := Generate(Config{Nodes: 5, MaxOut: 0, MaxIn: 1}); err == nil {
		t.Fatal("zero fan-out accepted")
	}
	cfg := DefaultConfig(5, 1)
	cfg.VolumeMin, cfg.VolumeMax = 10, 1
	if _, err := Generate(cfg); err == nil {
		t.Fatal("inverted volumes accepted")
	}
}

func TestGenerateVolumesInRange(t *testing.T) {
	cfg := DefaultConfig(15, 4)
	g, _ := Generate(cfg)
	for _, e := range g.Edges() {
		if e.Volume < cfg.VolumeMin || e.Volume > cfg.VolumeMax {
			t.Fatalf("edge %v volume out of range", e)
		}
		if e.Bandwidth <= 0 {
			t.Fatalf("edge %v bandwidth not positive", e)
		}
	}
}

// Property: all generated graphs are connected DAGs of the right size.
func TestPropertyAlwaysConnectedDAG(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 2 + int(sz%17)
		g, err := Generate(DefaultConfig(n, seed))
		if err != nil {
			return false
		}
		return g.NodeCount() == n && g.WeaklyConnected() && g.FindDirectedCycle() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
