package fft

import (
	"math/cmplx"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/floorplan"
	"repro/internal/graph"
	"repro/internal/noc"
	"repro/internal/primitives"
	"repro/internal/routing"
	"repro/internal/topology"
)

func meshNet16(t *testing.T) *noc.Network {
	t.Helper()
	arch, err := topology.Mesh(4, 4, floorplan.Grid(16, 1, 1, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	table, err := routing.XY(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := routing.AssignVirtualChannels(table, arch, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := noc.New(noc.DefaultConfig(), arch, table, vc)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func customNet16(t *testing.T) *noc.Network {
	t.Helper()
	acg, err := ACG(16, 128, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(core.Problem{
		ACG:       acg,
		Library:   primitives.MustDefault(),
		Placement: floorplan.Grid(16, 1, 1, 0.2),
		Energy:    energy.Tech180,
		Options:   core.Options{Mode: core.CostEnergy, Timeout: 60 * time.Second},
	})
	if err != nil || res.Best == nil {
		t.Fatalf("solve: %v", err)
	}
	arch, err := topology.FromDecomposition("fft-custom", acg, res.Best, floorplan.Grid(16, 1, 1, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	table, err := routing.Build(arch)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := routing.AssignVirtualChannels(table, arch, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := noc.New(noc.DefaultConfig(), arch, table, vc)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func randomSamples(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return x
}

func TestACGIsHypercube(t *testing.T) {
	g, err := ACG(16, 128, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Q4: 16 nodes x 4 neighbors = 64 directed edges.
	if g.NodeCount() != 16 || g.EdgeCount() != 64 {
		t.Fatalf("ACG: V=%d E=%d, want 16, 64", g.NodeCount(), g.EdgeCount())
	}
	for _, n := range g.Nodes() {
		if g.OutDegree(n) != 4 {
			t.Fatalf("node %d out-degree %d, want 4", n, g.OutDegree(n))
		}
	}
	if _, err := ACG(6, 128, 0.01); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
}

func TestDistributedOnMeshMatchesReferenceFFT(t *testing.T) {
	x := randomSamples(16, 7)
	want, err := Transform(x)
	if err != nil {
		t.Fatal(err)
	}
	net := meshNet16(t)
	res, err := TransformDistributed(net, x, DefaultDistConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		// The distributed run performs the same operations in the same
		// order, so outputs are bit-identical.
		if res.Output[k] != want[k] {
			t.Fatalf("bin %d: %v != %v", k, res.Output[k], want[k])
		}
	}
	// And both match the direct DFT to tolerance.
	dft := DFT(x)
	for k := range dft {
		if cmplx.Abs(res.Output[k]-dft[k]) > 1e-9 {
			t.Fatalf("bin %d deviates from DFT", k)
		}
	}
}

// MaxCycles bounds each transform's own run: a second 59-cycle transform
// on a mesh that already ran one fits a 69-cycle budget and reports its
// own duration.
func TestDistributedRepeatedOnOneNetwork(t *testing.T) {
	net := meshNet16(t)
	cfg := DefaultDistConfig()
	cfg.MaxCycles = 69
	x := randomSamples(16, 7)
	for run := 1; run <= 2; run++ {
		res, err := TransformDistributed(net, x, cfg)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if res.TotalCycles != 59 {
			t.Fatalf("run %d: %d cycles, want 59", run, res.TotalCycles)
		}
	}
}

func TestDistributedOnCustomTopologyMatchesFFT(t *testing.T) {
	x := randomSamples(16, 11)
	want, _ := Transform(x)
	net := customNet16(t)
	res, err := TransformDistributed(net, x, DefaultDistConfig())
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if res.Output[k] != want[k] {
			t.Fatalf("bin %d: %v != %v", k, res.Output[k], want[k])
		}
	}
}

func TestDistributedCustomNotSlowerThanMesh(t *testing.T) {
	x := randomSamples(16, 3)
	mesh := meshNet16(t)
	mres, err := TransformDistributed(mesh, x, DefaultDistConfig())
	if err != nil {
		t.Fatal(err)
	}
	custom := customNet16(t)
	cres, err := TransformDistributed(custom, x, DefaultDistConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The synthesized topology provides direct links for every butterfly
	// pair; the mesh dilates the high-order exchanges over 2+ hops.
	if cres.TotalCycles > mres.TotalCycles {
		t.Fatalf("custom %d cycles slower than mesh %d", cres.TotalCycles, mres.TotalCycles)
	}
}

func TestTransformDistributedValidation(t *testing.T) {
	net := meshNet16(t)
	if _, err := TransformDistributed(nil, randomSamples(16, 1), DefaultDistConfig()); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := TransformDistributed(net, randomSamples(6, 1), DefaultDistConfig()); err == nil {
		t.Fatal("non-power-of-two accepted")
	}
	bad := DefaultDistConfig()
	bad.MaxCycles = 0
	if _, err := TransformDistributed(net, randomSamples(16, 1), bad); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestSynthesizedFFTTopologyHasHypercubeLinks(t *testing.T) {
	acg, _ := ACG(16, 128, 0.01)
	res, err := core.Solve(core.Problem{
		ACG:       acg,
		Library:   primitives.MustDefault(),
		Placement: floorplan.Grid(16, 1, 1, 0.2),
		Energy:    energy.Tech180,
		Options:   core.Options{Mode: core.CostEnergy, Timeout: 60 * time.Second},
	})
	if err != nil || res.Best == nil {
		t.Fatalf("solve: %v", err)
	}
	arch, err := topology.FromDecomposition("fft", acg, res.Best, floorplan.Grid(16, 1, 1, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	// The hypercube traffic has no triangles, so gossip (K4) patterns
	// cannot match; loops, paths and broadcast stars can. Whatever the
	// mix, the synthesized architecture must never need more links than
	// the full hypercube (32 undirected links for Q4) and every traffic
	// pair must be routable within the library diameter.
	if arch.LinkCount() > 32 {
		t.Fatalf("links = %d, more than the hypercube's 32", arch.LinkCount())
	}
	if !arch.Connected() {
		t.Fatal("architecture disconnected")
	}
	table, err := routing.Build(arch)
	if err != nil {
		t.Fatal(err)
	}
	maxHops := 0
	for _, e := range acg.Edges() {
		path, err := table.Route(e.From, e.To)
		if err != nil {
			t.Fatal(err)
		}
		if h := len(path) - 1; h > maxHops {
			maxHops = h
		}
	}
	if lim := primitives.MustDefault().MaxDiameter(); maxHops > lim {
		t.Fatalf("butterfly pair routed in %d hops, library diameter is %d", maxHops, lim)
	}
	if err := res.Best.CoverIsExact(acg); err != nil {
		t.Fatal(err)
	}
	_ = graph.NodeID(0)
}
