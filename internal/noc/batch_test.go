package noc

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// compiledMesh builds the (arch, compiled XY table) pair batch tests
// share.
func compiledMesh(t *testing.T, rows, cols int) (*topology.Architecture, *routing.CompiledTable) {
	t.Helper()
	arch, err := topology.Mesh(rows, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	table, err := routing.XY(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := routing.AssignVirtualChannels(table, arch, nil)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := routing.CompileTable(table, arch, vc)
	if err != nil {
		t.Fatal(err)
	}
	return arch, ct
}

// TestPooledNetworkMatchesFresh extends the PR 5 Reset contract to the
// pool path: a network dirtied mid-simulation — buffered packets,
// wormhole locks, spent credits — released to the free-list and
// reacquired must be indistinguishable from a fresh NewCompiled build.
func TestPooledNetworkMatchesFresh(t *testing.T) {
	cfg := DefaultConfig()
	arch, ct := compiledMesh(t, 4, 4)
	pool := NewNetworkPool()

	dirty, err := pool.Acquire(cfg, arch, ct)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []graph.NodeID{1, 2, 3, 5, 9} {
		if _, err := dirty.Inject(src, 16, 512, "residue"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 7; i++ {
		dirty.Step() // stop mid-flight: locks held, credits spent
	}
	pool.Release(dirty)
	if got := pool.Idle(); got != 1 {
		t.Fatalf("pool idle = %d after release, want 1", got)
	}

	reused, err := pool.Acquire(cfg, arch, ct)
	if err != nil {
		t.Fatal(err)
	}
	if reused != dirty {
		t.Fatal("pool built a new network instead of reusing the released one")
	}
	fresh, err := NewCompiled(cfg, arch, ct)
	if err != nil {
		t.Fatal(err)
	}
	gotStats, gotCycle := runDeterministic(t, reused, 77)
	wantStats, wantCycle := runDeterministic(t, fresh, 77)
	if gotCycle != wantCycle {
		t.Fatalf("pooled network cycle %d, fresh %d", gotCycle, wantCycle)
	}
	if !bytes.Equal(gotStats, wantStats) {
		t.Fatalf("pooled network stats diverge from fresh:\npooled: %s\nfresh:  %s", gotStats, wantStats)
	}
}

// TestPoolKeying pins the free-list keying: equal table content (not
// pointer identity) plus equal config shares a slot; a differing config
// does not.
func TestPoolKeying(t *testing.T) {
	arch, ct := compiledMesh(t, 3, 3)
	_, ct2 := compiledMesh(t, 3, 3) // second compile, identical content
	if ct.Fingerprint() != ct2.Fingerprint() {
		t.Fatal("identical compilations fingerprint differently")
	}
	cfg := DefaultConfig()
	pool := NewNetworkPool()
	net, err := pool.Acquire(cfg, arch, ct)
	if err != nil {
		t.Fatal(err)
	}
	pool.Release(net)

	big := cfg
	big.BufferFlits *= 2
	other, err := pool.Acquire(big, arch, ct)
	if err != nil {
		t.Fatal(err)
	}
	if other == net {
		t.Fatal("pool shared a network across different configs")
	}
	if got := pool.Idle(); got != 1 {
		t.Fatalf("pool idle = %d, want 1 (the cfg-mismatched network)", got)
	}

	reused, err := pool.Acquire(cfg, arch, ct2)
	if err != nil {
		t.Fatal(err)
	}
	if reused != net {
		t.Fatal("pool missed the slot keyed by an equal-content table")
	}
}

func simBatchRequest() *SimRequest {
	return &SimRequest{
		Archs: []SimArch{
			{Name: "mesh4x4", Mesh: "4x4"},
			{Name: "scalefree", BA: "24:2:3"},
		},
		Points: []SimPoint{
			{Arch: 0, Pattern: "uniform", Bits: 128, Rate: 0.02, WarmupCycles: 100, MeasureCycles: 400, Seed: 1},
			{Arch: 0, Pattern: "transpose", Bits: 128, Rate: 0.1, WarmupCycles: 100, MeasureCycles: 400, Seed: 2},
			{Arch: 1, Pattern: "uniform", Bits: 96, Rate: 0.05, WarmupCycles: 100, MeasureCycles: 400, Seed: 3, IncludeStats: true},
			{Arch: 0, Pattern: "hotspot:0:0.5", Bits: 128, Rate: 0.3, WarmupCycles: 100, MeasureCycles: 400, Seed: 4},
			{Arch: 1, Pattern: "neighbor", Bits: 128, Rate: 0.08, WarmupCycles: 100, MeasureCycles: 400, Seed: 5},
		},
	}
}

// TestRunSimByteIdenticalAcrossParallelism is the batch determinism
// contract: the canonical response bytes must not depend on the worker
// count.
func TestRunSimByteIdenticalAcrossParallelism(t *testing.T) {
	var want []byte
	for _, par := range []int{1, 4, 0} {
		res, err := RunSim(context.Background(), simBatchRequest(), par)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		var buf bytes.Buffer
		if err := res.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("parallelism %d response diverges from parallelism 1", par)
		}
	}
	if !bytes.Contains(want, []byte(`"stats"`)) {
		t.Fatal("includeStats point carried no stats payload")
	}
}

// TestBatchReusesPooledNetworks checks the free-list actually recycles:
// a serial batch of many points per architecture ends with exactly one
// parked network per (table, config) slot.
func TestBatchReusesPooledNetworks(t *testing.T) {
	arch, ct := compiledMesh(t, 4, 4)
	pat, err := NewPattern("uniform", 16)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewNetworkPool()
	b := &Batch{
		Archs:       []BatchArch{{Cfg: DefaultConfig(), Arch: arch, Table: ct}},
		Parallelism: 1,
		Pool:        pool,
	}
	for i := 0; i < 6; i++ {
		b.Points = append(b.Points, BatchPoint{
			Pattern: pat, Bits: 128, Rate: 0.02 + 0.01*float64(i),
			WarmupCycles: 50, MeasureCycles: 200, Seed: int64(i + 1),
		})
	}
	if _, err := b.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := pool.Idle(); got != 1 {
		t.Fatalf("pool idle = %d after serial batch, want 1 reused network", got)
	}
}

// TestBatchMatchesSweep pins the PointSeed derivation: a Batch whose
// points mirror a Sweep's ladder (point i seeded PointSeed(seed, i))
// must produce identical RatePoints, which is what callers that batch
// sweep ladders themselves rely on.
func TestBatchMatchesSweep(t *testing.T) {
	arch, ct := compiledMesh(t, 4, 4)
	cfg := DefaultConfig()
	pat, err := NewPattern("uniform", 16)
	if err != nil {
		t.Fatal(err)
	}
	rates := []float64{0.02, 0.1, 0.3}
	const seed = 42
	sres, err := Sweep(context.Background(), BatchArch{Cfg: cfg, Arch: arch, Table: ct}, SweepConfig{
		Pattern: pat, Bits: 128, Rates: rates,
		WarmupCycles: 300, MeasureCycles: 1500, Seed: seed, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := &Batch{Archs: []BatchArch{{Cfg: cfg, Arch: arch, Table: ct}}, Parallelism: 1}
	for i, r := range rates {
		b.Points = append(b.Points, BatchPoint{
			Pattern: pat, Bits: 128, Rate: r,
			WarmupCycles: 300, MeasureCycles: 1500, Seed: PointSeed(seed, i),
		})
	}
	bpts, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bpts, sres.Points) {
		t.Fatalf("batch points diverge from sweep points:\nbatch: %+v\nsweep: %+v", bpts, sres.Points)
	}
}

// TestBuildBatchValidation rejects malformed wire requests with useful
// errors rather than building partial batches.
func TestBuildBatchValidation(t *testing.T) {
	base := func() *SimRequest { return simBatchRequest() }
	cases := []struct {
		name string
		mut  func(*SimRequest)
	}{
		{"no archs", func(r *SimRequest) { r.Archs = nil }},
		{"no points", func(r *SimRequest) { r.Points = nil }},
		{"bad mesh", func(r *SimRequest) { r.Archs[0].Mesh = "4by4" }},
		{"mesh and ba both set", func(r *SimRequest) { r.Archs[0].BA = "8:2:1" }},
		{"neither topology", func(r *SimRequest) { r.Archs[0].Mesh = "" }},
		{"oversized ba", func(r *SimRequest) { r.Archs[1].BA = "100000:2:1" }},
		{"arch out of range", func(r *SimRequest) { r.Points[0].Arch = 5 }},
		{"bad pattern", func(r *SimRequest) { r.Points[0].Pattern = "zigzag" }},
		{"bad routing", func(r *SimRequest) { r.Points[0].Routing = "psychic" }},
	}
	for _, tc := range cases {
		req := base()
		tc.mut(req)
		if _, err := BuildBatch(req); err == nil {
			t.Errorf("%s: BuildBatch accepted a malformed request", tc.name)
		}
	}
	if _, err := BuildBatch(base()); err != nil {
		t.Errorf("baseline request rejected: %v", err)
	}
	bad := base()
	bad.Points[0].Rate = 0
	b, err := BuildBatch(bad)
	if err != nil {
		t.Fatalf("rate validation happens at Run time, BuildBatch failed early: %v", err)
	}
	if _, err := b.Run(context.Background()); err == nil {
		t.Error("Run accepted a zero-rate point")
	}
}

// TestGoldenSimBatchBA1k pins large-topology behavior the way the
// AES-mesh goldens pin small meshes: one low-rate, short-window sweep
// point on a 1000-router Barabási–Albert topology, byte-compared
// against the committed fixture. Regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/noc -run TestGoldenSimBatchBA1k
//
// and eyeball the diff. Routing compilation dominates the test's
// runtime, so it is skipped under -short.
func TestGoldenSimBatchBA1k(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-router routing compilation is seconds of work")
	}
	req := &SimRequest{
		Archs: []SimArch{{Name: "ba1k", BA: "1000:2:5"}},
		Points: []SimPoint{{
			Arch: 0, Pattern: "uniform", Bits: 128, Rate: 0.005,
			WarmupCycles: 50, MeasureCycles: 400, Seed: 7,
		}},
	}
	res, err := RunSim(context.Background(), req, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "simbatch_ba1k.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("1k BA sim batch diverges from golden %s\ngot:\n%s", golden, buf.Bytes())
	}
}
