package noc

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

// TestBuildBatchDenseBelowThreshold pins the compatibility policy:
// architectures at or under maxDenseSimNodes always get the classic
// Build routes compiled over every ordered pair, whatever the demand —
// the tables every recorded fixture was produced against.
func TestBuildBatchDenseBelowThreshold(t *testing.T) {
	req := &SimRequest{
		Archs: []SimArch{{Mesh: "4x4"}},
		Points: []SimPoint{{
			Arch: 0, Pattern: "transpose", Bits: 128, Rate: 0.05,
			WarmupCycles: 20, MeasureCycles: 60, Seed: 1,
		}},
	}
	b, err := BuildBatch(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Archs[0].Table.PairCount(); got != 16*15 {
		t.Fatalf("small architecture compiled %d pairs, want all %d", got, 16*15)
	}
}

// TestBuildBatchSparseLargeArch drives the demand-driven path end to
// end on a 2116-router mesh (above maxDenseSimNodes): the table is
// sparse and covers exactly the transpose ∪ hotspot demand union, the
// simulation completes, and the hotspot point's uniform escape traffic
// shows up as lazy plan-cache misses in its stats.
func TestBuildBatchSparseLargeArch(t *testing.T) {
	if testing.Short() {
		t.Skip("2116-router batch in -short mode")
	}
	req := &SimRequest{
		Archs: []SimArch{{Mesh: "46x46"}},
		Points: []SimPoint{
			{
				Arch: 0, Pattern: "transpose", Bits: 128, Rate: 0.02,
				WarmupCycles: 20, MeasureCycles: 60, Seed: 7,
			},
			{
				Arch: 0, Pattern: "hotspot:0:0.9", Bits: 128, Rate: 0.02,
				WarmupCycles: 20, MeasureCycles: 60, Seed: 7,
				IncludeStats: true,
			},
		},
	}
	b, err := BuildBatch(req)
	if err != nil {
		t.Fatal(err)
	}
	ct := b.Archs[0].Table
	n := 46 * 46
	if ct.PairCount() == n*(n-1) {
		t.Fatal("large architecture compiled every pair")
	}
	pat1, err := NewPattern("transpose", n)
	if err != nil {
		t.Fatal(err)
	}
	pat2, err := NewPattern("hotspot:0:0.9", n)
	if err != nil {
		t.Fatal(err)
	}
	union := pat1.Pairs()
	if err := union.AddUnion(pat2.Pairs()); err != nil {
		t.Fatal(err)
	}
	if ct.PairCount() != union.Len() {
		t.Fatalf("table covers %d pairs, demand union has %d", ct.PairCount(), union.Len())
	}
	// The whole point: the sparse index plus its plans stay tiny next to
	// a complete table (its 2116² pair index alone is ~18 MB).
	if fp := ct.MemoryFootprint(); fp > 8<<20 {
		t.Fatalf("sparse table footprint %d bytes", fp)
	}

	res, err := RunSim(context.Background(), req, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range res.Points {
		if pt.Delivered == 0 {
			t.Fatalf("point %d delivered nothing", i)
		}
	}
	var stats struct {
		PlanMisses int64 `json:"planMisses"`
	}
	if res.Points[1].Stats == nil {
		t.Fatal("hotspot point carries no stats")
	}
	if err := json.Unmarshal(res.Points[1].Stats, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.PlanMisses == 0 {
		t.Fatal("hotspot escape traffic produced no lazy plan misses")
	}
}

// TestBuildBatchUniformLargeViaLandmarks: all-pairs (uniform) demand
// above the dense threshold — once a refusal — now compiles the
// landmark route source: an empty sparse table (every plan resolves
// lazily), the landmark VC budget, O(L·n) memory instead of a ~12 GB
// complete table, and a simulation that completes with every delivery
// counted as a lazy plan miss.
func TestBuildBatchUniformLargeViaLandmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("2116-router batch in -short mode")
	}
	req := &SimRequest{
		Archs: []SimArch{{Mesh: "46x46"}},
		Points: []SimPoint{{
			Arch: 0, Pattern: "uniform", Bits: 128, Rate: 0.005,
			WarmupCycles: 20, MeasureCycles: 60, Seed: 1,
			IncludeStats: true,
		}},
	}
	b, err := BuildBatch(req)
	if err != nil {
		t.Fatal(err)
	}
	ct := b.Archs[0].Table
	if ct.PairCount() != 0 {
		t.Fatalf("uniform-at-scale table: pairs=%d, want empty sparse", ct.PairCount())
	}
	if ct.NumVCs() != 4 {
		t.Fatalf("landmark table has %d VCs, want %d trees", ct.NumVCs(), 4)
	}
	if fp := ct.MemoryFootprint(); fp > 8<<20 {
		t.Fatalf("landmark table footprint %d bytes", fp)
	}

	res, err := RunSim(context.Background(), req, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Points[0].Delivered == 0 {
		t.Fatal("uniform point delivered nothing")
	}
	var stats struct {
		PlanMisses int64 `json:"planMisses"`
	}
	if err := json.Unmarshal(res.Points[0].Stats, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.PlanMisses == 0 {
		t.Fatal("uniform landmark traffic produced no lazy plan misses")
	}

	// Determinism: the same request produces the same bytes again.
	res2, err := RunSim(context.Background(), req, 1)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 strings.Builder
	if err := res.EncodeJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := res2.EncodeJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("uniform landmark batch not deterministic across parallelism")
	}
}

// TestBuildBatchRejectsPartitions: the serial kernel is the only one,
// so a partitions field other than 0 or 1 fails the build with the
// typed ErrPartitions before any architecture is compiled.
func TestBuildBatchRejectsPartitions(t *testing.T) {
	for _, parts := range []int{0, 1, 2, -1} {
		req := &SimRequest{
			Archs: []SimArch{{Mesh: "4x4"}},
			Points: []SimPoint{{
				Arch: 0, Pattern: "transpose", Bits: 64, Rate: 0.02,
				WarmupCycles: 10, MeasureCycles: 20, Seed: 1, Partitions: parts,
			}},
		}
		_, err := BuildBatch(req)
		if accepted := parts == 0 || parts == 1; accepted != (err == nil) {
			t.Fatalf("partitions %d: err %v", parts, err)
		}
		if err != nil && !errors.Is(err, ErrPartitions) {
			t.Fatalf("partitions %d: %v does not wrap ErrPartitions", parts, err)
		}
	}
}

// TestCycleWindowsBound: a point whose warmup+measure horizon exceeds
// MaxTraceCycles, or overflows int64, is rejected with ErrWindows by
// BuildBatch, by Batch.Run on an already built batch, and by Sweep,
// before any cycle is simulated.
func TestCycleWindowsBound(t *testing.T) {
	bad := [][2]int64{
		{0, MaxTraceCycles + 1},
		{MaxTraceCycles, 1},
		{1, math.MaxInt64},
		{math.MaxInt64, 1},
		{math.MaxInt64, math.MaxInt64},
		{-1, 10},
		{10, 0},
	}
	if err := checkWindows(MaxTraceCycles-1, 1); err != nil {
		t.Errorf("horizon of exactly MaxTraceCycles rejected: %v", err)
	}
	for _, w := range bad {
		req := &SimRequest{
			Archs: []SimArch{{Mesh: "4x4"}},
			Points: []SimPoint{{
				Arch: 0, Pattern: "transpose", Bits: 64, Rate: 0.02,
				WarmupCycles: 10, MeasureCycles: 20, Seed: 1,
			}},
		}
		b, err := BuildBatch(req)
		if err != nil {
			t.Fatal(err)
		}
		b.Points[0].WarmupCycles, b.Points[0].MeasureCycles = w[0], w[1]
		if _, err := b.Run(context.Background()); !errors.Is(err, ErrWindows) {
			t.Errorf("Batch.Run windows %v: err %v, want ErrWindows", w, err)
		}
		req.Points[0].WarmupCycles, req.Points[0].MeasureCycles = w[0], w[1]
		if _, err := BuildBatch(req); !errors.Is(err, ErrWindows) {
			t.Errorf("BuildBatch windows %v: err %v, want ErrWindows", w, err)
		}
		if err := req.Check(); !errors.Is(err, ErrWindows) {
			t.Errorf("Check windows %v: err %v, want ErrWindows", w, err)
		}
		cfg := SweepConfig{Pattern: b.Points[0].Pattern, Rates: []float64{0.01}, Bits: 64, WarmupCycles: w[0], MeasureCycles: w[1]}
		if _, err := Sweep(context.Background(), b.Archs[0], cfg); !errors.Is(err, ErrWindows) {
			t.Errorf("Sweep windows %v: err %v, want ErrWindows", w, err)
		}
	}
}
