package noc

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// TestPatternDestinationMaps pins every deterministic pattern's
// destination map on 8 nodes, so the half-rotation (transpose) and the
// bit reversal (bitrev) cannot be mixed up.
func TestPatternDestinationMaps(t *testing.T) {
	cases := []struct {
		name string
		want []int
	}{
		{"transpose", []int{4, 5, 6, 7, 0, 1, 2, 3}},
		{"bitcomp", []int{7, 6, 5, 4, 3, 2, 1, 0}},
		{"bitrev", []int{0, 4, 2, 6, 1, 5, 3, 7}},
		{"shuffle", []int{0, 2, 4, 6, 1, 3, 5, 7}},
		{"neighbor", []int{1, 2, 3, 4, 5, 6, 7, 0}},
	}
	for _, tc := range cases {
		p, err := NewPattern(tc.name, 8)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := p.Permutation()
		if len(got) != len(tc.want) {
			t.Fatalf("%s: permutation %v", tc.name, got)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: dest map %v, want %v", tc.name, got, tc.want)
			}
		}
		if p.Stochastic() {
			t.Fatalf("%s reported stochastic", tc.name)
		}
	}
}

// TestTransposeMatchesLegacyPermutationTrace ties the pattern to the
// legacy permutation generator it replaced: every node sends to the
// node (i + n/2) mod n ranks later, and no node addresses itself.
func TestTransposeMatchesLegacyPermutationTrace(t *testing.T) {
	nodes := graph.Range(1, 8)
	n := len(nodes)
	p, err := TransposePattern(n)
	if err != nil {
		t.Fatal(err)
	}
	perm := p.Permutation()
	if len(perm) != n {
		t.Fatalf("permutation length %d, want %d", len(perm), n)
	}
	for i, src := range nodes {
		want := nodes[(i+n/2)%n]
		if want == src {
			t.Fatalf("rank %d addresses itself", i)
		}
		if got := nodes[perm[i]]; got != want {
			t.Fatalf("rank %d: pattern sends %d->%d, legacy rule wants %d->%d",
				i, src, got, src, want)
		}
	}
}

func TestPatternNonPowerOfTwoTotal(t *testing.T) {
	// 6 nodes: bit patterns operate on 3 bits and reduce mod 6; every
	// destination must stay in range, self-partners allowed (idle).
	for _, name := range []string{"bitcomp", "bitrev", "shuffle", "transpose", "neighbor"} {
		p, err := NewPattern(name, 6)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for src, dst := range p.Permutation() {
			if dst < 0 || dst >= 6 {
				t.Fatalf("%s: dest %d out of range for src %d", name, dst, src)
			}
		}
	}
}

func TestStochasticPatternsNeverSelfAddress(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	uni, err := UniformPattern(5)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := HotspotPattern(5, []int{2}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Pattern{uni, hot} {
		if !p.Stochastic() || p.Permutation() != nil {
			t.Fatalf("%s should be stochastic with nil permutation", p.Name())
		}
		for i := 0; i < 2000; i++ {
			src := i % 5
			if d := p.DestRank(src, rng); d == src || d < 0 || d >= 5 {
				t.Fatalf("%s: dest %d for src %d", p.Name(), d, src)
			}
		}
	}
}

func TestHotspotSkewConcentratesTraffic(t *testing.T) {
	p, err := HotspotPattern(16, []int{5}, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	hits := 0
	const draws = 4000
	for i := 0; i < draws; i++ {
		if p.DestRank(0, rng) == 5 {
			hits++
		}
	}
	frac := float64(hits) / draws
	// skew 0.75 plus the uniform fallback's 1/15 share of the rest.
	want := 0.75 + 0.25/15
	if math.Abs(frac-want) > 0.05 {
		t.Fatalf("hotspot fraction %.3f, want ~%.3f", frac, want)
	}
}

func TestNewPatternSpecs(t *testing.T) {
	for _, name := range PatternNames() {
		if _, err := NewPattern(name, 16); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := NewPattern("warp", 16); err == nil {
		t.Fatal("unknown pattern accepted")
	}
	p, err := NewPattern("hotspot:3,7:0.9", 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	hits := 0
	for i := 0; i < 1000; i++ {
		if d := p.DestRank(0, rng); d == 3 || d == 7 {
			hits++
		}
	}
	if hits < 800 {
		t.Fatalf("parameterized hotspot spec not honored: %d/1000 hotspot hits", hits)
	}
	if _, err := NewPattern("hotspot:99", 16); err == nil {
		t.Fatal("out-of-range hotspot rank accepted")
	}
	if _, err := NewPattern("hotspot:0:1.5", 16); err == nil {
		t.Fatal("out-of-range skew accepted")
	}
}

func TestGenerateTraceDeterministicAndValid(t *testing.T) {
	nodes := graph.Range(1, 16)
	p, err := NewPattern("uniform", 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrafficConfig{Nodes: nodes, Bits: 64, Rate: 0.05, Seed: 9}
	tr1, err := GenerateTrace(p, cfg, 500)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := GenerateTrace(p, cfg, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr1) == 0 || len(tr1) != len(tr2) {
		t.Fatalf("trace lengths %d vs %d", len(tr1), len(tr2))
	}
	for i := range tr1 {
		if tr1[i] != tr2[i] {
			t.Fatalf("trace diverges at %d", i)
		}
	}
	if err := ValidateTrace(tr1); err != nil {
		t.Fatal(err)
	}
	// The realized rate approximates the configured one.
	got := float64(len(tr1)) / (16 * 500)
	if math.Abs(got-0.05) > 0.01 {
		t.Fatalf("realized rate %.4f, want ~0.05", got)
	}
	// Node-count mismatch between pattern and network is an error.
	if _, err := GenerateTrace(p, TrafficConfig{Nodes: nodes[:8], Bits: 64, Rate: 0.05, Seed: 9}, 100); err == nil {
		t.Fatal("pattern/network size mismatch accepted")
	}
}

func TestBurstyTracePreservesMeanRateAndBursts(t *testing.T) {
	nodes := graph.Range(1, 16)
	p, err := NewPattern("uniform", 16)
	if err != nil {
		t.Fatal(err)
	}
	const rate, cycles = 0.04, 20000
	smooth, err := GenerateTrace(p, TrafficConfig{Nodes: nodes, Bits: 64, Rate: rate, Seed: 5}, cycles)
	if err != nil {
		t.Fatal(err)
	}
	bursty, err := GenerateTrace(p, TrafficConfig{
		Nodes: nodes, Bits: 64, Rate: rate, Seed: 5,
		Burst: &BurstConfig{AvgBurstCycles: 20, OnFraction: 0.25},
	}, cycles)
	if err != nil {
		t.Fatal(err)
	}
	meanOf := func(tr Trace) float64 { return float64(len(tr)) / (16 * cycles) }
	if math.Abs(meanOf(bursty)-rate) > 0.01 {
		t.Fatalf("bursty mean rate %.4f, want ~%.3f", meanOf(bursty), rate)
	}
	if math.Abs(meanOf(smooth)-rate) > 0.01 {
		t.Fatalf("smooth mean rate %.4f, want ~%.3f", meanOf(smooth), rate)
	}
	// Burstiness: the marginal per-cycle rate is unchanged, so the
	// modulation must show up as temporal clustering — the variance of
	// injection counts over burst-length windows is inflated by the
	// positive autocorrelation of the ON/OFF process.
	windowVar := func(tr Trace) float64 {
		const win = 20 // = AvgBurstCycles
		counts := make([]float64, cycles/win)
		for _, ev := range tr {
			if w := int(ev.Cycle) / win; w < len(counts) {
				counts[w]++
			}
		}
		var mean, v float64
		for _, c := range counts {
			mean += c
		}
		mean /= float64(len(counts))
		for _, c := range counts {
			v += (c - mean) * (c - mean)
		}
		return v / float64(len(counts))
	}
	if windowVar(bursty) <= 2*windowVar(smooth) {
		t.Fatalf("bursty windowed variance %.3f not clearly above smooth %.3f",
			windowVar(bursty), windowVar(smooth))
	}
	// Invalid burst parameters are rejected.
	if _, err := GenerateTrace(p, TrafficConfig{
		Nodes: nodes, Bits: 64, Rate: rate, Seed: 5,
		Burst: &BurstConfig{AvgBurstCycles: 0.5, OnFraction: 0.25},
	}, 100); err == nil {
		t.Fatal("sub-cycle burst length accepted")
	}
	if _, err := GenerateTrace(p, TrafficConfig{
		Nodes: nodes, Bits: 64, Rate: rate, Seed: 5,
		Burst: &BurstConfig{AvgBurstCycles: 10, OnFraction: 0},
	}, 100); err == nil {
		t.Fatal("zero on-fraction accepted")
	}
	// Infeasible combinations that would silently distort the mean rate
	// are rejected: a mean OFF dwell under one cycle, and a rate the ON
	// state cannot carry.
	if _, err := GenerateTrace(p, TrafficConfig{
		Nodes: nodes, Bits: 64, Rate: 0.1, Seed: 5,
		Burst: &BurstConfig{AvgBurstCycles: 2, OnFraction: 0.9},
	}, 100); err == nil {
		t.Fatal("sub-cycle OFF dwell accepted")
	}
	if _, err := GenerateTrace(p, TrafficConfig{
		Nodes: nodes, Bits: 64, Rate: 0.5, Seed: 5,
		Burst: &BurstConfig{AvgBurstCycles: 20, OnFraction: 0.25},
	}, 100); err == nil {
		t.Fatal("rate above on-fraction accepted")
	}
	// OnFraction 1 (degenerate, always ON) stays valid at any burst
	// length >= 1.
	if _, err := GenerateTrace(p, TrafficConfig{
		Nodes: nodes, Bits: 64, Rate: 0.5, Seed: 5,
		Burst: &BurstConfig{AvgBurstCycles: 5, OnFraction: 1},
	}, 100); err != nil {
		t.Fatalf("degenerate always-ON burst rejected: %v", err)
	}
}

// TestPatternTrafficSimulates drives every pattern end to end on a 4x4
// mesh at a low rate: everything injected must deliver.
func TestPatternTrafficSimulates(t *testing.T) {
	for _, name := range PatternNames() {
		n := meshNet(t, 4, 4, DefaultConfig())
		p, err := NewPattern(name, 16)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := GenerateTrace(p, TrafficConfig{
			Nodes: n.Nodes(), Bits: 64, Rate: 0.01, Seed: 12,
		}, 2000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(trace) == 0 {
			t.Fatalf("%s: empty trace", name)
		}
		if err := n.ReplayContext(context.Background(), trace, 1_000_000); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := n.Stats()
		if st.Delivered != int64(len(trace)) {
			t.Fatalf("%s: delivered %d of %d", name, st.Delivered, len(trace))
		}
	}
}
