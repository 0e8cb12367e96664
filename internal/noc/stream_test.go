package noc

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// perSlotTrace is the per-slot generator GenerateTraceInto replaced,
// its loop kept verbatim as the oracle of the differential tests: one
// rand.Rand over rand.NewSource(Seed), and for every cycle and source
// rank in order the burst transitions, one Float64 arrival draw and, on
// a hit, the pattern's destination draws. The caller has validated cfg.
func perSlotTrace(p *Pattern, cfg TrafficConfig, cycles int64) Trace {
	n := len(cfg.Nodes)
	onProb := cfg.Rate
	var pOnToOff, pOffToOn float64
	if cfg.Burst != nil {
		onProb = cfg.Rate / cfg.Burst.OnFraction
		pOnToOff = 1 / cfg.Burst.AvgBurstCycles
		// Stationary ON probability p satisfies p*pOnToOff = (1-p)*pOffToOn.
		f := cfg.Burst.OnFraction
		pOffToOn = pOnToOff * f / (1 - f)
		if f == 1 {
			pOffToOn = 1
			pOnToOff = 0
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Per-node ON/OFF state; without bursts every node is permanently ON.
	on := make([]bool, n)
	for i := range on {
		if cfg.Burst == nil {
			on[i] = true
		} else {
			on[i] = rng.Float64() < cfg.Burst.OnFraction
		}
	}
	var trace Trace
	for c := int64(0); c < cycles; c++ {
		for src := 0; src < n; src++ {
			if cfg.Burst != nil {
				if on[src] {
					if rng.Float64() < pOnToOff {
						on[src] = false
					}
				} else if rng.Float64() < pOffToOn {
					on[src] = true
				}
			}
			if !on[src] || rng.Float64() >= onProb {
				continue
			}
			dst := p.DestRank(src, rng)
			if dst == src {
				continue // deterministic pattern with no partner for src
			}
			trace = append(trace, TrafficEvent{
				Cycle: c,
				Src:   cfg.Nodes[src],
				Dst:   cfg.Nodes[dst],
				Bits:  cfg.Bits,
			})
		}
	}
	return trace
}

// rankNodes returns n node ids that differ from their ranks, so a
// rank/id mix-up cannot pass.
func rankNodes(n int) []graph.NodeID {
	nodes := make([]graph.NodeID, n)
	for i := range nodes {
		nodes[i] = graph.NodeID(3*i + 5)
	}
	return nodes
}

// diffSeeds covers 0, negative seeds and seeds that rand.NewSource
// reduces to the same state (equal mod 2^31-1, and 0 ≡ 2^31-1 ≡
// 89482311, the value Seed substitutes for a zero residue).
var diffSeeds = func() []int64 {
	const m = 1<<31 - 1
	s := []int64{0, 1, -1, 2, -2, 7, -7, m - 7, m, 89482311, m + 1, 2 * m, -m,
		math.MaxInt64, math.MinInt64, math.MinInt64 + 1, 1 << 40, 5, 5 + m, 5 + 3*m}
	r := rand.New(rand.NewSource(20))
	for len(s) < 56 {
		s = append(s, r.Int63()-r.Int63())
	}
	return s
}()

// checkTrace compares GenerateTraceInto, appending into a dirty
// buffer, with the oracle.
func checkTrace(t *testing.T, spec string, cfg TrafficConfig, cycles int64) {
	t.Helper()
	p, err := NewPattern(spec, len(cfg.Nodes))
	if err != nil {
		t.Fatal(err)
	}
	dirty := Trace{{Cycle: -1, Tag: "stale"}, {Cycle: -2}}
	got, err := GenerateTraceInto(dirty, p, cfg, cycles)
	if err != nil {
		t.Fatalf("%s n=%d rate=%g seed=%d cycles=%d: %v", spec, len(cfg.Nodes), cfg.Rate, cfg.Seed, cycles, err)
	}
	want := perSlotTrace(p, cfg, cycles)
	if !slices.Equal(got, want) {
		t.Fatalf("%s n=%d rate=%g burst=%v seed=%d cycles=%d: %d events, oracle %d (first difference at %d)",
			spec, len(cfg.Nodes), cfg.Rate, cfg.Burst != nil, cfg.Seed, cycles, len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b Trace) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestGenerateTraceMatchesPerSlotOracle holds GenerateTraceInto to the
// per-slot generator byte for byte over every pattern family, rates from
// 1e-5 to 1, node counts 2 to 1000, horizons from one cycle to several
// buffer slides (the first 607 values come from math/rand itself, the
// rest from the recurrence in a buffer that slides every streamChunk
// values), bursty and not, and 56 seeds.
func TestGenerateTraceMatchesPerSlotOracle(t *testing.T) {
	patterns := []string{"uniform", "transpose", "bitcomp", "shuffle", "neighbor", "hotspot:0,1:0.5", "hotspot:0,1:1"}
	rates := []float64{1e-5, 1e-3, 0.05, 0.5, 1.0}
	nodeCounts := []int{2, 3, 16, 1000}
	combo := 0
	for _, n := range nodeCounts {
		nodes := rankNodes(n)
		// One cycle; past the first 607 values; several buffer slides.
		horizons := []int64{1, int64(streamLag/n + 2), int64(3*streamChunk/n + 3)}
		for _, spec := range patterns {
			for _, rate := range rates {
				for _, cycles := range horizons {
					for _, bursty := range []bool{false, true} {
						cfg := TrafficConfig{Nodes: nodes, Bits: 64, Rate: rate}
						if bursty {
							cfg.Burst = &BurstConfig{AvgBurstCycles: 8, OnFraction: 0.5}
							if rate > 0.5 {
								cfg.Burst.OnFraction = 1
							}
						}
						for k := 0; k < 2; k++ {
							cfg.Seed = diffSeeds[(2*combo+k)%len(diffSeeds)]
							checkTrace(t, spec, cfg, cycles)
						}
						combo++
					}
				}
			}
		}
	}
	// Every seed on a low-rate horizon long enough for several slides.
	for _, seed := range diffSeeds {
		for _, spec := range []string{"uniform", "hotspot:0,1:1"} {
			checkTrace(t, spec, TrafficConfig{Nodes: rankNodes(16), Bits: 8, Rate: 0.01, Seed: seed}, 3000)
		}
	}
}

// TestGenerateTraceHorizonBound pins the MaxTraceCycles limit.
func TestGenerateTraceHorizonBound(t *testing.T) {
	p, _ := NewPattern("neighbor", 2)
	cfg := TrafficConfig{Nodes: rankNodes(2), Bits: 8, Rate: 1e-9, Seed: 1}
	for _, cycles := range []int64{0, -1, MaxTraceCycles + 1, math.MaxInt64} {
		if _, err := GenerateTrace(p, cfg, cycles); err == nil {
			t.Errorf("horizon %d accepted", cycles)
		}
	}
	if _, err := GenerateTrace(p, cfg, 1000); err != nil {
		t.Errorf("horizon 1000: %v", err)
	}
}

// FuzzGenerateTrace holds GenerateTraceInto to the per-slot oracle on
// arbitrary seeds, rates, node counts, horizons and patterns. The seed
// corpus runs under plain go test; explore with
//
//	go test ./internal/noc -run '^$' -fuzz FuzzGenerateTrace -fuzztime 30s
func FuzzGenerateTrace(f *testing.F) {
	f.Add(int64(1), uint16(16), 0.05, uint16(100), uint8(0), false)
	f.Add(int64(0), uint16(2), 1.0, uint16(3000), uint8(6), false)
	f.Add(int64(-3), uint16(3), 1e-5, uint16(9000), uint8(5), true)
	f.Add(int64(1<<31-1), uint16(1000), 0.5, uint16(7), uint8(1), true)
	f.Add(int64(math.MinInt64), uint16(17), 2e-4, uint16(2500), uint8(3), false)
	f.Add(int64(42), uint16(5), 5e-324, uint16(50), uint8(4), false)
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, rate float64, cycles16 uint16, pat uint8, bursty bool) {
		specs := []string{"uniform", "transpose", "bitcomp", "bitrev", "shuffle", "neighbor", "hotspot:0,1:0.5", "hotspot:0,1:1"}
		n := 2 + int(n16)%1023
		cycles := 1 + int64(cycles16)%10000
		if int64(n)*cycles > 200_000 {
			cycles = 1 + 200_000/int64(n)
		}
		if !(rate > 0 && rate <= 1) {
			return
		}
		cfg := TrafficConfig{Nodes: rankNodes(n), Bits: 32, Rate: rate, Seed: seed}
		if bursty {
			cfg.Burst = &BurstConfig{AvgBurstCycles: 4, OnFraction: 0.6}
			if rate > 0.6 {
				cfg.Burst.OnFraction = 1
			}
		}
		checkTrace(t, specs[int(pat)%len(specs)], cfg, cycles)
	})
}

// TestStreamSourceMatchesMathRand guards the premise of streamSource:
// math/rand's Go 1 value stream is the lagged-Fibonacci recurrence over
// its first 607 outputs. The bare source and a rand.Rand over it must
// match rand.New(rand.NewSource(seed)) draw for draw over interleaved
// calls that cross several buffer slides, also after a reseed.
func TestStreamSourceMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -99, 1<<31 - 1, math.MaxInt64, 123456789} {
		ref := rand.NewSource(seed).(rand.Source64)
		src := newStreamSource(seed)
		for i := 0; i < 3*streamChunk; i++ {
			if i%3 == 0 {
				if a, b := src.Int63(), ref.Int63(); a != b {
					t.Fatalf("seed %d: bare Int63 #%d = %d, want %d", seed, i, a, b)
				}
			} else if a, b := src.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("seed %d: bare Uint64 #%d = %d, want %d", seed, i, a, b)
			}
		}

		want := rand.New(rand.NewSource(seed))
		got := rand.New(newStreamSource(seed))
		ops := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < 20000; i++ {
			if i == 15000 {
				want.Seed(seed + 1)
				got.Seed(seed + 1)
			}
			var a, b any
			switch ops.Intn(6) {
			case 0:
				a, b = got.Float64(), want.Float64()
			case 1:
				k := 1 + ops.Intn(1000)
				a, b = got.Intn(k), want.Intn(k)
			case 2:
				a, b = got.Intn(1<<40+3), want.Intn(1<<40+3)
			case 3:
				a, b = got.Int63(), want.Int63()
			case 4:
				a, b = got.Uint64(), want.Uint64()
			default:
				a, b = got.Float64() < 0.3, want.Float64() < 0.3
			}
			if a != b {
				t.Fatalf("seed %d: wrapped draw #%d = %v, want %v", seed, i, a, b)
			}
		}
	}
}

// TestFloat64Cut pins the Float64 thresholds at their edges: the
// redraw cut (values whose float64 rounds up to 2^63), the smallest
// positive rate, and the cut's defining property over a spread of
// rates.
func TestFloat64Cut(t *testing.T) {
	const two63 = 1 << 63
	redraw := float64Cut(1)
	if redraw != two63-512 {
		t.Errorf("float64Cut(1) = %d, want 2^63-512", redraw)
	}
	for v := uint64(two63 - 520); v < two63; v++ {
		if rounds := float64(v) == two63; rounds != (v >= redraw) {
			t.Errorf("Int63 %d: float64 rounds to 2^63 = %v, redraw cut %d", v, rounds, redraw)
		}
	}
	if c := float64Cut(math.SmallestNonzeroFloat64); c != 1 {
		t.Errorf("float64Cut(smallest positive) = %d, want 1 (only Int63 0 draws below it)", c)
	}
	if c := float64Cut(0x1p-63); c != 1 {
		t.Errorf("float64Cut(2^-63) = %d, want 1", c)
	}
	if c := float64Cut(0x1p-62); c != 2 {
		t.Errorf("float64Cut(2^-62) = %d, want 2", c)
	}
	below1 := math.Nextafter(1, 0)
	rates := []float64{math.SmallestNonzeroFloat64, 1e-300, 1e-5, 2e-4, 1.0 / 3, 0.5, 0.7, below1, 1}
	for _, p := range rates {
		c := float64Cut(p)
		if float64(c)/two63 < p || float64(c-1)/two63 >= p {
			t.Errorf("float64Cut(%g) = %d is not the least v with v/2^63 >= p", p, c)
		}
		if c > redraw {
			t.Errorf("float64Cut(%g) = %d above the redraw cut", p, c)
		}
	}
	if c := float64Cut(below1); c >= redraw {
		t.Errorf("float64Cut(1-2^-53) = %d leaves no miss values below the redraw cut %d", c, redraw)
	}
}

// craftedSource returns a source whose next streamLag values are vals
// (the recurrence continues from them), so tests can place hits,
// misses and redraws exactly.
func craftedSource(vals []uint64) *streamSource {
	s := newStreamSource(1)
	copy(s.buf[streamLag:2*streamLag], vals)
	s.rewind()
	return s
}

// TestScanMatchesFloat64 drives scan and a per-slot Float64 loop over
// the same stream, crafted dense with redraw values for its first
// streamLag values and running on across several buffer slides: the
// slots hit and the values consumed must agree.
func TestScanMatchesFloat64(t *testing.T) {
	const two63 = 1 << 63
	p := 0.25
	cut, redraw := float64Cut(p), float64Cut(1)
	r := rand.New(rand.NewSource(3))
	vals := make([]uint64, streamLag)
	for i := range vals {
		switch r.Intn(4) {
		case 0:
			vals[i] = uint64(r.Int63n(int64(cut))) | uint64(r.Intn(2))<<63
		case 1:
			vals[i] = redraw + uint64(r.Int63n(int64(two63-redraw)))
		default:
			vals[i] = cut + uint64(r.Int63n(int64(redraw-cut)))
		}
	}
	for _, limit := range []int64{1, 2, 7, 100, 3 * streamChunk} {
		a, b := craftedSource(vals), craftedSource(vals)
		ra := rand.New(a)
		var want []int64
		for slot := int64(0); slot < limit; slot++ {
			if ra.Float64() < p {
				want = append(want, slot)
			}
		}
		var got []int64
		for slot := int64(0); slot < limit; {
			missed, hit := b.scan(cut, redraw, limit-slot)
			slot += missed
			if !hit {
				break
			}
			got = append(got, slot)
			slot++
		}
		if !slices.Equal(got, want) {
			t.Fatalf("limit %d: scan hits %v, Float64 loop %v", limit, got, want)
		}
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("limit %d: scan left the stream at a different value (%d vs %d)", limit, y, x)
		}
	}
}

// TestScanStopsAtLastSlot checks that scan consumes no value past the
// last slot, takes no slot for a redraw, and reports hits in place.
func TestScanStopsAtLastSlot(t *testing.T) {
	cut, redraw := float64Cut(0.5), float64Cut(1)
	miss, hit, again := cut, uint64(7), redraw
	cases := []struct {
		vals     []uint64
		limit    int64
		missed   int64
		hit      bool
		consumed int
	}{
		{[]uint64{miss, miss, hit}, 2, 2, false, 2},
		{[]uint64{miss, miss, hit}, 3, 2, true, 3},
		{[]uint64{again, miss, again, again, hit}, 5, 1, true, 5},
		{[]uint64{again, again, miss}, 1, 1, false, 3},
		{[]uint64{hit | 1<<63, miss}, 1, 0, true, 1},
		{[]uint64{miss | 1<<63, hit}, 1, 1, false, 1},
	}
	for i, tc := range cases {
		s := craftedSource(tc.vals)
		missed, h := s.scan(cut, redraw, tc.limit)
		if missed != tc.missed || h != tc.hit || s.pos-streamLag != tc.consumed {
			t.Errorf("case %d: scan = (%d, %v) after %d values, want (%d, %v) after %d",
				i, missed, h, s.pos-streamLag, tc.missed, tc.hit, tc.consumed)
		}
	}
}
