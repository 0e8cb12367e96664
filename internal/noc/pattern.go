package noc

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/routing"
)

// Pattern is a spatial traffic pattern: the rule mapping a source node
// (by its rank in the network's sorted node order) to a destination. The
// classic NoC evaluation patterns come in two flavors, both covered:
//
//   - deterministic permutations (transpose, bit-complement, bit-reversal,
//     shuffle, neighbor), where every source has one fixed partner; and
//   - stochastic patterns (uniform, hotspot), where the destination is
//     drawn per packet from a distribution.
//
// The bit-permutation patterns are defined over b = ceil(log2 n) bits of
// the source rank; on non-power-of-two networks the permuted rank is
// reduced mod n, which keeps every pattern total (and documented) at the
// cost of exact bijectivity. A source whose deterministic partner is
// itself simply stays idle — the convention of the simulators this
// mirrors.
type Pattern struct {
	name string
	// n is the node count the pattern was built for; GenerateTrace checks
	// it against the network.
	n int
	// perm is the fixed destination rank per source rank for deterministic
	// permutation patterns; nil for stochastic patterns.
	perm []int
	// pick draws a destination rank for stochastic patterns (never returns
	// src).
	pick func(src int, rng *rand.Rand) int
	// hot holds the sorted hotspot ranks of a hotspot pattern, so Pairs
	// can enumerate the concentrated part of its support; nil otherwise.
	hot []int
}

// Pairs enumerates the pattern's demand set: the ordered (src, dst)
// rank pairs its packets concentrate on, the input of demand-driven
// routing-table compilation. Deterministic permutations yield exactly
// their non-idle (i, perm[i]) pairs; hotspot yields every source paired
// with every hub. Uniform — and any stochastic pattern without a
// tighter declared support — yields the symbolic all-pairs set.
//
// The set is where packets *concentrate*, not a hard bound: hotspot's
// uniform escape draw (a source that picks itself as hub) can address
// any node. Injections outside the set resolve through the simulator's
// lazy plan cache and are counted in Stats.PlanMisses. Bursty
// modulation (BurstConfig) is purely temporal, so the wrapped pattern's
// demand passes through unchanged.
func (p *Pattern) Pairs() *routing.PairSet {
	switch {
	case p.perm != nil:
		ps := routing.NewPairSet(p.n)
		for i, d := range p.perm {
			if d != i {
				ps.Add(i, d)
			}
		}
		return ps
	case len(p.hot) > 0:
		ps := routing.NewPairSet(p.n)
		for s := 0; s < p.n; s++ {
			for _, h := range p.hot {
				if h != s {
					ps.Add(s, h)
				}
			}
		}
		return ps
	default:
		return routing.AllPairs(p.n)
	}
}

// Name returns the pattern's canonical name.
func (p *Pattern) Name() string { return p.name }

// Stochastic reports whether destinations are drawn per packet rather
// than fixed per source.
func (p *Pattern) Stochastic() bool { return p.perm == nil }

// Permutation returns a copy of the fixed source-rank -> destination-rank
// map, or nil for stochastic patterns. Entries with perm[i] == i mark
// sources that stay idle under the pattern.
func (p *Pattern) Permutation() []int {
	if p.perm == nil {
		return nil
	}
	return append([]int(nil), p.perm...)
}

// DestRank resolves one packet's destination rank for the given source
// rank. rng is consulted only by stochastic patterns. A return equal to
// src means the source has no partner this draw (deterministic patterns
// only; stochastic picks always differ from src).
func (p *Pattern) DestRank(src int, rng *rand.Rand) int {
	if p.perm != nil {
		return p.perm[src]
	}
	return p.pick(src, rng)
}

// rankBits returns the bit width the bit-permutation patterns operate
// on: the smallest b with 2^b >= n.
func rankBits(n int) int {
	b := bits.Len(uint(n - 1))
	if b == 0 {
		b = 1
	}
	return b
}

func permPattern(name string, n int, f func(i, b, mask int) int) *Pattern {
	b := rankBits(n)
	mask := 1<<b - 1
	perm := make([]int, n)
	for i := range perm {
		perm[i] = f(i, b, mask) % n
	}
	return &Pattern{name: name, n: n, perm: perm}
}

// UniformPattern draws every destination uniformly from the other n-1
// nodes — the baseline pattern of every latency-throughput evaluation.
func UniformPattern(n int) (*Pattern, error) {
	if n < 2 {
		return nil, fmt.Errorf("noc: uniform pattern needs >= 2 nodes, have %d", n)
	}
	return &Pattern{
		name: "uniform",
		n:    n,
		pick: func(src int, rng *rand.Rand) int {
			d := rng.Intn(n - 1)
			if d >= src {
				d++
			}
			return d
		},
	}, nil
}

// TransposePattern pairs rank i with rank (i + n/2) mod n, the
// half-rotation: on a row-major mesh it exchanges the two halves of the
// chip like a matrix transpose exchanges triangles, forcing
// maximum-distance bisection traffic.
func TransposePattern(n int) (*Pattern, error) {
	if n < 2 {
		return nil, fmt.Errorf("noc: transpose pattern needs >= 2 nodes, have %d", n)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = (i + n/2) % n
	}
	return &Pattern{name: "transpose", n: n, perm: perm}, nil
}

// BitComplementPattern sends rank i to the bitwise complement of i over
// ceil(log2 n) bits: every packet crosses the network center.
func BitComplementPattern(n int) (*Pattern, error) {
	if n < 2 {
		return nil, fmt.Errorf("noc: bitcomp pattern needs >= 2 nodes, have %d", n)
	}
	return permPattern("bitcomp", n, func(i, b, mask int) int {
		return ^i & mask
	}), nil
}

// BitReversalPattern sends rank i to the bit-reversal of i over
// ceil(log2 n) bits (FFT-style traffic).
func BitReversalPattern(n int) (*Pattern, error) {
	if n < 2 {
		return nil, fmt.Errorf("noc: bitrev pattern needs >= 2 nodes, have %d", n)
	}
	return permPattern("bitrev", n, func(i, b, mask int) int {
		return int(bits.Reverse(uint(i)) >> (bits.UintSize - b))
	}), nil
}

// ShufflePattern sends rank i to i rotated left by one bit over
// ceil(log2 n) bits — the perfect-shuffle permutation of sorting and FFT
// networks.
func ShufflePattern(n int) (*Pattern, error) {
	if n < 2 {
		return nil, fmt.Errorf("noc: shuffle pattern needs >= 2 nodes, have %d", n)
	}
	return permPattern("shuffle", n, func(i, b, mask int) int {
		return (i<<1 | i>>(b-1)) & mask
	}), nil
}

// NeighborPattern sends rank i to rank (i+1) mod n — the most local
// deterministic pattern, bounding the best case of the sweep ladder.
func NeighborPattern(n int) (*Pattern, error) {
	if n < 2 {
		return nil, fmt.Errorf("noc: neighbor pattern needs >= 2 nodes, have %d", n)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = (i + 1) % n
	}
	return &Pattern{name: "neighbor", n: n, perm: perm}, nil
}

// HotspotPattern sends each packet to a uniformly chosen hotspot rank
// with probability skew, and uniformly elsewhere otherwise — the skewed
// regime of scale-free application graphs (arXiv:0908.0976), where a few
// hub nodes concentrate the traffic. Hotspot ranks must be valid and the
// skew in (0, 1]. A source drawing itself as the hotspot falls back to a
// uniform draw, so the pattern never self-addresses.
func HotspotPattern(n int, hotspots []int, skew float64) (*Pattern, error) {
	if n < 2 {
		return nil, fmt.Errorf("noc: hotspot pattern needs >= 2 nodes, have %d", n)
	}
	if len(hotspots) == 0 {
		return nil, fmt.Errorf("noc: hotspot pattern needs at least one hotspot rank")
	}
	if skew <= 0 || skew > 1 {
		return nil, fmt.Errorf("noc: hotspot skew %g outside (0, 1]", skew)
	}
	hs := append([]int(nil), hotspots...)
	sort.Ints(hs)
	for _, h := range hs {
		if h < 0 || h >= n {
			return nil, fmt.Errorf("noc: hotspot rank %d outside [0, %d)", h, n)
		}
	}
	uniform := func(src int, rng *rand.Rand) int {
		d := rng.Intn(n - 1)
		if d >= src {
			d++
		}
		return d
	}
	return &Pattern{
		name: "hotspot",
		n:    n,
		hot:  hs,
		pick: func(src int, rng *rand.Rand) int {
			if rng.Float64() < skew {
				if h := hs[rng.Intn(len(hs))]; h != src {
					return h
				}
			}
			return uniform(src, rng)
		},
	}, nil
}

// PatternNames lists the built-in pattern names accepted by NewPattern,
// in the order the sweep tooling reports them.
func PatternNames() []string {
	return []string{"uniform", "transpose", "bitcomp", "bitrev", "shuffle", "neighbor", "hotspot"}
}

// NewPattern builds a built-in pattern from its spec string for n nodes.
// Every name of PatternNames is accepted; "hotspot" takes optional
// colon-separated parameters "hotspot[:rank1,rank2,...[:skew]]"
// (defaults: hotspot rank 0, skew 0.5).
func NewPattern(spec string, n int) (*Pattern, error) {
	parts := strings.Split(spec, ":")
	switch parts[0] {
	case "uniform":
		return UniformPattern(n)
	case "transpose":
		return TransposePattern(n)
	case "bitcomp":
		return BitComplementPattern(n)
	case "bitrev":
		return BitReversalPattern(n)
	case "shuffle":
		return ShufflePattern(n)
	case "neighbor":
		return NeighborPattern(n)
	case "hotspot":
		hotspots := []int{0}
		skew := 0.5
		if len(parts) > 1 && parts[1] != "" {
			hotspots = hotspots[:0]
			for _, f := range strings.Split(parts[1], ",") {
				h, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil {
					return nil, fmt.Errorf("noc: bad hotspot rank %q in %q: %v", f, spec, err)
				}
				hotspots = append(hotspots, h)
			}
		}
		if len(parts) > 2 {
			s, err := strconv.ParseFloat(parts[2], 64)
			if err != nil {
				return nil, fmt.Errorf("noc: bad hotspot skew in %q: %v", spec, err)
			}
			skew = s
		}
		return HotspotPattern(n, hotspots, skew)
	default:
		return nil, fmt.Errorf("noc: unknown pattern %q (want one of %s)",
			spec, strings.Join(PatternNames(), ", "))
	}
}

// BurstConfig layers an on/off Markov-modulated arrival process over a
// spatial pattern: each node flips between an ON state, where it injects
// at rate / OnFraction, and an OFF state, where it is silent. Dwell
// times are geometric, so the process is the classic two-state MMP; the
// long-run average rate matches the configured injection rate while the
// short-run traffic arrives in bursts — the regime real applications
// (and the paper's AES round traffic) produce.
type BurstConfig struct {
	// AvgBurstCycles is the mean ON-period length in cycles. It must be
	// >= 1 and >= OnFraction/(1-OnFraction), so the implied mean OFF
	// dwell stays at least one cycle (the geometric minimum).
	AvgBurstCycles float64
	// OnFraction is the long-run fraction of cycles a node spends ON, in
	// (0, 1]. 1 degenerates to the unmodulated process. The injection
	// rate must not exceed it (the ON-state Bernoulli probability is
	// rate/OnFraction).
	OnFraction float64
}

// validate rejects parameterizations that cannot realize the documented
// mean-rate guarantee: the geometric OFF dwell has a minimum mean of one
// cycle, so the ON fraction caps at AvgBurstCycles/(AvgBurstCycles+1);
// the per-rate feasibility check (rate <= OnFraction) lives in
// GenerateTrace, which knows the rate.
func (b *BurstConfig) validate() error {
	if b.AvgBurstCycles < 1 {
		return fmt.Errorf("noc: burst length %g cycles < 1", b.AvgBurstCycles)
	}
	if b.OnFraction <= 0 || b.OnFraction > 1 {
		return fmt.Errorf("noc: burst on-fraction %g outside (0, 1]", b.OnFraction)
	}
	if b.OnFraction < 1 {
		if minBurst := b.OnFraction / (1 - b.OnFraction); b.AvgBurstCycles < minBurst {
			return fmt.Errorf("noc: burst length %g cycles infeasible for on-fraction %g (mean OFF dwell would be under one cycle; need length >= %g)",
				b.AvgBurstCycles, b.OnFraction, minBurst)
		}
	}
	return nil
}

// TrafficConfig parameterizes open-loop trace generation.
type TrafficConfig struct {
	// Nodes are the network's node ids; rank r of the pattern is Nodes[r].
	// Callers pass Network.Nodes(), which is ascending.
	Nodes []graph.NodeID
	// Bits is the packet payload size.
	Bits int
	// Rate is the injection rate in packets per node per cycle, the
	// long-run average also under bursty modulation. Must be in (0, 1].
	Rate float64
	// Seed makes the schedule deterministic.
	Seed int64
	// Burst, when non-nil, modulates arrivals with an on/off process.
	Burst *BurstConfig
}

// GenerateTrace produces the open-loop injection schedule of the pattern
// over simulation cycles [0, cycles): every node runs an independent
// Bernoulli (or Markov-modulated Bernoulli) arrival process at the
// configured rate and addresses each packet by the pattern. The schedule
// is deterministic for a fixed config and identical regardless of how
// the caller later simulates it.
func GenerateTrace(p *Pattern, cfg TrafficConfig, cycles int64) (Trace, error) {
	return GenerateTraceInto(nil, p, cfg, cycles)
}

// GenerateTraceInto is GenerateTrace appending into dst's backing array
// (truncated first), so repeat generators — the sweep harness produces
// one schedule per rate point — reuse one buffer instead of regrowing a
// fresh trace every time. The schedule bytes are identical to
// GenerateTrace's. Horizons above MaxTraceCycles are rejected.
//
// The schedule is unchanged from the per-slot generator, kept in the
// tests as the oracle: for each cycle and each source rank in order, one
// rand.Float64() < rate draw from rand.New(rand.NewSource(Seed)), then
// the pattern's destination draws on a hit. Without bursts the generator
// does not run that loop. It
// scans a block-generated copy of the same value stream (streamSource)
// for the next value below the Float64 threshold and splits the slot
// index into (cycle, source) only on a hit, so the cost follows the
// packets, not nodes × cycles. The bursty path keeps the per-slot loop
// over the same stream. TestGenerateTraceMatchesPerSlotOracle holds both
// paths to the per-slot loop byte for byte.
func GenerateTraceInto(dst Trace, p *Pattern, cfg TrafficConfig, cycles int64) (Trace, error) {
	if p == nil {
		return nil, fmt.Errorf("noc: nil pattern")
	}
	n := len(cfg.Nodes)
	if n < 2 {
		return nil, fmt.Errorf("noc: traffic needs >= 2 nodes, have %d", n)
	}
	if p.n != n {
		return nil, fmt.Errorf("noc: pattern %s built for %d nodes, network has %d", p.name, p.n, n)
	}
	if cfg.Bits <= 0 {
		return nil, fmt.Errorf("noc: packet bits %d", cfg.Bits)
	}
	if cfg.Rate <= 0 || cfg.Rate > 1 {
		return nil, fmt.Errorf("noc: rate %g outside (0, 1]", cfg.Rate)
	}
	if cycles <= 0 || cycles > MaxTraceCycles {
		return nil, fmt.Errorf("noc: cycle horizon %d outside [1, %d]", cycles, MaxTraceCycles)
	}
	onProb := cfg.Rate
	var pOnToOff, pOffToOn float64
	if cfg.Burst != nil {
		if err := cfg.Burst.validate(); err != nil {
			return nil, err
		}
		if cfg.Rate > cfg.Burst.OnFraction {
			return nil, fmt.Errorf("noc: rate %g exceeds burst on-fraction %g (the ON state would need a per-cycle probability above 1)",
				cfg.Rate, cfg.Burst.OnFraction)
		}
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
	src := newStreamSource(cfg.Seed)
	rng := rand.New(src)
	trace := dst[:0]
	emit := func(c int64, s int) {
		d := p.DestRank(s, rng)
		if d == s {
			return // deterministic pattern with no partner for s
		}
		trace = append(trace, TrafficEvent{Cycle: c, Src: cfg.Nodes[s], Dst: cfg.Nodes[d], Bits: cfg.Bits})
	}
	if cfg.Burst == nil {
		// Every node is permanently ON: the draws are one Float64 per
		// slot c*n + s, scanned in bulk.
		cut, redraw := float64Cut(onProb), float64Cut(1)
		var c int64
		s := 0
		for left := cycles * int64(n); left > 0; {
			missed, hit := src.scan(cut, redraw, left)
			if !hit {
				break
			}
			left -= missed + 1
			if k := int64(n - s); missed < k {
				s += int(missed)
			} else {
				missed -= k
				c += 1 + missed/int64(n)
				s = int(missed % int64(n))
			}
			emit(c, s)
			if s++; s == n {
				s = 0
				c++
			}
		}
		return trace, nil
	}
	// Per-node ON/OFF state.
	on := make([]bool, n)
	for i := range on {
		on[i] = rng.Float64() < cfg.Burst.OnFraction
	}
	for c := int64(0); c < cycles; c++ {
		for s := 0; s < n; s++ {
			if on[s] {
				if rng.Float64() < pOnToOff {
					on[s] = false
				}
			} else if rng.Float64() < pOffToOn {
				on[s] = true
			}
			if on[s] && rng.Float64() < onProb {
				emit(c, s)
			}
		}
	}
	return trace, nil
}
