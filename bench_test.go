package repro

// One benchmark family per table and figure of the paper's evaluation
// (Section 5), plus ablations of the design choices DESIGN.md calls out.
// `go test -bench=. -benchmem` regenerates every series; cmd/experiments
// prints the same data with the paper's formatting.
//
//	Fig4a  — decomposition run time on TGFF-style task graphs (5..18 nodes)
//	Fig4b  — decomposition run time on Pajek-style random graphs (10..40)
//	Fig5   — the planted random benchmark, decomposed to zero remainder
//	Fig6   — the AES ACG decomposition (4xMGG4 + 2xL4 + remainder)
//	TableAES — distributed AES on mesh vs customized architecture
//	Ablation* — bounding on/off, library order, match cap

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/noc"
	"repro/internal/primitives"
	"repro/internal/randgraph"
	"repro/internal/routing"
	"repro/internal/tgff"
	"repro/internal/topology"
)

func solveOnce(b *testing.B, acg *graph.Graph, opts core.Options) {
	b.Helper()
	res, err := core.Solve(core.Problem{
		ACG:     acg,
		Library: primitives.MustDefault(),
		Energy:  energy.Tech180,
		Options: opts,
	})
	if err != nil {
		b.Fatal(err)
	}
	if res.Best == nil && !res.Stats.TimedOut {
		b.Fatal("no decomposition")
	}
}

// BenchmarkFig4a_TGFF regenerates Figure 4a: run time of the algorithm on
// TGFF-generated task graphs up to the 18-node automotive benchmark size.
func BenchmarkFig4a_TGFF(b *testing.B) {
	for _, n := range []int{6, 10, 14, 18} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			acg, err := tgff.Generate(tgff.DefaultConfig(n, 42))
			if err != nil {
				b.Fatal(err)
			}
			opts := core.Options{Mode: core.CostLinks, Timeout: 30 * time.Second}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solveOnce(b, acg, opts)
			}
		})
	}
}

// BenchmarkFig4b_Pajek regenerates Figure 4b: average run time on larger
// Pajek-style random graphs (the paper reports <3 minutes at 40 nodes; a
// per-instance timeout mirrors the time-out mitigation of Section 5.1).
func BenchmarkFig4b_Pajek(b *testing.B) {
	for _, n := range []int{10, 20, 30, 40} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			acg, err := randgraph.ErdosRenyi(n, 0.15, 8, 64, 7)
			if err != nil {
				b.Fatal(err)
			}
			opts := core.Options{
				Mode:       core.CostLinks,
				Timeout:    20 * time.Second,
				IsoTimeout: 2 * time.Second,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solveOnce(b, acg, opts)
			}
		})
	}
}

// BenchmarkFig5_Planted regenerates the Figure 5 worked example: a random
// benchmark assembled from planted primitives, decomposed with no
// remainder (the paper reports <0.1 s).
func BenchmarkFig5_Planted(b *testing.B) {

	acg := randgraph.PaperFig5(16)
	opts := core.Options{Mode: core.CostLinks, Timeout: 30 * time.Second}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solveOnce(b, acg, opts)
	}
}

// BenchmarkFig6_AESDecomposition regenerates the Figure 6 decomposition:
// the distributed-AES ACG decomposed into 4 column gossips, 2 row loops
// and the row-3 remainder at cost 28 (the paper reports 0.58 s).
func BenchmarkFig6_AESDecomposition(b *testing.B) {
	acg := AESACG(0.1)
	opts := core.Options{Mode: core.CostLinks, Timeout: 60 * time.Second}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solveOnce(b, acg, opts)
	}
}

func aesNetConfig() NetworkConfig {
	return NetworkConfig{FlitBits: 32, BufferFlits: 4, NumVCs: 1, LinkCycles: 1, RouterCycles: 3, ClockMHz: 100}
}

// BenchmarkTableAES_Mesh regenerates the mesh row of the Section 5.2
// prototype comparison: cycles/block, throughput, latency, power, energy.
func BenchmarkTableAES_Mesh(b *testing.B) {
	placement := GridPlacement(16, 1, 1, 0.2)
	for i := 0; i < b.N; i++ {
		net, _, err := MeshNetwork(4, 4, placement, aesNetConfig())
		if err != nil {
			b.Fatal(err)
		}
		cmp, err := RunAES(net, "mesh", 1, Tech180)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cmp.CyclesPerBlock, "cycles/block")
		b.ReportMetric(cmp.ThroughputMbps, "Mbps")
		b.ReportMetric(cmp.AvgLatency, "lat-cycles")
		b.ReportMetric(cmp.EnergyPerBlock*1e6, "pJ/block")
	}
}

// BenchmarkTableAES_Custom regenerates the customized-architecture row of
// the Section 5.2 comparison.
func BenchmarkTableAES_Custom(b *testing.B) {
	placement := GridPlacement(16, 1, 1, 0.2)
	res, err := Synthesize(AESACG(0.1), Options{
		Mode: CostLinks, Placement: placement, Timeout: 60 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, err := res.NewNetwork(aesNetConfig())
		if err != nil {
			b.Fatal(err)
		}
		cmp, err := RunAES(net, "custom", 1, Tech180)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cmp.CyclesPerBlock, "cycles/block")
		b.ReportMetric(cmp.ThroughputMbps, "Mbps")
		b.ReportMetric(cmp.AvgLatency, "lat-cycles")
		b.ReportMetric(cmp.EnergyPerBlock*1e6, "pJ/block")
	}
}

// BenchmarkSweepUniformMesh times one three-point saturation sweep of
// the 4x4 evaluation mesh under uniform traffic (short windows): the
// per-characterization cost of the PR 4 workload subsystem, and the
// inner loop of `experiments -batch -sweeppatterns`.
func BenchmarkSweepUniformMesh(b *testing.B) {
	cfg := DefaultNetworkConfig()
	newNet := func() (*noc.Network, error) {
		net, _, err := MeshNetwork(4, 4, nil, cfg)
		return net, err
	}
	pat, err := noc.NewPattern("uniform", 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := noc.Sweep(context.Background(), newNet, noc.SweepConfig{
			Pattern:       pat,
			Bits:          128,
			Rates:         []float64{0.02, 0.1, 0.3},
			WarmupCycles:  300,
			MeasureCycles: 1500,
			Seed:          1,
			Parallelism:   1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Saturated {
			b.Fatal("mesh did not saturate at rate 0.3")
		}
		b.ReportMetric(res.SaturationRate, "sat-rate")
		b.ReportMetric(res.Points[0].AvgLatency, "lat0-cycles")
	}
}

// BenchmarkStepIdle measures the cost of advancing a fully idle network
// one cycle — the regime of the zero-load-latency sweep points, where
// nearly every cycle moves nothing. The activity-driven kernel steps an
// idle network in O(1) (empty worklists, one wheel-bucket probe); the
// pre-kernel simulator scanned every router, port and VC (709.6 ns/op on
// this 4x4 mesh at the PR 5 seed).
func BenchmarkStepIdle(b *testing.B) {
	newNet, _, err := MeshNetworkFactory(4, 4, nil, DefaultNetworkConfig())
	if err != nil {
		b.Fatal(err)
	}
	net, err := newNet()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}

// BenchmarkInjectRouted measures the steady-state inject+simulate path:
// one packet resolved through the compiled routing table, simulated to
// delivery, its storage recycled through the packet arena. The PR 5
// acceptance bar is ~0 allocs/op (the seed kernel spent 46 allocs and
// 1400 B per packet on route/VC/slot slices and the packet itself).
func BenchmarkInjectRouted(b *testing.B) {
	newNet, _, err := MeshNetworkFactory(4, 4, nil, DefaultNetworkConfig())
	if err != nil {
		b.Fatal(err)
	}
	net, err := newNet()
	if err != nil {
		b.Fatal(err)
	}
	net.SetPacketRecycling(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Inject(1, 16, 128, ""); err != nil {
			b.Fatal(err)
		}
		if !net.RunUntilDrained(1000) {
			b.Fatal("no drain")
		}
	}
}

// BenchmarkSweepReset measures one warm rate point: Reset a reused
// network and replay a fixed 400-cycle uniform schedule on it — the
// inner loop of the sweep harness after the per-worker network reuse
// (the seed harness rebuilt architecture, routing and wiring per point).
func BenchmarkSweepReset(b *testing.B) {
	newNet, _, err := MeshNetworkFactory(4, 4, nil, DefaultNetworkConfig())
	if err != nil {
		b.Fatal(err)
	}
	net, err := newNet()
	if err != nil {
		b.Fatal(err)
	}
	net.SetPacketRecycling(true)
	pat, err := noc.NewPattern("uniform", 16)
	if err != nil {
		b.Fatal(err)
	}
	trace, err := noc.GenerateTrace(pat, noc.TrafficConfig{
		Nodes: net.Nodes(), Bits: 128, Rate: 0.05, Seed: 1,
	}, 400)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Reset()
		if err := net.Replay(trace, 100_000); err != nil {
			b.Fatal(err)
		}
	}
}

// ba1k holds the shared 1k-router Barabási–Albert fixture. Routing
// compilation for 1000 nodes is a few seconds of all-pairs work, so it
// is built once across every benchmark that needs it, outside timing.
var ba1k struct {
	once  sync.Once
	arch  *topology.Architecture
	table *routing.CompiledTable
	err   error
}

func ba1kFixture(b *testing.B) (*topology.Architecture, *routing.CompiledTable) {
	b.Helper()
	ba1k.once.Do(func() {
		arch, err := baArchitecture(1000, 5)
		if err != nil {
			ba1k.err = err
			return
		}
		ba1k.table, ba1k.err = compileDense(arch)
		ba1k.arch = arch
	})
	if ba1k.err != nil {
		b.Fatal(ba1k.err)
	}
	return ba1k.arch, ba1k.table
}

// baArchitecture projects an n-node Barabási–Albert graph (m = 2) onto
// an undirected architecture: one link per connected node pair.
func baArchitecture(n int, seed int64) (*topology.Architecture, error) {
	g, err := randgraph.BarabasiAlbert(n, 2, 8, 64, seed)
	if err != nil {
		return nil, err
	}
	arch := topology.New(g.Name(), g.Nodes(), nil)
	for _, e := range g.Edges() {
		if e.From == e.To || arch.HasLink(e.From, e.To) {
			continue
		}
		if err := arch.AddLink(e.From, e.To, 0); err != nil {
			return nil, err
		}
	}
	return arch, nil
}

// compileDense runs the dense routing pipeline the batch planner uses
// up to 2048 routers: Build, AssignVirtualChannels, CompileTable.
func compileDense(arch *topology.Architecture) (*routing.CompiledTable, error) {
	table, err := routing.Build(arch)
	if err != nil {
		return nil, err
	}
	vcs, err := routing.AssignVirtualChannels(table, arch, nil)
	if err != nil {
		return nil, err
	}
	return routing.CompileTable(table, arch, vcs)
}

// BenchmarkCompileDenseBA256 times the full dense routing pipeline —
// Build, AssignVirtualChannels, CompileTable — on a 256-router
// Barabási–Albert topology, the size of a fresh serve-mix simulate.
func BenchmarkCompileDenseBA256(b *testing.B) { benchCompileDense(b, 256) }

// BenchmarkCompileDenseBA1k is BenchmarkCompileDenseBA256 at 1000
// routers, the dense sim-sweep architecture (ba1kFixture's compile,
// timed).
func BenchmarkCompileDenseBA1k(b *testing.B) { benchCompileDense(b, 1000) }

func benchCompileDense(b *testing.B, n int) {
	arch, err := baArchitecture(n, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compileDense(arch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepIdle1k is BenchmarkStepIdle at 1000 routers: the idle-
// cycle cost on a scale-free topology ~60x larger than the evaluation
// mesh. Activity-driven stepping keeps it O(1) — the figure should sit
// within a few ns of the 4x4 one — which is what makes 1k-router sweep
// points tractable at all.
func BenchmarkStepIdle1k(b *testing.B) {
	arch, table := ba1kFixture(b)
	net, err := noc.NewCompiled(DefaultNetworkConfig(), arch, table)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}

// BenchmarkSweepBA1k times one low-rate, short-window sweep point on
// the 1k-router scale-free topology through the batch engine: shared
// compiled table, pooled network, so the timed loop is pure simulation
// (the one-time routing compilation sits in the fixture). The ns/cycle
// metric is the scaling readout against the 4x4 mesh benchmarks.
func BenchmarkSweepBA1k(b *testing.B) {
	arch, table := ba1kFixture(b)
	pat, err := noc.NewPattern("uniform", 1000)
	if err != nil {
		b.Fatal(err)
	}
	pool := noc.NewNetworkPool()
	const warmup, measure = 50, 400
	b.ResetTimer()
	var last noc.RatePoint
	for i := 0; i < b.N; i++ {
		batch := &noc.Batch{
			Archs: []noc.BatchArch{{Cfg: DefaultNetworkConfig(), Arch: arch, Table: table}},
			Points: []noc.BatchPoint{{
				Pattern:      pat,
				Bits:         128,
				Rate:         0.005,
				WarmupCycles: warmup, MeasureCycles: measure,
				Seed: 7,
			}},
			Parallelism: 1,
			Pool:        pool,
		}
		pts, err := batch.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if pts[0].Delivered == 0 {
			b.Fatal("no traffic delivered")
		}
		last = pts[0]
	}
	b.ReportMetric(last.AvgLatency, "lat-cycles")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(warmup+measure), "ns/cycle")
}

// ba10k holds the 10k-router Barabási–Albert architecture for the
// sparse-compilation benchmark. Only the topology is shared — each
// benchmark iteration runs the full sparse pipeline itself, which is
// the thing being timed.
var ba10k struct {
	once sync.Once
	arch *topology.Architecture
	err  error
}

func ba10kFixture(b *testing.B) *topology.Architecture {
	b.Helper()
	ba10k.once.Do(func() {
		ba10k.arch, ba10k.err = baArchitecture(10000, 5)
	})
	if ba10k.err != nil {
		b.Fatal(ba10k.err)
	}
	return ba10k.arch
}

// BenchmarkCompileSparseBA10k times the demand-driven compile pipeline
// at the scale the dense path cannot reach: 10,000 scale-free routers
// under hotspot demand (every source x 4 hubs, ~40k pairs). Each
// iteration is the full sparse arm of the batch planner — SparseRouter,
// destination-rooted Precompute (4 Dijkstras, not 10k), VC assignment
// over the demanded routes, CompileTablePairs. The table-bytes metric
// is the resident footprint the 12-GB dense layout is being traded
// against; the CI gate tracks both it and the wall clock.
func BenchmarkCompileSparseBA10k(b *testing.B) {
	arch := ba10kFixture(b)
	n := len(arch.Nodes())
	demand := routing.NewPairSet(n)
	hubs := []int{0, 17, 4096, 9999}
	for s := 0; s < n; s++ {
		for _, h := range hubs {
			demand.Add(s, h)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var ct *routing.CompiledTable
	for i := 0; i < b.N; i++ {
		router, err := routing.NewSparseRouter(arch)
		if err != nil {
			b.Fatal(err)
		}
		rs, err := router.Precompute(demand, 0)
		if err != nil {
			b.Fatal(err)
		}
		vcs, err := routing.AssignVirtualChannels(rs, arch, demand.NodePairs(router.Frozen().IDs()))
		if err != nil {
			b.Fatal(err)
		}
		ct, err = routing.CompileTablePairs(rs, arch, vcs, demand)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ct.MemoryFootprint()), "table-bytes")
	b.ReportMetric(float64(ct.PairCount()), "pairs")
}

// busy1k holds the 1k-router network for the partitioned-step
// benchmark at the smaller scale: the shared ba1k dense table on a
// deep-buffered configuration (see busy10k for why).
var busy1k struct {
	once  sync.Once
	net   *noc.Network
	trace []noc.TrafficEvent
	err   error
}

func busy1kFixture(b *testing.B) (*noc.Network, []noc.TrafficEvent) {
	b.Helper()
	arch, table := ba1kFixture(b)
	busy1k.once.Do(func() {
		cfg := DefaultNetworkConfig()
		cfg.NumVCs = table.NumVCs()
		cfg.BufferFlits = 16
		net, err := noc.NewCompiled(cfg, arch, table)
		if err != nil {
			busy1k.err = err
			return
		}
		net.SetPacketRecycling(true)
		busy1k.net = net
		busy1k.trace = noc.UniformRandomTrace(net.Nodes(), 100, 128, 0.02, 11)
	})
	if busy1k.err != nil {
		b.Fatal(busy1k.err)
	}
	return busy1k.net, busy1k.trace
}

// BenchmarkStepBusy1k is BenchmarkStepBusy10k at 1000 routers: the
// partition-count sweep where per-cycle work is ~10x smaller, so the
// fixed per-cycle barrier cost weighs ~10x more. See BenchmarkStepBusy10k.
func BenchmarkStepBusy1k(b *testing.B) {
	net, trace := busy1kFixture(b)
	benchStepBusy(b, net, trace)
}

// busy10k holds the 10k-router network used by the partitioned-step
// benchmark: the ba10k topology under a landmark table (the only route
// source that serves uniform traffic at this scale) with buffers deeper
// than the router pipeline, so partitioned runs stay in the exact
// serial-equivalence regime.
var busy10k struct {
	once  sync.Once
	net   *noc.Network
	trace []noc.TrafficEvent
	err   error
}

func busy10kFixture(b *testing.B) (*noc.Network, []noc.TrafficEvent) {
	b.Helper()
	arch := ba10kFixture(b)
	busy10k.once.Do(func() {
		lm, err := routing.NewLandmarkRouter(arch, routing.DefaultLandmarks)
		if err != nil {
			busy10k.err = err
			return
		}
		table, err := routing.CompileTablePairs(lm, arch, lm.VCAssignment(), routing.NewPairSet(len(arch.Nodes())))
		if err != nil {
			busy10k.err = err
			return
		}
		cfg := DefaultNetworkConfig()
		cfg.NumVCs = table.NumVCs()
		cfg.BufferFlits = 16
		net, err := noc.NewCompiled(cfg, arch, table)
		if err != nil {
			busy10k.err = err
			return
		}
		net.SetPacketRecycling(true)
		busy10k.net = net
		busy10k.trace = noc.UniformRandomTrace(net.Nodes(), 100, 128, 0.01, 11)
	})
	if busy10k.err != nil {
		b.Fatal(busy10k.err)
	}
	return busy10k.net, busy10k.trace
}

// BenchmarkStepBusy10k times one busy 100-cycle uniform window (plus
// drain) on the 10k-router scale-free network at kernel partition
// counts 1, 2, 4 and 8 — the readout for the partitioned parallel
// kernel. On a multi-core host the p4/p8 rows should beat p1; on a
// single-core host they measure the pure partitioning overhead
// (boundary staging + per-cycle goroutine barrier). The boundary-stalls
// metric is the exactness certificate for the last iteration: zero
// means the partitioned run was byte-equivalent to serial.
func BenchmarkStepBusy10k(b *testing.B) {
	net, trace := busy10kFixture(b)
	benchStepBusy(b, net, trace)
}

func benchStepBusy(b *testing.B, net *noc.Network, trace []noc.TrafficEvent) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			net.Reset()
			if err := net.SetPartitions(p); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Reset()
				if err := net.Replay(trace, 100_000); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(net.BoundaryCreditStalls()), "boundary-stalls")
			if net.Stats().Delivered == 0 {
				b.Fatal("no traffic delivered")
			}
		})
	}
	net.Reset()
	if err := net.SetPartitions(1); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAblationBounding quantifies the Figure 3 lower-bound pruning:
// the same AES instance with and without the bound.
func BenchmarkAblationBounding(b *testing.B) {
	acg := AESACG(0.1)
	for _, disabled := range []bool{false, true} {
		name := "on"
		if disabled {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.Options{
				Mode:         core.CostLinks,
				Timeout:      60 * time.Second,
				DisableBound: disabled,
			}
			for i := 0; i < b.N; i++ {
				solveOnce(b, acg, opts)
			}
		})
	}
}

// BenchmarkAblationLibraryOrder compares trying the richest primitives
// first (default) against smallest-first.
func BenchmarkAblationLibraryOrder(b *testing.B) {
	acg := AESACG(0.1)
	libs := map[string]*primitives.Library{
		"rich-first":  primitives.MustDefault(),
		"small-first": primitives.MustDefault().Reversed(),
	}
	for _, name := range []string{"rich-first", "small-first"} {
		lib := libs[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Solve(core.Problem{
					ACG:     acg,
					Library: lib,
					Energy:  energy.Tech180,
					Options: core.Options{Mode: core.CostLinks, Timeout: 60 * time.Second},
				})
				if err != nil || res.Best == nil {
					b.Fatalf("solve failed: %v", err)
				}
			}
		})
	}
}

// BenchmarkAblationMatchCap varies how many matchings per primitive per
// level the search expands (the paper's tree uses one).
func BenchmarkAblationMatchCap(b *testing.B) {
	acg := AESACG(0.1)
	for _, cap := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("cap%d", cap), func(b *testing.B) {
			opts := core.Options{
				Mode:       core.CostLinks,
				MatchLimit: cap,
				Timeout:    20 * time.Second,
			}
			for i := 0; i < b.N; i++ {
				solveOnce(b, acg, opts)
			}
		})
	}
}

// BenchmarkExtensionFFT regenerates the distributed-FFT study: the
// hypercube workload on mesh vs customized topology (future-work
// extension; see EXPERIMENTS.md).
func BenchmarkExtensionFFT(b *testing.B) {
	placement := GridPlacement(16, 1, 1, 0.2)
	acg, err := FFTACG(16, 128, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	res, err := Synthesize(acg, Options{
		Mode: CostEnergy, Placement: placement, Timeout: 60 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("mesh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net, _, err := MeshNetwork(4, 4, placement, aesNetConfig())
			if err != nil {
				b.Fatal(err)
			}
			cycles, _, err := RunFFT(net, 16, 7, Tech180)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(cycles), "cycles/fft")
		}
	})
	b.Run("custom", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			net, err := res.NewNetwork(aesNetConfig())
			if err != nil {
				b.Fatal(err)
			}
			cycles, _, err := RunFFT(net, 16, 7, Tech180)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(cycles), "cycles/fft")
		}
	})
}

// BenchmarkExtensionRoutingStrategies compares deterministic XY against
// stochastic and adaptive O1TURN under uniform traffic (future-work
// extension).
func BenchmarkExtensionRoutingStrategies(b *testing.B) {
	o1, err := routing.NewMeshO1Turn(4, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []string{"xy", "stochastic", "adaptive"} {
		b.Run(strat, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := noc.DefaultConfig()
				cfg.NumVCs = 2
				net, _, err := MeshNetwork(4, 4, nil, cfg)
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(11))
				trace := noc.UniformRandomTrace(net.Nodes(), 500, 128, 0.05, 99)
				var chooser noc.RouteChooser
				switch strat {
				case "xy":
					chooser = func(ev noc.TrafficEvent) ([]graph.NodeID, []int, error) {
						return o1.Route(ev.Src, ev.Dst, 0)
					}
				case "stochastic":
					chooser = func(ev noc.TrafficEvent) ([]graph.NodeID, []int, error) {
						return o1.RandomRoute(ev.Src, ev.Dst, rng)
					}
				case "adaptive":
					chooser = func(ev noc.TrafficEvent) ([]graph.NodeID, []int, error) {
						return o1.AdaptiveRoute(ev.Src, ev.Dst, net.InputOccupancy)
					}
				}
				if err := net.ReplayWith(trace, 10_000_000, chooser); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(net.Stats().AvgLatency(), "lat-cycles")
			}
		})
	}
}

// BenchmarkSolverParallelism compares the serial search against the
// worker-pool search on the Figure 4a TGFF sweep — one iteration solves
// the whole 6..18-node range back to back. Results are identical at every
// worker count; on a multi-core host the parallel rows should be faster,
// and they must never be slower than serial beyond noise.
func BenchmarkSolverParallelism(b *testing.B) {
	var acgs []*graph.Graph
	for _, n := range []int{6, 10, 14, 18} {
		acg, err := tgff.Generate(tgff.DefaultConfig(n, 42))
		if err != nil {
			b.Fatal(err)
		}
		acgs = append(acgs, acg)
	}
	for _, par := range []int{1, 2, 0} {
		name := fmt.Sprintf("workers-%d", par)
		if par == 0 {
			name = fmt.Sprintf("workers-%d", runtime.GOMAXPROCS(0))
		}
		b.Run(name, func(b *testing.B) {
			opts := core.Options{Mode: core.CostLinks, Timeout: 30 * time.Second, Parallelism: par}
			for i := 0; i < b.N; i++ {
				for _, acg := range acgs {
					solveOnce(b, acg, opts)
				}
			}
		})
	}
}

// BenchmarkAblationIsoCache quantifies the memoized match cache on the AES
// decomposition: identical search, VF2 re-run from scratch vs served from
// the cache.
func BenchmarkAblationIsoCache(b *testing.B) {
	acg := AESACG(0.1)
	for _, disabled := range []bool{false, true} {
		name := "on"
		if disabled {
			name = "off"
		}
		b.Run(name, func(b *testing.B) {
			opts := core.Options{
				Mode:            core.CostLinks,
				Timeout:         60 * time.Second,
				DisableIsoCache: disabled,
			}
			for i := 0; i < b.N; i++ {
				solveOnce(b, acg, opts)
			}
		})
	}
}

// BenchmarkVF2GossipInAES measures the raw matcher on the hottest pattern
// of the AES decomposition: enumerating every MGG4 embedding in the ACG.
func BenchmarkVF2GossipInAES(b *testing.B) {
	acg := AESACG(0.1)
	mgg4 := primitives.MustDefault().ByName("MGG4")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, err := iso.FindAll(mgg4.Rep, acg, iso.Options{})
		if err != nil {
			b.Fatal(err)
		}
		// 4 columns x 24 automorphisms each.
		if len(ms) != 96 {
			b.Fatalf("matchings = %d, want 96", len(ms))
		}
	}
}
