package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/frontier"
	"repro/internal/noc"
	"repro/internal/randgraph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// counters are the layer counts taken at the call sites the spans time.
type counters struct {
	solves, nodes, pruned int64
	isoHits, isoLookups   int64
	tables                []*routing.CompiledTable
	planMisses, simCycles int64
	delivered             int64
	aesRuns               int64
	aesCyclesPerBlock     float64 // summed over aesRuns
	results, resultBytes  int64
	frontiers, frontPts   int64
	svcHitRatio           float64
	svcCoalesced          int64
	svcSolves             int64
}

func (t *trace) count(f func(c *counters)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	f(&t.c)
	t.mu.Unlock()
}

var library = repro.DefaultLibrary()

// synthesize runs one synthesis request: ACG → solve → glue → routes →
// VCs → compiled plans → canonical bytes. Untraced it is the public
// one-call path (repro.SynthesizeContext, CompiledRouting, EncodeJSON);
// traced it calls the same stages one by one inside spans. Both paths
// must give the same bytes, which the callers check.
func synthesize(ctx context.Context, tr *trace, parent, req int, acg *repro.Graph, opts repro.Options) (*repro.Result, []byte, error) {
	var res *repro.Result
	if tr == nil {
		var err error
		res, err = repro.SynthesizeContext(ctx, acg, opts)
		if err != nil {
			return nil, nil, err
		}
		if _, err := res.CompiledRouting(); err != nil {
			return nil, nil, err
		}
		enc, err := res.EncodeJSON()
		return res, enc, err
	}

	em := opts.Energy
	if em == (repro.EnergyModel{}) {
		em = repro.Tech180
	}
	lib := opts.Library
	if lib == nil {
		lib = library
	}
	sp := tr.begin("core.solve", parent, req)
	sol, err := core.SolveContext(ctx, core.Problem{
		ACG: acg, Library: lib, Placement: opts.Placement, Energy: em, Constraints: opts.Constraints,
		Options: core.Options{
			Mode: opts.Mode, Timeout: opts.Timeout, IsoTimeout: opts.IsoTimeout, MatchLimit: opts.MatchLimit,
			DisableBound: opts.DisableBound, Parallelism: opts.Parallelism, DisableIsoCache: opts.DisableIsoCache,
			IsoCacheEntries: opts.IsoCacheEntries, IsoCacheMinCost: opts.IsoCacheMinCost,
			MaxLatency: opts.MaxLatency, InitialBound: opts.InitialBound, MatchCache: opts.MatchCache,
		},
	})
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	if sol.Best == nil {
		return nil, nil, &repro.InfeasibleError{Stats: sol.Stats}
	}
	tr.count(func(c *counters) {
		c.solves++
		c.nodes += int64(sol.Stats.NodesExplored)
		c.pruned += int64(sol.Stats.BranchesPruned)
		c.isoHits += int64(sol.Stats.IsoCacheHits)
		c.isoLookups += int64(sol.Stats.IsoCacheHits + sol.Stats.IsoCacheMisses)
	})

	sp = tr.begin("topology.glue", parent, req)
	arch, err := topology.FromDecomposition(acg.Name()+"-custom", acg, sol.Best, opts.Placement)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("routing.build", parent, req)
	table, err := routing.Build(arch)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin("routing.vc", parent, req)
	vcs, err := routing.AssignVirtualChannels(table, arch, nil)
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	res = &repro.Result{Decomposition: sol.Best, Architecture: arch, Routing: table, VCs: vcs, Stats: sol.Stats}
	sp = tr.begin("routing.compile", parent, req)
	ct, err := res.CompiledRouting()
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	tr.count(func(c *counters) { c.tables = append(c.tables, ct) })
	sp = tr.begin("repro.encode", parent, req)
	enc, err := res.EncodeJSON()
	tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	tr.count(func(c *counters) { c.results++; c.resultBytes += int64(len(enc)) })
	return res, enc, nil
}

// withoutStats re-encodes a canonical result with its "stats" member
// removed: the search statistics carry wall-clock time, everything else
// is deterministic.
func withoutStats(enc []byte) ([]byte, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(enc, &m); err != nil {
		return nil, err
	}
	if _, ok := m["stats"]; !ok {
		return nil, fmt.Errorf("result has no stats member")
	}
	delete(m, "stats")
	return json.Marshal(m)
}

// denseLimit mirrors the node count up to which noc.BuildBatch compiles
// the dense all-pairs table; the staged build below follows the same
// three strategies so its tables match BuildBatch's.
const denseLimit = 2048

// buildBatch compiles a simulate request into a runnable batch.
// Untraced it is noc.BuildBatch. Traced it builds the same batch stage
// by stage — topology, route source, VC assignment, compile — inside
// spans, for the request shapes this benchmark sends: Barabási–Albert
// architectures under the default router configuration.
func buildBatch(tr *trace, parent, req int, sr *noc.SimRequest) (*noc.Batch, error) {
	if tr == nil {
		return noc.BuildBatch(sr)
	}
	sp := tr.begin("noc.build_batch", parent, req)
	defer tr.end(sp)
	if sr.Config != nil {
		return nil, fmt.Errorf("staged build supports only the default config")
	}
	b := &noc.Batch{Archs: make([]noc.BatchArch, len(sr.Archs)), Points: make([]noc.BatchPoint, len(sr.Points))}
	demand := make([]*routing.PairSet, len(sr.Archs))
	for i, a := range sr.Archs {
		arch, err := baArch(a)
		if err != nil {
			return nil, fmt.Errorf("arch %d: %w", i, err)
		}
		b.Archs[i] = noc.BatchArch{Cfg: noc.DefaultConfig(), Arch: arch}
		demand[i] = routing.NewPairSet(len(arch.Nodes()))
	}
	for i, p := range sr.Points {
		if p.Routing != "" || p.Partitions != 0 || p.IncludeStats {
			return nil, fmt.Errorf("point %d: staged build supports oblivious, serial, stats-free points", i)
		}
		pat, err := noc.NewPattern(p.Pattern, len(b.Archs[p.Arch].Arch.Nodes()))
		if err != nil {
			return nil, err
		}
		if err := demand[p.Arch].AddUnion(pat.Pairs()); err != nil {
			return nil, err
		}
		b.Points[i] = noc.BatchPoint{Arch: p.Arch, Pattern: pat, Bits: p.Bits, Rate: p.Rate,
			WarmupCycles: p.WarmupCycles, MeasureCycles: p.MeasureCycles, Batches: p.Batches, Seed: p.Seed}
	}
	for i := range b.Archs {
		ct, err := compileStaged(tr, sp, req, b.Archs[i].Arch, demand[i])
		if err != nil {
			return nil, fmt.Errorf("arch %d: %w", i, err)
		}
		b.Archs[i].Table = ct
	}
	return b, nil
}

// baArch builds the topology of a "ba": "n:m:seed" architecture the way
// the simulate request defines it: one link per node pair joined by an
// edge of the generated graph.
func baArch(a noc.SimArch) (*topology.Architecture, error) {
	var n, m int
	var seed int64
	if _, err := fmt.Sscanf(a.BA, "%d:%d:%d", &n, &m, &seed); err != nil {
		return nil, fmt.Errorf("staged build supports only ba architectures, got %+v", a)
	}
	g, err := randgraph.BarabasiAlbert(n, m, 8, 64, seed)
	if err != nil {
		return nil, err
	}
	name := a.Name
	if name == "" {
		name = g.Name()
	}
	arch := topology.New(name, g.Nodes(), nil)
	for _, e := range g.Edges() {
		a, b := min(e.From, e.To), max(e.From, e.To)
		if a != b && !arch.HasLink(a, b) {
			if err := arch.AddLink(a, b, 0); err != nil {
				return nil, err
			}
		}
	}
	return arch, nil
}

// compileStaged is the per-architecture table compile, one span per
// stage: the dense pipeline up to denseLimit nodes, landmark trees for
// all-pairs demand above it, per-root shortest-path trees otherwise.
func compileStaged(tr *trace, parent, req int, arch *topology.Architecture, demand *routing.PairSet) (*routing.CompiledTable, error) {
	n := len(arch.Nodes())
	var (
		router routing.Router
		table  routing.Table
		vcs    routing.VCAssignment
		pairs  *routing.PairSet
		err    error
	)
	sp := tr.begin("routing.build", parent, req)
	var sparse *routing.SparseRouter
	var lm *routing.LandmarkRouter
	switch {
	case n <= denseLimit:
		table, err = routing.Build(arch)
		router = table
	case demand.All():
		lm, err = routing.NewLandmarkRouter(arch, routing.DefaultLandmarks)
		router, pairs = lm, routing.NewPairSet(n)
	default:
		sparse, err = routing.NewSparseRouter(arch)
		if err == nil {
			router, err = sparse.Precompute(demand, 0)
		}
		pairs = demand
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("routing.vc", parent, req)
	switch {
	case lm != nil:
		vcs = lm.VCAssignment()
	case sparse != nil:
		vcs, err = routing.AssignVirtualChannels(router, arch, demand.NodePairs(sparse.Frozen().IDs()))
	default:
		vcs, err = routing.AssignVirtualChannels(router, arch, nil)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("routing.compile", parent, req)
	var ct *routing.CompiledTable
	if pairs == nil {
		ct, err = routing.CompileTable(table, arch, vcs)
	} else {
		ct, err = routing.CompileTablePairs(router, arch, vcs, pairs)
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	tr.count(func(c *counters) { c.tables = append(c.tables, ct) })
	return ct, nil
}

// simulate runs points [lo, hi) of a built batch and encodes them as
// the canonical simulate response. It returns the response bytes, the
// window-delivered packets and the host time of Batch.Run.
func simulate(ctx context.Context, tr *trace, parent, req int, sr *noc.SimRequest, b *noc.Batch, lo, hi, par int, pool *noc.NetworkPool) ([]byte, int64, time.Duration, error) {
	sub := &noc.Batch{Archs: b.Archs, Points: b.Points[lo:hi], Parallelism: par, Pool: pool}
	if tr != nil {
		sub.OnPoint = func(_ int, net *noc.Network) {
			st := net.Stats()
			cyc := net.Cycle()
			tr.count(func(c *counters) { c.planMisses += st.PlanMisses; c.simCycles += cyc })
		}
	}
	sp := tr.begin("noc.run", parent, req)
	start := time.Now()
	pts, err := sub.Run(ctx)
	host := time.Since(start)
	tr.end(sp)
	if err != nil {
		return nil, 0, 0, err
	}
	resp := &noc.SimResponse{Points: make([]noc.SimPointResult, len(pts))}
	var delivered int64
	for i, p := range pts {
		resp.Points[i] = noc.SimPointResult{Arch: sr.Points[lo+i].Arch, Pattern: sr.Points[lo+i].Pattern, RatePoint: p}
		delivered += p.Delivered
	}
	tr.count(func(c *counters) { c.delivered += delivered })
	var buf bytes.Buffer
	sp = tr.begin("noc.encode", parent, req)
	err = resp.EncodeJSON(&buf)
	tr.end(sp)
	return buf.Bytes(), delivered, host, err
}

// The Section 5.2 prototype comparison, set up as cmd/experiments
// -table aes sets it up: Figure 6a synthesized in links mode on a 4×4
// grid floorplan, ten blocks on each network, the 180 nm energy model.
var (
	aesPlacement = floorplan.Grid(16, 1, 1, 0.2)
	aesConfig    = noc.Config{FlitBits: 32, BufferFlits: 4, NumVCs: 1, LinkCycles: 1, RouterCycles: 3, ClockMHz: 100}
)

const aesBlocks = 10

// Paper figures for the customized architecture against the mesh.
const (
	paperTputPct   = 36.0
	paperEnergyPct = -51.0
)

// aesModel is one reading of the AES comparison.
type aesModel struct {
	tputPct, energyPct float64
	customCPB          float64
	delivered          int64
	host               time.Duration
}

func (a *aesModel) tputErrPts() float64   { return math.Abs(a.tputPct - paperTputPct) }
func (a *aesModel) energyErrPts() float64 { return math.Abs(a.energyPct - paperEnergyPct) }

// compareAES encrypts the blocks on the customized architecture of res
// and on the 4×4 XY mesh; RunAES checks every ciphertext.
func compareAES(tr *trace, parent, req int, res *repro.Result) (*aesModel, error) {
	run := func(name string, mk func() (*repro.Network, error)) (*repro.AESComparison, int64, time.Duration, error) {
		net, err := mk()
		if err != nil {
			return nil, 0, 0, err
		}
		sp := tr.begin("aes.run", parent, req)
		start := time.Now()
		c, err := repro.RunAES(net, name, aesBlocks, repro.Tech180)
		host := time.Since(start)
		tr.end(sp)
		if err != nil {
			return nil, 0, 0, err
		}
		return c, net.Stats().Delivered, host, nil
	}
	custom, d1, h1, err := run("custom", func() (*repro.Network, error) { return res.NewNetwork(aesConfig) })
	if err != nil {
		return nil, err
	}
	mesh, d2, h2, err := run("mesh", func() (*repro.Network, error) {
		net, _, err := repro.MeshNetwork(4, 4, aesPlacement, aesConfig)
		return net, err
	})
	if err != nil {
		return nil, err
	}
	pct := func(a, b float64) float64 { return (a - b) / b * 100 }
	m := &aesModel{
		tputPct:   pct(custom.ThroughputMbps, mesh.ThroughputMbps),
		energyPct: pct(custom.EnergyPerBlock, mesh.EnergyPerBlock),
		customCPB: custom.CyclesPerBlock,
		delivered: d1 + d2,
		host:      h1 + h2,
	}
	tr.count(func(c *counters) { c.aesRuns++; c.aesCyclesPerBlock += m.customCPB })
	return m, nil
}

// aesLinksOptions synthesizes the Figure 6a instance of the AES
// comparison.
func aesLinksOptions(par int) repro.Options {
	return repro.Options{Mode: repro.CostLinks, Placement: aesPlacement, Timeout: 60 * time.Second, Parallelism: par}
}

// enumerate runs a frontier sweep over acg with the wire options of a
// /v1/frontier submission and returns its canonical NDJSON document.
// The sweep's shared match cache is the benchmark's, so its hits count
// toward core.iso_hit_ratio.
func enumerate(ctx context.Context, tr *trace, parent, req int, acg *repro.Graph, points, par int) ([]byte, error) {
	opts, err := synthOptions.ToOptions()
	if err != nil {
		return nil, err
	}
	opts.Parallelism = par
	opts.MatchCache = repro.NewMatchCache(0)
	sp := tr.begin("frontier.enumerate", parent, req)
	res, err := frontier.Enumerate(ctx, acg, frontier.Options{Points: points, Synth: opts})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	hits, misses := opts.MatchCache.Counters()
	tr.count(func(c *counters) {
		c.frontiers++
		c.frontPts += int64(len(res.Points))
		c.isoHits += int64(hits)
		c.isoLookups += int64(hits + misses)
	})
	var buf bytes.Buffer
	err = res.EncodeNDJSON(&buf)
	return buf.Bytes(), err
}
