package noc

// Batched multi-point simulation: many (architecture, pattern, rate)
// points run through one worker fleet, sharing per-architecture
// compiled routing tables and a pooled-network free-list so the
// expensive artifacts — route compilation (O(n^2) pairs) and network
// construction — are paid once per architecture, not once per point.
// Per-point seeds are absolute and results are written by index, so the
// output is byte-identical at every parallelism setting. The wire layer
// (SimRequest/SimResponse) is shared by the nocserve /v1/simulate bulk
// endpoint and the local CLI runners, which is what makes the two paths
// byte-comparable end to end.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/randgraph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// NetworkPool is a free-list of simulator networks keyed by compiled-
// table fingerprint plus hardware config. Keying by table content — not
// architecture identity — means two CompiledTable instances with equal
// plans share one pool slot, while equal topologies under different
// routing tables never do. Safe for concurrent use.
type NetworkPool struct {
	mu   sync.Mutex
	free map[poolKey][]*Network
}

type poolKey struct {
	table [32]byte
	cfg   Config
}

// NewNetworkPool returns an empty pool.
func NewNetworkPool() *NetworkPool {
	return &NetworkPool{free: make(map[poolKey][]*Network)}
}

// poolKeyFor mirrors NewCompiled's VC widening so the key computed at
// Acquire (from the caller's config) and at Release (from the built
// network's config) agree.
func poolKeyFor(cfg Config, table *routing.CompiledTable) poolKey {
	if v := table.NumVCs(); cfg.NumVCs < v {
		cfg.NumVCs = v
	}
	return poolKey{table: table.Fingerprint(), cfg: cfg}
}

// Acquire returns a cold network for (cfg, arch, table): a pooled one
// rewound by Reset when available, else a fresh NewCompiled build, which
// is cold already. This Reset is the only rewind a fault-free Batch
// point gets. Sticky per-network toggles (routing mode, packet
// recycling) survive pooling exactly as they survive Reset, so callers
// that depend on them reassert them after Acquire.
func (p *NetworkPool) Acquire(cfg Config, arch *topology.Architecture, table *routing.CompiledTable) (*Network, error) {
	if table == nil {
		return nil, fmt.Errorf("noc: pool acquire needs a compiled table")
	}
	key := poolKeyFor(cfg, table)
	p.mu.Lock()
	if list := p.free[key]; len(list) > 0 {
		net := list[len(list)-1]
		list[len(list)-1] = nil
		p.free[key] = list[:len(list)-1]
		p.mu.Unlock()
		net.Reset()
		return net, nil
	}
	p.mu.Unlock()
	return NewCompiled(cfg, arch, table)
}

// Release parks a network on the free-list. The network may be dirty
// (mid-flight traffic, installed faults); the next Acquire rewinds it.
func (p *NetworkPool) Release(net *Network) {
	if net == nil {
		return
	}
	key := poolKeyFor(net.cfg, net.plans)
	p.mu.Lock()
	p.free[key] = append(p.free[key], net)
	p.mu.Unlock()
}

// Idle returns the number of networks currently parked in the pool.
func (p *NetworkPool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, list := range p.free {
		n += len(list)
	}
	return n
}

// BatchArch is one architecture of a batch: hardware config, topology
// and the compiled routing table every point referencing it shares.
type BatchArch struct {
	Cfg   Config
	Arch  *topology.Architecture
	Table *routing.CompiledTable
}

// BatchPoint is one simulation point. Unlike SweepConfig's rate ladder,
// every knob — including the generator seed — is absolute and per
// point, so arbitrary point mixes across architectures batch together.
type BatchPoint struct {
	// Arch indexes Batch.Archs.
	Arch int
	// Pattern is the spatial pattern, built for the architecture's node
	// count.
	Pattern *Pattern
	// Bits is the packet payload size.
	Bits int
	// Rate is the offered load in packets per node per cycle.
	Rate float64
	// WarmupCycles/MeasureCycles are the standard warmup-discard windows.
	WarmupCycles  int64
	MeasureCycles int64
	// Batches is the batch-means CI batch count (default 10).
	Batches int
	// Seed is the point's absolute traffic-generator seed.
	Seed int64
	// Burst optionally layers on/off arrival modulation.
	Burst *BurstConfig
	// SaturationThreshold is the accepted/offered divergence bound
	// (default 0.9).
	SaturationThreshold float64
	// Faults, when non-nil, is installed before the point runs.
	Faults *FaultMap
	// Routing selects the route-resolution mode (default oblivious).
	Routing RoutingMode
}

// Batch runs many simulation points through the shared point fleet.
type Batch struct {
	Archs  []BatchArch
	Points []BatchPoint
	// Parallelism is the worker count (0 = GOMAXPROCS); results are
	// byte-identical at every setting.
	Parallelism int
	// Pool supplies and reclaims the worker networks. nil uses a
	// private pool; pass a shared one to keep networks warm across
	// batches of the same architectures.
	Pool *NetworkPool
	// OnPoint, when set, observes point i's network after the point
	// completes and before the network returns to the pool (the hook
	// batch output uses to capture per-point Stats). It is called from
	// worker goroutines — concurrently, but with distinct i — and must
	// not retain the network. On a failed point the network state is
	// unspecified.
	OnPoint func(i int, net *Network)
}

// Run simulates every point and returns the measurements by point
// index. Workers claim point indices atomically, draw a cold network for
// the point's architecture from the pool, install the point's faults if
// it has any, simulate, and write results by index, so the output is
// independent of worker count and scheduling. The first per-point error
// aborts the batch.
func (b *Batch) Run(ctx context.Context) ([]RatePoint, error) {
	if len(b.Points) == 0 {
		return nil, fmt.Errorf("noc: batch has no points")
	}
	// points is the validated copy the workers read, with the defaults
	// applied; the caller's slice is left as given.
	points := make([]BatchPoint, len(b.Points))
	for i, pt := range b.Points {
		if pt.Arch < 0 || pt.Arch >= len(b.Archs) {
			return nil, fmt.Errorf("noc: batch point %d references architecture %d of %d", i, pt.Arch, len(b.Archs))
		}
		a := &b.Archs[pt.Arch]
		if a.Arch == nil || a.Table == nil {
			return nil, fmt.Errorf("noc: batch architecture %d missing topology or compiled table", pt.Arch)
		}
		if pt.Pattern == nil {
			return nil, fmt.Errorf("noc: batch point %d has no pattern", i)
		}
		if n := len(a.Arch.Nodes()); pt.Pattern.n != n {
			return nil, fmt.Errorf("noc: batch point %d pattern built for %d nodes, architecture %d has %d",
				i, pt.Pattern.n, pt.Arch, n)
		}
		if pt.Rate <= 0 || pt.Rate > 1 {
			return nil, fmt.Errorf("noc: batch point %d rate %g outside (0, 1]", i, pt.Rate)
		}
		if err := checkPacketBits(pt.Bits, a.Cfg.FlitBits); err != nil {
			return nil, fmt.Errorf("noc: batch point %d: %w", i, err)
		}
		if err := checkWindows(pt.WarmupCycles, pt.MeasureCycles); err != nil {
			return nil, fmt.Errorf("noc: batch point %d: %w", i, err)
		}
		if pt.Batches <= 0 {
			pt.Batches = 10
		}
		if pt.SaturationThreshold <= 0 || pt.SaturationThreshold >= 1 {
			pt.SaturationThreshold = 0.9
		}
		points[i] = pt
	}
	pool := b.Pool
	if pool == nil {
		pool = NewNetworkPool()
	}
	workers := b.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(points))

	results := make([]RatePoint, len(points))
	errs := make([]error, len(points))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch Trace
			for {
				i := int(next.Add(1) - 1)
				if i >= len(points) {
					return
				}
				pt := &points[i]
				a := &b.Archs[pt.Arch]
				net, err := pool.Acquire(a.Cfg, a.Arch, a.Table)
				if err != nil {
					errs[i] = err
					continue
				}
				// Recycling is always on for fleet networks (the fleet
				// never retains packets past delivery) and the routing mode
				// is reasserted per point: both are cheap no-ops when
				// already set, and a pooled network may arrive configured
				// for a different point. Acquire handed the network over
				// cold, so only a faulted point rewinds it again, to
				// install its faults.
				net.SetPacketRecycling(true)
				errs[i] = net.SetRouting(pt.Routing)
				if errs[i] == nil && pt.Faults != nil {
					errs[i] = net.ResetWithFaults(pt.Faults)
				}
				if errs[i] == nil {
					results[i], scratch, errs[i] = simPoint(ctx, net, pt, scratch)
				}
				if b.OnPoint != nil {
					b.OnPoint(i, net)
				}
				pool.Release(net)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// maxSimNodes bounds wire-requested topologies. Architectures up to
// maxDenseSimNodes compile the classic complete all-pairs table; larger
// ones compile only the declared demand of their points' patterns (or
// none, under landmark routing, for uniform demand), which is what
// makes 10k-router batches feasible at megabytes instead of the ~12 GB
// a complete 10k table needs.
const maxSimNodes = 16384

// maxDenseSimNodes is the node count up to which BuildBatch always
// routes with the dense next-hop Table of the full Build pipeline and
// compiles every ordered pair. Below it, that is cheap, serves any
// demand with zero plan misses, and — crucially — preserves the exact
// historical route bytes the golden fixtures pin. Above it, the
// complete table (O(n²) plans) and the O(n²) next-hop map are both off
// the table, so routes come from per-root shortest-path trees
// (routing.SparseRouter) over the unioned demand.
const maxDenseSimNodes = 2048

// SimConfig is the wire form of the hardware Config; zero fields take
// the DefaultConfig values.
type SimConfig struct {
	FlitBits     int     `json:"flitBits,omitempty"`
	BufferFlits  int     `json:"bufferFlits,omitempty"`
	NumVCs       int     `json:"numVCs,omitempty"`
	LinkCycles   int     `json:"linkCycles,omitempty"`
	RouterCycles int     `json:"routerCycles,omitempty"`
	ClockMHz     float64 `json:"clockMHz,omitempty"`
}

func (c *SimConfig) resolve() Config {
	cfg := DefaultConfig()
	if c == nil {
		return cfg
	}
	if c.FlitBits > 0 {
		cfg.FlitBits = c.FlitBits
	}
	if c.BufferFlits > 0 {
		cfg.BufferFlits = c.BufferFlits
	}
	if c.NumVCs > 0 {
		cfg.NumVCs = c.NumVCs
	}
	if c.LinkCycles > 0 {
		cfg.LinkCycles = c.LinkCycles
	}
	if c.RouterCycles > 0 {
		cfg.RouterCycles = c.RouterCycles
	}
	if c.ClockMHz > 0 {
		cfg.ClockMHz = c.ClockMHz
	}
	return cfg
}

// SimArch names one architecture of a simulate request. Exactly one of
// Mesh, BA or Links must be set.
type SimArch struct {
	// Name labels the topology (optional).
	Name string `json:"name,omitempty"`
	// Mesh is "RxC", e.g. "4x4".
	Mesh string `json:"mesh,omitempty"`
	// BA is "n:m:seed": an n-node Barabási–Albert scale-free topology
	// with m attachments per new node, deterministic in seed.
	BA string `json:"ba,omitempty"`
	// Links is an explicit undirected link list over integer node ids;
	// node set = every id mentioned.
	Links [][2]graph.NodeID `json:"links,omitempty"`
}

func (a *SimArch) build(i int) (*topology.Architecture, error) {
	set := 0
	if a.Mesh != "" {
		set++
	}
	if a.BA != "" {
		set++
	}
	if len(a.Links) > 0 {
		set++
	}
	if set != 1 {
		return nil, fmt.Errorf("noc: sim architecture %d wants exactly one of mesh, ba or links", i)
	}
	switch {
	case a.Mesh != "":
		rows, cols, err := a.meshDims()
		if err != nil {
			return nil, fmt.Errorf("noc: sim architecture %d %v", i, err)
		}
		return topology.Mesh(rows, cols, nil)
	case a.BA != "":
		n, m, seed, err := a.baParams()
		if err != nil {
			return nil, fmt.Errorf("noc: sim architecture %d %v", i, err)
		}
		g, err := randgraph.BarabasiAlbert(n, m, 8, 64, seed)
		if err != nil {
			return nil, fmt.Errorf("noc: sim architecture %d: %w", i, err)
		}
		name := a.Name
		if name == "" {
			name = g.Name()
		}
		return archFromACG(name, g)
	default:
		name := a.Name
		if name == "" {
			name = fmt.Sprintf("sim-arch-%d", i)
		}
		seen := make(map[graph.NodeID]bool)
		var nodes []graph.NodeID
		for _, l := range a.Links {
			for _, id := range l {
				if !seen[id] {
					seen[id] = true
					nodes = append(nodes, id)
				}
			}
		}
		if len(nodes) > maxSimNodes {
			return nil, fmt.Errorf("noc: sim architecture %d has %d nodes, max %d", i, len(nodes), maxSimNodes)
		}
		arch := topology.New(name, nodes, nil)
		for _, l := range a.Links {
			if arch.HasLink(l[0], l[1]) {
				continue
			}
			if err := arch.AddLink(l[0], l[1], 0); err != nil {
				return nil, fmt.Errorf("noc: sim architecture %d link %d-%d: %w", i, l[0], l[1], err)
			}
		}
		return arch, nil
	}
}

// meshDims parses and bounds the Mesh spec.
func (a *SimArch) meshDims() (rows, cols int, err error) {
	if _, err := fmt.Sscanf(a.Mesh, "%dx%d", &rows, &cols); err != nil {
		return 0, 0, fmt.Errorf("bad mesh %q: %v", a.Mesh, err)
	}
	if rows < 1 || cols < 1 || rows > maxSimNodes || cols > maxSimNodes || rows*cols > maxSimNodes {
		return 0, 0, fmt.Errorf("mesh %q outside 1..%d nodes", a.Mesh, maxSimNodes)
	}
	return rows, cols, nil
}

// baParams parses and bounds the BA spec; randgraph.BarabasiAlbert
// checks the attachment count.
func (a *SimArch) baParams() (n, m int, seed int64, err error) {
	if _, err := fmt.Sscanf(a.BA, "%d:%d:%d", &n, &m, &seed); err != nil {
		return 0, 0, 0, fmt.Errorf("bad ba %q (want n:m:seed): %v", a.BA, err)
	}
	if n < 2 || n > maxSimNodes {
		return 0, 0, 0, fmt.Errorf("ba node count %d outside 2..%d", n, maxSimNodes)
	}
	return n, m, seed, nil
}

// portBound bounds the router port count (two per link plus one per
// node) of the architecture from its spec alone, without building it:
// exact for a mesh; for BA the m+1-node seed cycle plus m links per
// later node; for a link list two nodes and one link per entry. ok is
// false for a spec that build rejects.
func (a *SimArch) portBound() (ports int64, ok bool) {
	switch {
	case a.Mesh != "":
		rows, cols, err := a.meshDims()
		if err != nil {
			return 0, false
		}
		r, c := int64(rows), int64(cols)
		return r*c + 2*(r*(c-1)+c*(r-1)), true
	case a.BA != "":
		n, m, _, err := a.baParams()
		if err != nil || m < 1 || m >= n {
			return 0, false
		}
		return int64(n) + 2*(int64(m)+1+int64(m)*int64(n-m-1)), true
	default:
		return 4 * int64(len(a.Links)), true
	}
}

// archFromACG projects a directed application graph onto an undirected
// communication topology: one link per unordered node pair with an edge
// in either direction.
func archFromACG(name string, g *graph.Graph) (*topology.Architecture, error) {
	arch := topology.New(name, g.Nodes(), nil)
	seen := make(map[[2]graph.NodeID]bool)
	for _, e := range g.Edges() {
		a, b := e.From, e.To
		if a > b {
			a, b = b, a
		}
		if a == b || seen[[2]graph.NodeID{a, b}] {
			continue
		}
		seen[[2]graph.NodeID{a, b}] = true
		if err := arch.AddLink(a, b, 0); err != nil {
			return nil, err
		}
	}
	return arch, nil
}

// SimPoint is the wire form of one simulate point.
type SimPoint struct {
	// Arch indexes the request's archs list.
	Arch int `json:"arch"`
	// Pattern is a NewPattern spec ("uniform", "transpose",
	// "hotspot:0:0.5", ...).
	Pattern string `json:"pattern"`
	Bits    int    `json:"bits"`
	// Rate is the offered load in packets per node per cycle.
	Rate          float64 `json:"rate"`
	WarmupCycles  int64   `json:"warmupCycles"`
	MeasureCycles int64   `json:"measureCycles"`
	// Batches is the batch-means CI batch count (0 = default 10).
	Batches int `json:"batches,omitempty"`
	// Seed is the point's absolute traffic seed.
	Seed int64 `json:"seed"`
	// Routing is "oblivious" (default) or "adaptive".
	Routing string `json:"routing,omitempty"`
	// Partitions is kept for wire compatibility only: 0 (omitted) and 1
	// both select the serial kernel, the only one there is, and any
	// other value fails Check. The field stays in the
	// canonical encoding, so 0 and 1 keep their existing (distinct)
	// content addresses.
	Partitions int `json:"partitions,omitempty"`
	// IncludeStats attaches the point's measurement-window Stats to the
	// result, size-aware: per-element maps above the compact threshold
	// aggregate to min/mean/max (see Stats.CompactJSON).
	IncludeStats bool `json:"includeStats,omitempty"`
}

// SimRequest is the bulk simulate submission: shared architectures plus
// any number of points over them. Runtime knobs (parallelism) are
// deliberately not part of the request — the answer is byte-identical
// at every worker count, so they must not split the content address.
type SimRequest struct {
	Archs  []SimArch  `json:"archs"`
	Config *SimConfig `json:"config,omitempty"`
	Points []SimPoint `json:"points"`
}

// ErrPartitions rejects a SimPoint.Partitions value other than 0 or 1.
var ErrPartitions = errors.New("noc: partitions must be 0 or 1")

// ErrWindows rejects a point's cycle windows: a negative warmup, an
// empty measurement window, or a generated horizon warmup+measure above
// MaxTraceCycles.
var ErrWindows = errors.New("noc: bad cycle windows")

// checkWindows validates one point's warmup and measurement windows
// against ErrWindows, without overflowing on huge values.
func checkWindows(warmup, measure int64) error {
	if warmup < 0 || measure <= 0 || measure > MaxTraceCycles-warmup {
		return fmt.Errorf("%w: warmup=%d measure=%d (need warmup >= 0, measure > 0, warmup+measure <= %d)",
			ErrWindows, warmup, measure, MaxTraceCycles)
	}
	return nil
}

// Check is the admission check of a request: every point's partitions
// must be 0 or 1 (ErrPartitions), its cycle windows valid (ErrWindows)
// and its packets no longer than MaxTraceCycles flits (ErrConfig); the
// hardware config must be in bounds (ErrConfig: more than MaxVCs virtual
// channels, rings that overflow the kernel's int32 lane indices, or
// kernel state above MaxNetworkBytes). It sizes each architecture from
// its spec alone (SimArch.portBound) and allocates nothing in
// proportion to the request, so callers that queue requests run it
// before admitting them; BuildBatch runs it too, and NewCompiled repeats
// the size check against the built topology. Other point fields (rate,
// a nonpositive bit count) are checked when the batch runs.
func (r *SimRequest) Check() error {
	cfg := r.Config.resolve()
	if err := cfg.validate(); err != nil {
		return err
	}
	for i := range r.Archs {
		ports, ok := r.Archs[i].portBound()
		if !ok {
			continue // build reports the malformed spec
		}
		if err := cfg.checkSize(ports); err != nil {
			return fmt.Errorf("sim architecture %d: %w", i, err)
		}
	}
	for i := range r.Points {
		sp := &r.Points[i]
		if sp.Partitions != 0 && sp.Partitions != 1 {
			return fmt.Errorf("%w: sim point %d has %d", ErrPartitions, i, sp.Partitions)
		}
		if err := checkWindows(sp.WarmupCycles, sp.MeasureCycles); err != nil {
			return fmt.Errorf("sim point %d: %w", i, err)
		}
		if sp.Bits > 0 {
			if err := checkPacketBits(sp.Bits, cfg.FlitBits); err != nil {
				return fmt.Errorf("sim point %d: %w", i, err)
			}
		}
	}
	return nil
}

// Canonical returns the deterministic encoding of the (decoded,
// normalized) request used for content addressing: struct field order
// is fixed and there are no maps, so semantically identical requests
// encode identically.
func (r *SimRequest) Canonical() ([]byte, error) { return json.Marshal(r) }

// BuildBatch compiles a wire request into a runnable Batch: one
// topology + routing table per architecture, one Pattern per point.
// The compilation is the expensive part of a simulate call and is paid
// once per architecture here, never per point — and it is demand
// driven: patterns are built first, their Pairs() demand sets are
// unioned per architecture, and each table is compiled complete (small
// architectures) or over the union alone (large architectures; see
// compileBatchTable). The network
// pool keys on CompiledTable.Fingerprint, which covers the compiled
// pair set, so tables over different demand unions never share pooled
// simulator state.
func BuildBatch(req *SimRequest) (*Batch, error) {
	if len(req.Archs) == 0 {
		return nil, fmt.Errorf("noc: sim request has no architectures")
	}
	if len(req.Points) == 0 {
		return nil, fmt.Errorf("noc: sim request has no points")
	}
	if err := req.Check(); err != nil {
		return nil, err
	}
	cfg := req.Config.resolve()
	b := &Batch{Archs: make([]BatchArch, len(req.Archs)), Points: make([]BatchPoint, len(req.Points))}
	for i := range req.Archs {
		arch, err := req.Archs[i].build(i)
		if err != nil {
			return nil, err
		}
		b.Archs[i] = BatchArch{Cfg: cfg, Arch: arch}
	}
	// Patterns before tables: the per-architecture demand union decides
	// how much table to compile.
	demand := make([]*routing.PairSet, len(req.Archs))
	for i := range req.Points {
		sp := &req.Points[i]
		if sp.Arch < 0 || sp.Arch >= len(b.Archs) {
			return nil, fmt.Errorf("noc: sim point %d references architecture %d of %d", i, sp.Arch, len(b.Archs))
		}
		n := len(b.Archs[sp.Arch].Arch.Nodes())
		pat, err := NewPattern(sp.Pattern, n)
		if err != nil {
			return nil, fmt.Errorf("noc: sim point %d: %w", i, err)
		}
		mode, err := ParseRoutingMode(sp.Routing)
		if err != nil {
			return nil, fmt.Errorf("noc: sim point %d: %w", i, err)
		}
		if demand[sp.Arch] == nil {
			demand[sp.Arch] = routing.NewPairSet(n)
		}
		if err := demand[sp.Arch].AddUnion(pat.Pairs()); err != nil {
			return nil, fmt.Errorf("noc: sim point %d: %w", i, err)
		}
		b.Points[i] = BatchPoint{
			Arch:          sp.Arch,
			Pattern:       pat,
			Bits:          sp.Bits,
			Rate:          sp.Rate,
			WarmupCycles:  sp.WarmupCycles,
			MeasureCycles: sp.MeasureCycles,
			Batches:       sp.Batches,
			Seed:          sp.Seed,
			Routing:       mode,
		}
	}
	for i := range b.Archs {
		ct, err := compileBatchTable(b.Archs[i].Arch, demand[i])
		if err != nil {
			return nil, fmt.Errorf("noc: sim architecture %d: %w", i, err)
		}
		b.Archs[i].Table = ct
	}
	return b, nil
}

// compileBatchTable picks the route source for one architecture of a
// batch and compiles its demand. Up to maxDenseSimNodes it is the
// classic pipeline (Build, all-pairs AssignVirtualChannels) compiled
// over every ordered pair regardless of demand — cheap, miss-free and
// byte-identical to every fixture ever recorded. Above that, a declared
// sparse demand compiles exactly its pairs from per-root shortest-path
// trees, while all-pairs (uniform) demand — whose complete table would
// be the ~12 GB this path exists to avoid — routes through landmark
// trees instead: O(L·n) state, every plan resolved at simulation time
// through the table's bounded lazy compile cache (visible as
// Stats.PlanMisses).
func compileBatchTable(arch *topology.Architecture, demand *routing.PairSet) (*routing.CompiledTable, error) {
	n := len(arch.Nodes())
	if demand == nil {
		demand = routing.NewPairSet(n)
	}
	var (
		router routing.Router
		vcs    routing.VCAssignment
		pairs  = demand
	)
	switch {
	case n <= maxDenseSimNodes:
		table, err := routing.Build(arch)
		if err != nil {
			return nil, fmt.Errorf("routing: %w", err)
		}
		if vcs, err = routing.AssignVirtualChannels(table, arch, nil); err != nil {
			return nil, fmt.Errorf("VC assignment: %w", err)
		}
		router, pairs = table, nil
	case demand.All():
		lm, err := routing.NewLandmarkRouter(arch, routing.DefaultLandmarks)
		if err != nil {
			return nil, fmt.Errorf("routing: %w", err)
		}
		router, vcs, pairs = lm, lm.VCAssignment(), routing.NewPairSet(n)
	default:
		sparse, err := routing.NewSparseRouter(arch)
		if err != nil {
			return nil, fmt.Errorf("routing: %w", err)
		}
		rs, err := sparse.Precompute(demand, 0)
		if err != nil {
			return nil, fmt.Errorf("routing: %w", err)
		}
		if vcs, err = routing.AssignVirtualChannels(rs, arch, demand.NodePairs(sparse.Frozen().IDs())); err != nil {
			return nil, fmt.Errorf("VC assignment: %w", err)
		}
		router = rs
	}
	ct, err := routing.CompileTablePairs(router, arch, vcs, pairs)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return ct, nil
}

// SimPointResult is one point's measurement, echoing its coordinates.
type SimPointResult struct {
	Arch    int    `json:"arch"`
	Pattern string `json:"pattern"`
	RatePoint
	// Stats is the point's measurement-window statistics when requested
	// (IncludeStats), rendered size-aware through Stats.CompactJSON.
	Stats json.RawMessage `json:"stats,omitempty"`
}

// SimResponse is the bulk simulate answer. The encoding is canonical:
// byte-identical for a fixed request at every parallelism setting and
// across the local and service paths.
type SimResponse struct {
	Points []SimPointResult `json:"points"`
}

// EncodeJSON writes the canonical indented JSON form of the response.
func (r *SimResponse) EncodeJSON(w io.Writer) error {
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}

// RunSim builds and runs a wire request's batch and assembles the
// canonical response. parallelism is the fleet's worker count (0 =
// GOMAXPROCS); it affects wall-clock only, never the bytes.
func RunSim(ctx context.Context, req *SimRequest, parallelism int) (*SimResponse, error) {
	b, err := BuildBatch(req)
	if err != nil {
		return nil, err
	}
	b.Parallelism = parallelism
	statsEnc := make([]json.RawMessage, len(req.Points))
	var statsErr error
	var statsErrOnce sync.Once
	b.OnPoint = func(i int, net *Network) {
		if !req.Points[i].IncludeStats {
			return
		}
		enc, err := net.Stats().CompactJSON()
		if err != nil {
			statsErrOnce.Do(func() { statsErr = err })
			return
		}
		statsEnc[i] = enc
	}
	points, err := b.Run(ctx)
	if err != nil {
		return nil, err
	}
	if statsErr != nil {
		return nil, statsErr
	}
	res := &SimResponse{Points: make([]SimPointResult, len(points))}
	for i, pt := range points {
		res.Points[i] = SimPointResult{
			Arch:      req.Points[i].Arch,
			Pattern:   req.Points[i].Pattern,
			RatePoint: pt,
			Stats:     statsEnc[i],
		}
	}
	return res, nil
}
