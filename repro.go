package repro

import (
	"context"
	"errors"
	"fmt"
	"math/cmplx"
	"math/rand"
	"sync"
	"time"

	"repro/internal/aes"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fft"
	"repro/internal/floorplan"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/netlist"
	"repro/internal/noc"
	"repro/internal/primitives"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Aliases exporting the core building blocks through the facade. External
// code can use these names without importing internal packages.
type (
	// Graph is a directed application characterization graph (ACG).
	Graph = graph.Graph
	// NodeID identifies a core.
	NodeID = graph.NodeID
	// Edge is an ACG edge with volume (bits) and bandwidth (Mbps).
	Edge = graph.Edge
	// Library is the communication primitive library.
	Library = primitives.Library
	// Primitive is one library entry.
	Primitive = primitives.Primitive
	// Placement holds floorplanned core coordinates.
	Placement = floorplan.Placement
	// Core describes a block for the floorplanner.
	Core = floorplan.Core
	// EnergyModel is a technology bit-energy model.
	EnergyModel = energy.Model
	// Decomposition is a complete cover of an ACG by primitives plus a
	// remainder.
	Decomposition = core.Decomposition
	// Match is one matched primitive within a decomposition.
	Match = core.Match
	// Constraints are the Section 4.2 feasibility conditions.
	Constraints = core.Constraints
	// Architecture is a physical link topology.
	Architecture = topology.Architecture
	// RoutingTable maps (node, destination) to next hop.
	RoutingTable = routing.Table
	// VCAssignment is a deadlock-free virtual channel assignment.
	VCAssignment = routing.VCAssignment
	// PairSet is a demand set of ordered (src, dst) pairs for
	// demand-driven route compilation (see CompiledRoutingPairs).
	PairSet = routing.PairSet
	// Network is the cycle-level NoC simulator.
	Network = noc.Network
	// NetworkConfig sets simulator microarchitecture parameters.
	NetworkConfig = noc.Config
	// KeySchedule is an expanded AES-128 key.
	KeySchedule = aes.KeySchedule
	// MatchCache is an empty placeholder kept for existing callers.
	//
	// Deprecated: the solver no longer has a match cache.
	MatchCache = core.MatchCache
)

// Re-exported constructors and models.
var (
	// NewACG returns an empty application graph.
	NewACG = graph.New
	// DefaultNetworkConfig mirrors a small FPGA-era router (32-bit links,
	// 4-flit buffers, 3-stage pipeline, 100 MHz).
	DefaultNetworkConfig = noc.DefaultConfig
	// DefaultLibrary returns the paper's communication library. It is
	// built once per process and shared: callers must not modify it.
	DefaultLibrary = primitives.MustDefault
	// GridPlacement places n identical cores on a near-square grid.
	GridPlacement = floorplan.Grid
	// Tech180, Tech130 and Tech100 are built-in technology profiles.
	Tech180 = energy.Tech180
	Tech130 = energy.Tech130
	Tech100 = energy.Tech100
	// NewMatchCache returns an empty MatchCache.
	//
	// Deprecated: the solver no longer has a match cache.
	NewMatchCache = core.NewMatchCache
)

// CostMode selects the decomposition objective.
type CostMode = core.CostMode

// Cost modes: CostEnergy prices per the paper's Equation 5; CostLinks
// counts implementation links (the metric behind the paper's integer
// listings).
const (
	CostEnergy = core.CostEnergy
	CostLinks  = core.CostLinks
)

// Options configures Synthesize.
type Options struct {
	// Library defaults to the paper's library when nil.
	Library *Library
	// Placement supplies core coordinates; nil means unit link lengths.
	Placement *Placement
	// Energy defaults to the 180nm profile when zero.
	Energy EnergyModel
	// Mode selects the cost model.
	Mode CostMode
	// Constraints are the feasibility conditions (zero disables).
	Constraints Constraints
	// Timeout bounds the branch-and-bound search (0 = no limit).
	Timeout time.Duration
	// IsoTimeout bounds each isomorphism enumeration, the paper's
	// mitigation for permutation blow-up on unmatchable inputs (0 = no
	// limit). A truncated enumeration can change the result, so callers
	// that memoize results must key on it.
	IsoTimeout time.Duration
	// MatchLimit widens the per-primitive branching (0 = paper default
	// of one matching per primitive per level; negative = unlimited).
	MatchLimit int
	// DisableBound turns off branch-and-bound pruning (ablation).
	DisableBound bool
	// Parallelism sets the number of concurrent branch-and-bound workers
	// (0 = GOMAXPROCS, 1 = serial). The result is identical at every
	// worker count.
	Parallelism int
	// Deprecated: ignored. The solver no longer has a match cache.
	DisableIsoCache bool
	// Deprecated: ignored.
	IsoCacheEntries int
	// Deprecated: ignored.
	IsoCacheMinCost time.Duration
	// MaxLatency constrains the decomposition's volume-weighted average
	// hop latency (Decomposition.AvgHops) — the ε of the frontier
	// sweep's ε-constraint scheme. Zero disables the constraint; an
	// unsatisfiable ceiling makes synthesis fail with no feasible
	// decomposition.
	MaxLatency float64
	// InitialBound warm-starts the branch-and-bound incumbent with an
	// exclusive ceiling: a cost already known to be achievable (the
	// frontier sweep seeds it with the previous ε-point's cost). The
	// search returns only decompositions strictly cheaper than the
	// seed — byte-identical to the cold result when one exists, and
	// ErrInfeasible when the seed is already optimal — while pruning
	// the equal-cost tie space a cold solve must canonicalize, so it
	// explores strictly fewer nodes whenever ties exist. Zero disables.
	InitialBound float64
	// Deprecated: ignored.
	MatchCache *MatchCache
}

// ErrInfeasible is wrapped by Synthesize when the search space holds no
// decomposition satisfying the active constraints (bandwidth ceilings,
// MaxLatency) — as opposed to failing on a malformed input. Callers
// sweeping a constraint, like the frontier enumerator, test for it with
// errors.Is to tell "this ε is too tight" from a hard error.
var ErrInfeasible = errors.New("no feasible decomposition")

// InfeasibleError is the typed form of ErrInfeasible carrying the
// search statistics of the infeasibility proof. Proving a constraint
// set empty costs real branch-and-bound work (the frontier sweep's
// dominated-ε points are exactly such proofs), and before this type
// that effort was invisible: Synthesize returned a bare wrapped
// sentinel and grid points reported NodesExplored: 0. It matches
// ErrInfeasible via errors.Is; retrieve it with errors.As.
type InfeasibleError struct {
	// Stats is the full search accounting of the failed solve — nodes
	// explored, constraint failures, timeout/cancellation flags.
	Stats core.Stats
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("repro: %v (timed out: %v, canceled: %v, constraint failures: %d)",
		ErrInfeasible, e.Stats.TimedOut, e.Stats.Canceled, e.Stats.ConstraintFails)
}

// Unwrap makes errors.Is(err, ErrInfeasible) hold.
func (e *InfeasibleError) Unwrap() error { return ErrInfeasible }

// Result is the full synthesis output: the decomposition, the glued
// customized architecture, its routing table and the deadlock-free VC
// assignment, plus search statistics.
type Result struct {
	Decomposition *Decomposition
	Architecture  *Architecture
	Routing       RoutingTable
	VCs           VCAssignment
	Stats         core.Stats

	// compiled caches the complete route plans shared by every network built
	// over this result (sweep workers, the service's simulate path), so
	// the table is compiled once per synthesis, not once per simulation.
	compiledOnce sync.Once
	compiled     *routing.CompiledTable
	compiledErr  error
}

// CompiledRouting returns the result's routing table compiled into
// route/VC/out-slot plans for every ordered (src, dst) pair, computing
// it on first use and sharing the same immutable table across all
// callers.
func (r *Result) CompiledRouting() (*routing.CompiledTable, error) {
	r.compiledOnce.Do(func() {
		r.compiled, r.compiledErr = routing.CompileTable(r.Routing, r.Architecture, r.VCs)
	})
	return r.compiled, r.compiledErr
}

// CompiledRoutingPairs compiles only the demanded pairs of the result's
// routing table — for workloads (a permutation, a hotspot pattern) that
// draw a small subset of the n² pairs. Plans for demanded pairs are
// byte-identical to CompiledRouting's (same table, same VC assignment);
// pairs outside the demand resolve through the table's lazy compile
// cache at simulation time. A nil or all-pairs demand returns the
// shared complete table. Unlike CompiledRouting, demand-driven results
// are not memoized: each demand set is its own table.
func (r *Result) CompiledRoutingPairs(pairs *routing.PairSet) (*routing.CompiledTable, error) {
	if pairs == nil || pairs.All() {
		return r.CompiledRouting()
	}
	return routing.CompileTablePairs(r.Routing, r.Architecture, r.VCs, pairs)
}

// Synthesize runs the complete pipeline of the paper on an application
// graph: decompose into primitives (branch-and-bound, Section 4), glue
// the optimal implementations into the customized architecture (Section
// 3), derive the routing tables from the optimal schedules (Section 4.5)
// and assign virtual channels so the result is deadlock-free.
func Synthesize(acg *Graph, opts Options) (*Result, error) {
	return SynthesizeContext(context.Background(), acg, opts)
}

// SynthesizeContext is Synthesize with cancellation: the branch-and-bound
// search stops early when ctx is done or its deadline expires, returning
// the best feasible decomposition found so far (or an error if none was
// found in time). When the solve finds a decomposition but gluing,
// routing or VC assignment fails (a disconnected ACG glues into an
// architecture no routing table spans), the error comes with a Result
// that holds only the Decomposition and Stats.
func SynthesizeContext(ctx context.Context, acg *Graph, opts Options) (*Result, error) {
	if acg == nil {
		return nil, fmt.Errorf("repro: nil ACG")
	}
	lib := opts.Library
	if lib == nil {
		lib = DefaultLibrary()
	}
	em := opts.Energy
	if em == (EnergyModel{}) {
		em = Tech180
	}
	res, err := core.SolveContext(ctx, core.Problem{
		ACG:         acg,
		Library:     lib,
		Placement:   opts.Placement,
		Energy:      em,
		Constraints: opts.Constraints,
		Options: core.Options{
			Mode:         opts.Mode,
			Timeout:      opts.Timeout,
			IsoTimeout:   opts.IsoTimeout,
			MatchLimit:   opts.MatchLimit,
			DisableBound: opts.DisableBound,
			Parallelism:  opts.Parallelism,
			MaxLatency:   opts.MaxLatency,
			InitialBound: opts.InitialBound,
		},
	})
	if err != nil {
		return nil, err
	}
	if res.Best == nil {
		return nil, &InfeasibleError{Stats: res.Stats}
	}
	out := &Result{Decomposition: res.Best, Stats: res.Stats}
	arch, err := topology.FromDecomposition(acg.Name()+"-custom", acg, res.Best, opts.Placement)
	if err != nil {
		return out, err
	}
	table, err := routing.Build(arch)
	if err != nil {
		return out, err
	}
	vcs, err := routing.AssignVirtualChannels(table, arch, nil)
	if err != nil {
		return out, err
	}
	out.Architecture, out.Routing, out.VCs = arch, table, vcs
	return out, nil
}

// NewNetwork builds a simulator over a synthesized result. All networks
// built from the same result share one compiled routing table.
func (r *Result) NewNetwork(cfg NetworkConfig) (*Network, error) {
	ct, err := r.CompiledRouting()
	if err != nil {
		return nil, err
	}
	return noc.NewCompiled(cfg, r.Architecture, ct)
}

// MeshNetwork builds a rows x cols mesh baseline with XY routing and a
// simulator over it — the comparison architecture of Section 5.2.
func MeshNetwork(rows, cols int, placement *Placement, cfg NetworkConfig) (*Network, *Architecture, error) {
	arch, ct, err := CompileMesh(rows, cols, placement, nil)
	if err != nil {
		return nil, nil, err
	}
	net, err := noc.NewCompiled(cfg, arch, ct)
	if err != nil {
		return nil, nil, err
	}
	return net, arch, nil
}

// CompileMesh builds the rows x cols mesh and compiles its XY routing
// table and VC assignment into route plans: for every ordered pair when
// pairs is nil, else for exactly the demanded pairs (identical plans,
// lazy fallback for the rest). Every network over the mesh — a
// noc.BatchArch for sweeps and batches, or noc.NewCompiled — shares the
// one table.
func CompileMesh(rows, cols int, placement *Placement, pairs *routing.PairSet) (*Architecture, *routing.CompiledTable, error) {
	arch, err := topology.Mesh(rows, cols, placement)
	if err != nil {
		return nil, nil, err
	}
	table, err := routing.XY(rows, cols)
	if err != nil {
		return nil, nil, err
	}
	vcs, err := routing.AssignVirtualChannels(table, arch, nil)
	if err != nil {
		return nil, nil, err
	}
	ct, err := routing.CompileTablePairs(table, arch, vcs, pairs)
	if err != nil {
		return nil, nil, err
	}
	return arch, ct, nil
}

// AESACG returns the distributed-AES application graph of the paper's
// Figure 6a. bwPerBit scales edge bandwidths relative to volumes.
func AESACG(bwPerBit float64) *Graph { return aes.ACG(bwPerBit) }

// FFTACG returns the distributed n-point FFT application graph: the
// hypercube butterfly traffic, the second workload class of the NoC
// evaluation literature. sampleBits is the complex-sample message size.
func FFTACG(n, sampleBits int, bwPerBit float64) (*Graph, error) {
	return fft.ACG(n, sampleBits, bwPerBit)
}

// RunFFT executes the distributed FFT of the given random-seeded samples
// on the network, verifies the outputs against the direct DFT, and
// reports the transform's own timing and energy: both are counted from
// the cycle it started at, so a network that already ran traffic reports
// only this run.
func RunFFT(net *Network, n int, seed int64, em EnergyModel) (totalCycles int64, energyUJ float64, err error) {
	rng := rand.New(rand.NewSource(seed))
	samples := make([]complex128, n)
	for i := range samples {
		samples[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	startPJ := net.EnergyPJ(em)
	res, err := fft.TransformDistributed(net, samples, fft.DefaultDistConfig())
	if err != nil {
		return 0, 0, err
	}
	want := fft.DFT(samples)
	for k := range want {
		if cmplx.Abs(res.Output[k]-want[k]) > 1e-9*float64(n) {
			return 0, 0, fmt.Errorf("repro: distributed FFT bin %d deviates from DFT", k)
		}
	}
	return res.TotalCycles, (net.EnergyPJ(em) - startPJ) * 1e-6, nil
}

// TaskAssignment maps application tasks to network cores.
type TaskAssignment = mapping.Assignment

// MapTasks assigns application tasks to floorplanned cores minimizing
// communication energy — the third dimension of the paper's design space
// (Section 1), which the decomposition step assumes already done. It
// returns the assignment and the resulting ACG over core ids, ready for
// Synthesize.
func MapTasks(tasks *Graph, cores []NodeID, placement *Placement, em EnergyModel, seed int64) (TaskAssignment, *Graph, error) {
	res, err := mapping.Solve(mapping.Problem{
		Tasks:     tasks,
		Cores:     cores,
		Placement: placement,
		Energy:    em,
		Seed:      seed,
	})
	if err != nil {
		return nil, nil, err
	}
	acg, err := res.Assignment.Apply(tasks)
	if err != nil {
		return nil, nil, err
	}
	return res.Assignment, acg, nil
}

// VerilogNetlist emits a structural Verilog netlist of the synthesized
// architecture (router instances per radix, link channel wires, top-level
// local ports) — the hand-off artifact toward an FPGA prototype like the
// paper's Virtex-2 implementation.
func (r *Result) VerilogNetlist(moduleName string, flitBits int) (string, error) {
	return netlist.Verilog(r.Architecture, netlist.Options{
		ModuleName: moduleName,
		FlitBits:   flitBits,
		NumVCs:     r.VCs.NumVCs,
	})
}

// AESComparison reports one side of the paper's Section 5.2 prototype
// comparison.
type AESComparison struct {
	Name            string
	CyclesPerBlock  float64
	ThroughputMbps  float64
	AvgLatency      float64
	AvgPowerMW      float64
	EnergyPerBlock  float64 // microjoules
	Links           int
	DeliveredBlocks int
}

// RunAES encrypts the given number of random-ish blocks with the 16-node
// distributed AES on the provided network and reports the paper's
// metrics under the energy model. Cycles, latency, power and energy are
// the run's own, counted from the cycle it started at, so a network that
// already ran traffic reports only this run.
func RunAES(net *Network, name string, blocks int, em EnergyModel) (*AESComparison, error) {
	if blocks <= 0 {
		return nil, fmt.Errorf("repro: blocks = %d", blocks)
	}
	key := []byte("\x2b\x7e\x15\x16\x28\xae\xd2\xa6\xab\xf7\x15\x88\x09\xcf\x4f\x3c")
	ks, err := aes.ExpandKey(key)
	if err != nil {
		return nil, err
	}
	var pts [][]byte
	for i := 0; i < blocks; i++ {
		b := make([]byte, aes.BlockBytes)
		for j := range b {
			b[j] = byte(i*31 + j*7)
		}
		pts = append(pts, b)
	}
	before, startPJ := net.Stats(), net.EnergyPJ(em)
	res, err := aes.EncryptDistributed(net, ks, pts, aes.DefaultDistConfig())
	if err != nil {
		return nil, err
	}
	// Verify against the reference cipher: the simulation is only valid
	// if it computed real AES.
	for i, pt := range pts {
		want, err := aes.Encrypt(ks, pt)
		if err != nil {
			return nil, err
		}
		if string(want) != string(res.Ciphertexts[i]) {
			return nil, fmt.Errorf("repro: distributed ciphertext mismatch on block %d", i)
		}
	}
	cfg := net.Config()
	// Throughput per the paper: 128 bits per Delta cycles at the clock.
	throughput := 128.0 / res.CyclesPerBlock * cfg.ClockMHz
	energyPJ := net.EnergyPJ(em) - startPJ
	perBlockUJ := energyPJ / float64(blocks) * 1e-6
	// The same arithmetic as Network.AveragePowerMW, over the run's cycles.
	seconds := float64(res.TotalCycles) / (cfg.ClockMHz * 1e6)
	run := noc.Stats{
		Delivered:  res.Stats.Delivered - before.Delivered,
		LatencySum: res.Stats.LatencySum - before.LatencySum,
	}
	return &AESComparison{
		Name:            name,
		CyclesPerBlock:  res.CyclesPerBlock,
		ThroughputMbps:  throughput,
		AvgLatency:      run.AvgLatency(),
		AvgPowerMW:      energyPJ * 1e-12 / seconds * 1e3,
		EnergyPerBlock:  perBlockUJ,
		Links:           0,
		DeliveredBlocks: blocks,
	}, nil
}
