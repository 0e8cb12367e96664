// Package decompose implements the paper's primary contribution: the
// depth-first branch-and-bound algorithm (Section 4, Figure 3) that covers
// an Application Characterization Graph with communication primitives from
// a library at minimum total energy cost.
//
// The search walks a decomposition tree. At each level it asks, for every
// library primitive, whether the remaining graph contains a subgraph
// isomorphic to the primitive's representation graph (a matching,
// Definition 4). Every matching spawns a branch in which the matched edges
// are subtracted (Definition 2) and the search recurses. A branch ends when
// no primitive matches; the leftover edges form the remainder graph R,
// implemented as dedicated point-to-point links. The decomposition cost is
//
//	C(D) = Σ C(Mi) + C(R)                      (Equation 3)
//	C(M) = Σ_{e ∈ Mimp} Ebit(l_e) · v(e)       (Equation 5)
//
// and branches whose running cost plus an admissible estimate of the
// minimum remaining cost reach the best known cost are pruned (Figure 3).
package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/energy"
	"repro/internal/floorplan"
	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/primitives"
)

// Match is one matched primitive: an injective mapping from the
// primitive's representation vertices into ACG vertices, with its energy
// cost per Equation 5.
type Match struct {
	Primitive *primitives.Primitive
	Mapping   iso.Mapping
	Cost      float64
	// Depth is the tree level at which the match was taken (0-based),
	// used for the paper-style indented listing.
	Depth int
}

// CoveredEdges returns the ACG edges this match covers: the images of the
// representation edges under the mapping, sorted.
func (m Match) CoveredEdges() [][2]graph.NodeID {
	var out [][2]graph.NodeID
	for _, e := range m.Primitive.Rep.Edges() {
		out = append(out, [2]graph.NodeID{m.Mapping[e.From], m.Mapping[e.To]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// MappedRoute returns the route for the covered ACG edge (u,v) in ACG
// vertex space: the primitive's implementation route translated through the
// mapping. ok is false if (u,v) is not covered by this match. The mapping
// is injective and holds at most a primitive's few vertices, so the
// preimages of u and v are found by a scan rather than an inverted map.
func (m Match) MappedRoute(u, v graph.NodeID) ([]graph.NodeID, bool) {
	var pu, pv graph.NodeID
	var ok1, ok2 bool
	for p, a := range m.Mapping {
		switch a {
		case u:
			pu, ok1 = p, true
		case v:
			pv, ok2 = p, true
		}
	}
	if !ok1 || !ok2 {
		return nil, false
	}
	route, ok := m.Primitive.Routes[[2]graph.NodeID{pu, pv}]
	if !ok {
		return nil, false
	}
	mapped := make([]graph.NodeID, len(route))
	for i, p := range route {
		mapped[i] = m.Mapping[p]
	}
	return mapped, true
}

// String renders the match in the paper's output format:
// "1: MGG4,  Mapping: (1 1), (2 5), (3 9), (4 13)".
func (m Match) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d: %s,\tMapping:", m.Primitive.ID, m.Primitive.Name)
	for i, p := range m.Mapping.Pairs() {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, " (%d %d)", p[0], p[1])
	}
	return b.String()
}

// Decomposition is a complete decomposition: matches plus the remainder
// graph (Equation 2) and the total cost (Equation 3).
type Decomposition struct {
	Matches       []Match
	Remainder     *graph.Graph
	RemainderCost float64
	Cost          float64
	// AvgHops is the volume-weighted average hop count of the
	// implementation graph: sum of v(e)·hops(e) over all ACG edges divided
	// by the total volume, where a match-covered edge traverses its
	// primitive's mapped route and a remainder edge its dedicated
	// single-hop link. When the ACG carries no volume at all, every edge
	// weighs 1. This is the second objective of the Pareto frontier sweep
	// (internal/frontier); Options.MaxLatency constrains it.
	AvgHops float64
}

// PaperListing renders the decomposition in the indented format of the
// paper's Section 5 sample outputs.
func (d *Decomposition) PaperListing() string {
	var b strings.Builder
	fmt.Fprintf(&b, "COST: %.4g\n", d.Cost)
	for i, m := range d.Matches {
		b.WriteString(strings.Repeat(" ", i))
		b.WriteString(m.String())
		b.WriteString("\n")
	}
	if d.Remainder != nil && d.Remainder.EdgeCount() > 0 {
		b.WriteString(strings.Repeat(" ", len(d.Matches)))
		b.WriteString("0: Remaining Graph:")
		for _, e := range d.Remainder.Edges() {
			fmt.Fprintf(&b, " %d->%d", e.From, e.To)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CoverIsExact verifies the fundamental decomposition invariant: the
// multiset of covered edges plus remainder edges equals the input edge set
// with no edge covered twice.
func (d *Decomposition) CoverIsExact(input *graph.Graph) error {
	seen := make(map[[2]graph.NodeID]bool, input.EdgeCount())
	record := func(k [2]graph.NodeID) error {
		if seen[k] {
			return fmt.Errorf("edge %d->%d covered twice", k[0], k[1])
		}
		if !input.HasEdge(k[0], k[1]) {
			return fmt.Errorf("edge %d->%d not in input", k[0], k[1])
		}
		seen[k] = true
		return nil
	}
	for _, m := range d.Matches {
		for _, k := range m.CoveredEdges() {
			if err := record(k); err != nil {
				return err
			}
		}
	}
	if d.Remainder != nil {
		for _, e := range d.Remainder.Edges() {
			if err := record(e.Key()); err != nil {
				return err
			}
		}
	}
	if len(seen) != input.EdgeCount() {
		return fmt.Errorf("covered %d of %d input edges", len(seen), input.EdgeCount())
	}
	return nil
}

// Constraints are the feasibility conditions of Section 4.2.
type Constraints struct {
	// LinkBandwidthMbps is the capacity of one physical network link. The
	// aggregated bandwidth of all ACG flows mapped onto a link must not
	// exceed it. Zero disables the check.
	LinkBandwidthMbps float64
	// MaxBisectionMbps is the maximum bisection bandwidth the technology
	// provides for network links. The bisection bandwidth demanded by the
	// customized architecture must not exceed it. Zero disables the check.
	MaxBisectionMbps float64
}

// CostMode selects how matchings and remainders are priced.
type CostMode int

const (
	// CostEnergy prices per Equation 5: route energy times volume, using
	// the floorplan link lengths and the technology bit-energy model. This
	// is the paper's stated objective.
	CostEnergy CostMode = iota
	// CostLinks prices a matching at its implementation-link count and the
	// remainder at its directed edge count. This wiring-resource metric
	// reproduces the integer costs of the paper's sample listings (the
	// Figure 2 branch of cost 16; the AES decomposition of cost 28 =
	// 4 MGG4 x 4 links + 2 L4 x 4 links + 4 remainder edges).
	CostLinks
)

// Options tune the search.
type Options struct {
	// Mode selects the cost model (energy by default).
	Mode CostMode
	// MatchLimit caps how many matchings per primitive are expanded at
	// each level after cost-ranking and edge-set deduplication. Zero means
	// DefaultMatchLimit. Negative means unlimited.
	MatchLimit int
	// IsoLimit caps how many raw isomorphisms the VF2 enumeration returns
	// per (primitive, level) before deduplication. Zero means
	// DefaultIsoLimit. Negative means unlimited.
	IsoLimit int
	// Timeout bounds the whole search; on expiry the best decomposition
	// found so far is returned and Stats.TimedOut is set. Zero means no
	// limit.
	Timeout time.Duration
	// IsoTimeout bounds each isomorphism enumeration, the mitigation the
	// paper suggests for permutation blow-up on unmatchable inputs
	// (Section 5.1). Zero means no limit.
	IsoTimeout time.Duration
	// DisableBound turns off branch-and-bound pruning (ablation).
	DisableBound bool
	// Parallelism sets how many concurrent DFS workers explore the
	// decomposition tree. The top-level candidate branches are partitioned
	// across workers that share one atomic incumbent bound; results are
	// identical at every worker count (ties broken by candRank order).
	// Zero means GOMAXPROCS; 1 forces the serial search.
	Parallelism int
	// Deprecated: ignored. The solver no longer has a match cache.
	DisableIsoCache bool
	// Deprecated: ignored.
	IsoCacheEntries int
	// Deprecated: ignored.
	IsoCacheMinCost time.Duration
	// MaxLatency constrains the decomposition's volume-weighted average
	// hop latency (Decomposition.AvgHops): subtrees that cannot finish at
	// or below the ceiling are pruned exactly like the cost bound — every
	// still-live edge contributes at least one hop at its weight, an
	// admissible latency lower bound — and leaves above it are rejected
	// as infeasible. This is the ε of the frontier sweep's ε-constraint
	// scheme. Zero disables the constraint. Unlike DisableBound, the
	// latency prune is a feasibility condition and always applies.
	MaxLatency float64
	// InitialBound warm-starts the incumbent with an EXCLUSIVE cost
	// ceiling — a cost the caller already knows to be achievable (in the
	// frontier sweep, the previous ε-point's solution, which stays
	// feasible at every looser ε). The search then hunts only strict
	// improvements: subtrees that can at best tie the seed are pruned,
	// including the equal-cost sig variants a cold solve enumerates to
	// canonicalize ties, so a seeded solve explores strictly fewer nodes
	// whenever ties exist. If a strictly cheaper decomposition exists
	// the solve returns the byte-identical (cost, sig)-minimal result a
	// cold solve would find; if none does, it returns no decomposition,
	// which sweep callers read as "dominated by the seed's point" (the
	// seed itself remains the answer at this constraint). Zero disables
	// seeding.
	InitialBound float64
	// Deprecated: ignored.
	MatchCache *MatchCache
}

// DefaultMatchLimit bounds branching per primitive per level. The paper's
// decomposition tree (Figure 2) branches once per library graph at each
// level — the algorithm "continues with the next isomorphism from the
// library" — so the faithful default expands a single (cheapest) matching
// per primitive per level. Raise it to widen the search; the match-cap
// ablation bench quantifies the trade-off.
const DefaultMatchLimit = 1

// DefaultIsoLimit bounds raw VF2 enumeration per primitive per level.
const DefaultIsoLimit = 256

// Stats reports search effort, aggregated across all DFS workers.
type Stats struct {
	NodesExplored   int
	MatchingsTried  int
	BranchesPruned  int
	LeavesReached   int
	ConstraintFails int
	// TimedOut is set when Options.Timeout (or a context deadline) cut the
	// search short; Canceled when the context was canceled. In either case
	// the best decomposition found so far is still returned.
	TimedOut bool
	Canceled bool
	// Workers is the number of DFS workers the search actually used.
	Workers int
	// IsoCacheHits / IsoCacheMisses are always zero: the solver no longer
	// has a match cache. They stay for the wire format.
	IsoCacheHits   int
	IsoCacheMisses int
	Elapsed        time.Duration
}

// add accumulates one worker's counters into the aggregate.
func (s *Stats) add(o Stats) {
	s.NodesExplored += o.NodesExplored
	s.MatchingsTried += o.MatchingsTried
	s.BranchesPruned += o.BranchesPruned
	s.LeavesReached += o.LeavesReached
	s.ConstraintFails += o.ConstraintFails
}

// Problem bundles one decomposition instance.
type Problem struct {
	// ACG is the application characterization graph: vertices are cores,
	// edge annotations are v(e) in bits and b(e) in Mbps.
	ACG *graph.Graph
	// Library is the communication library L (Definition 4).
	Library *primitives.Library
	// Placement provides core coordinates from the initial floorplanning
	// step. May be nil, in which case all links have unit length.
	Placement *floorplan.Placement
	// Energy is the bit-energy model used for Equation 5.
	Energy energy.Model
	// Constraints are the feasibility conditions; zero values disable.
	Constraints Constraints
	// Options tune the search.
	Options Options
}

// Result is the solver output.
type Result struct {
	Best  *Decomposition
	Stats Stats
}
