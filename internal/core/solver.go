package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/iso"
)

// ErrNoACG is returned when the problem has no application graph.
var ErrNoACG = errors.New("decompose: nil or empty ACG")

// ErrNoLibrary is returned when the problem has no communication library.
var ErrNoLibrary = errors.New("decompose: nil or empty library")

// Solve runs the branch-and-bound decomposition of Figure 3 and returns
// the minimum-cost legal decomposition together with search statistics.
//
// If every complete decomposition violates the constraints, Best is nil.
// On timeout the best decomposition found so far (possibly nil) is
// returned with Stats.TimedOut set.
func Solve(p Problem) (Result, error) {
	return SolveContext(context.Background(), p)
}

// SolveContext is Solve with cancellation: the search stops early when the
// context is done (Stats.Canceled) or its deadline — combined with
// Options.Timeout, whichever is sooner — expires (Stats.TimedOut), and
// returns the best decomposition found so far.
//
// The search runs on Options.Parallelism concurrent workers. The ACG is
// frozen once into an immutable CSR (graph.Frozen); each worker performs
// depth-first branch-and-bound over a partition of the top-level candidate
// subtrees, carrying only an edge-subset bitmask (graph.EdgeMask) of the
// live edges instead of mutated graph copies — a tree step is a bitmask
// clone-and-clear, and the remaining graph is only materialized back into
// map form at improving leaves. The incumbent bound is shared atomically so
// a bound found in one subtree prunes all others. The returned
// decomposition is identical at every worker count: the incumbent orders
// complete decompositions by (cost, candRank sequence), a total order
// independent of discovery timing. (When a timeout or cancellation
// interrupts the search, the partial result may of course depend on how far
// each worker got.)
func SolveContext(ctx context.Context, p Problem) (Result, error) {
	if p.ACG == nil || p.ACG.NodeCount() == 0 {
		return Result{}, ErrNoACG
	}
	if p.Library == nil || p.Library.Len() == 0 {
		return Result{}, ErrNoLibrary
	}
	for _, e := range p.ACG.Edges() {
		if e.Volume < 0 || e.Bandwidth < 0 {
			return Result{}, fmt.Errorf("decompose: edge %v has negative annotation", e)
		}
	}

	sh, err := newShared(ctx, &p)
	if err != nil {
		return Result{}, err
	}
	// Figure 3: currentCost = 0; minCost = inf (or the warm-start seed).
	sh.inc.init(p.Options.InitialBound)

	// The root node is explored once, here; its candidate expansions become
	// the work units the workers partition among themselves.
	root := sh.newWorker()
	root.stats.NodesExplored++
	branches, rootLists := root.collectRootBranches()

	workers := []*worker{root}
	if root.stopped() {
		// The deadline expired or the context was canceled during the root
		// expansion itself: stopped() has latched the flags, and an empty
		// branch list must not be mistaken for a root leaf.
	} else if len(branches) == 0 {
		// No library graph matches the input at all: the root is a leaf and
		// the whole ACG is the remainder.
		root.leaf(sh.fullMask, nil, nil, 0, 0, sh.totalWeight)
	} else {
		par := p.Options.Parallelism
		if par <= 0 {
			par = runtime.GOMAXPROCS(0)
		}
		if par > len(branches) {
			par = len(branches)
		}
		var wg sync.WaitGroup
		for i := 1; i < par; i++ {
			w := sh.newWorker()
			workers = append(workers, w)
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.run(branches, rootLists)
			}()
		}
		root.run(branches, rootLists)
		wg.Wait()
	}

	var stats Stats
	for _, w := range workers {
		stats.add(w.stats)
	}
	stats.Workers = len(workers)
	stats.TimedOut = sh.timedOut.Load()
	stats.Canceled = sh.canceled.Load()
	stats.Elapsed = time.Since(sh.start)
	return Result{Best: sh.inc.take(), Stats: stats}, nil
}

// newShared freezes the problem into the read-only per-solve state every
// worker shares: the CSR ACG, its per-edge cover floors, cost, latency and
// signature tables, the library in dense pattern form, and the effective
// deadline and limits.
func newShared(ctx context.Context, p *Problem) (*shared, error) {
	sh := &shared{p: p, ctx: ctx, start: time.Now()}
	sh.facg = p.ACG.Freeze()
	sh.fullMask = graph.FullEdgeMask(sh.facg.EdgeCount())
	sh.latWeight, sh.totalWeight = latencyWeights(sh.facg)
	sh.edgeHash = edgeHashes(sh.facg)
	sh.prims = make([]primInfo, p.Library.Len())
	for i, prim := range p.Library.Primitives() {
		info, err := newPrimInfo(prim)
		if err != nil {
			return nil, err
		}
		sh.prims[i] = info
	}
	if p.Options.Timeout > 0 {
		sh.deadline = sh.start.Add(p.Options.Timeout)
	}
	if d, ok := ctx.Deadline(); ok && (sh.deadline.IsZero() || d.Before(sh.deadline)) {
		sh.deadline = d
	}
	sh.matchLimit = p.Options.MatchLimit
	if sh.matchLimit == 0 {
		sh.matchLimit = DefaultMatchLimit
	}
	sh.isoLimit = p.Options.IsoLimit
	if sh.isoLimit == 0 {
		sh.isoLimit = DefaultIsoLimit
	}
	// The cover floors enumerate each primitive once on the full ACG, with
	// a raw-matching budget of IsoLimit per ACG edge.
	budget := 0
	if sh.isoLimit > 0 {
		budget = sh.isoLimit * sh.facg.EdgeCount()
	}
	sh.consts = edgeConstants(p, sh.facg, sh.prims, budget, sh.deadline)
	return sh, nil
}

// shared is the state all DFS workers of one solve see: the read-only
// problem, its frozen CSR form, the deadline/cancellation signals and the
// incumbent best decomposition.
type shared struct {
	p   *Problem
	ctx context.Context

	// facg is the ACG frozen once per solve; every remaining graph of the
	// search is facg plus a live-edge bitmask. fullMask has every edge set;
	// prims are the library primitives in frozen-pattern index form,
	// indexed like Library.Primitives(); edgeHash[e] is edge e's Zobrist
	// term of graphSig, so a cover's signature is the XOR over its ids.
	facg     *graph.Frozen
	fullMask graph.EdgeMask
	prims    []primInfo
	edgeHash []graphSig

	// consts are the per-edge cover floors and remainder costs, shared
	// read-only by every worker's coster.
	consts edgeConsts

	// latWeight[e] is edge e's weight in the latency objective (its
	// volume, or 1 for every edge when the ACG carries no volume at all);
	// totalWeight is their sum, the AvgHops denominator.
	latWeight   []float64
	totalWeight float64

	matchLimit int
	isoLimit   int
	deadline   time.Time
	start      time.Time

	inc  incumbent
	next atomic.Int64 // index of the next unclaimed root branch

	stop     atomic.Bool
	timedOut atomic.Bool
	canceled atomic.Bool
}

func (sh *shared) newWorker() *worker {
	w := &worker{sh: sh, coster: newCoster(sh.p, sh.facg, sh.consts)}
	w.visitFn = w.visit
	return w
}

// worker runs depth-first branch-and-bound over root branches it claims
// from the shared counter. Its statistics are local (merged after the
// search) so the hot path stays free of shared writes. The remaining
// fields are the reusable state of enumerate (see enumerate.go): the VF2
// searcher, the dedup records of the running enumeration, and the cover
// lists of the nodes on the current path.
type worker struct {
	sh     *shared
	coster coster
	stats  Stats

	search  iso.Searcher
	visitFn func(core []int32) // w.visit, bound once
	cur     *primInfo          // primitive of the running enumeration
	arena   coverStore         // the running enumeration's covers
	recs    []coverRec         // the arena's covers' dedup records
	byCover coverIndex         // cover signature -> newest rec with it
	order   []int32            // arena indices, cost-sorted
	hops    []float64          // per sorted covered edge, its route hops
	levels  [][]coverList      // levels[d][p]: primitive p's list at path depth d
}

// level returns the cover lists of the path node at depth d (the number
// of matches taken), one per primitive. They are reused by every node the
// worker visits at that depth.
func (w *worker) level(d int) []coverList {
	for len(w.levels) <= d {
		w.levels = append(w.levels, make([]coverList, len(w.sh.prims)))
	}
	return w.levels[d]
}

// stopped reports whether the search should halt, latching the shared stop
// flag on the first deadline expiry or context cancellation so all workers
// wind down together.
func (w *worker) stopped() bool {
	sh := w.sh
	if sh.stop.Load() {
		return true
	}
	if !sh.deadline.IsZero() && time.Now().After(sh.deadline) {
		sh.timedOut.Store(true)
		sh.stop.Store(true)
		return true
	}
	select {
	case <-sh.ctx.Done():
		sh.canceled.Store(true)
		sh.stop.Store(true)
		return true
	default:
	}
	return false
}

// collectRootBranches mirrors the expansion step of dfs at the tree root,
// where minRank is empty so every candidate of every primitive branches:
// each one is a top-level work unit. It also returns the root's cover
// lists, one per primitive, which every worker then reads as the parent
// lists of its root branches; the branches' covered ids alias them. They
// are allocated here, outside any worker's levels, and are never written
// again.
func (w *worker) collectRootBranches() ([]candidate, []coverList) {
	sh := w.sh
	lists := make([]coverList, len(sh.prims))
	var out []candidate
	for primIdx := range lists {
		w.enumerate(primIdx, sh.fullMask, sh.facg.EdgeCount(), nil, &lists[primIdx])
		out = append(out, w.candidates(primIdx, &lists[primIdx])...)
	}
	return out, lists
}

// run claims root branches until none remain, exploring each subtree
// depth-first below the root's cover lists.
func (w *worker) run(branches []candidate, rootLists []coverList) {
	for {
		i := int(w.sh.next.Add(1)) - 1
		if i >= len(branches) {
			return
		}
		if w.stopped() {
			return
		}
		b := branches[i]
		w.stats.MatchingsTried++
		m := b.match
		m.Depth = 0
		mask := w.sh.fullMask.Without(b.coveredIDs)
		w.dfs(rootLists, mask, w.sh.facg.EdgeCount()-len(b.coveredIDs), []Match{m}, []string{b.rank}, m.Cost, b.wHops, w.sh.totalWeight-b.weight)
	}
}

// dfs explores one decomposition-tree node: parent holds the parent node's
// cover lists, mask selects the live edges of the graph still to cover
// (live is their count), matches the path from the root, ranks the
// candRank of each match, cost the accumulated match cost.
// wHops carries the weighted hop count of the matches taken so far and
// liveWeight the latency weight still live in mask; together they give the
// admissible latency lower bound of every leaf below this node.
//
// Because matches in one decomposition are pairwise edge-disjoint, a
// decomposition is a *set* of matches: every permutation of the same set
// reaches the same leaf. The search therefore expands matches in canonical
// rank order (library index, then covered-edge key) — only candidates
// ranking above the last expanded match branch, which eliminates the
// factorial permutation blow-up without excluding any decomposition.
func (w *worker) dfs(parent []coverList, mask graph.EdgeMask, live int, matches []Match, ranks []string, cost float64, wHops, liveWeight float64) {
	if w.stopped() {
		return
	}
	w.stats.NodesExplored++

	// Latency ceiling (the frontier sweep's ε-constraint): every leaf
	// below this node covers each live edge with at least one hop at its
	// weight, so (wHops+liveWeight)/totalWeight lower-bounds its AvgHops —
	// computed with the same operations as the leaf's AvgHops, so a
	// decomposition sitting exactly on the ceiling is never pruned by a
	// rounding mismatch. This is a feasibility condition, not the
	// optimality bound, so it applies under DisableBound too.
	slack := math.Inf(1)
	if max := w.sh.p.Options.MaxLatency; max > 0 && w.sh.totalWeight > 0 {
		if (wHops+liveWeight)/w.sh.totalWeight > max {
			w.stats.BranchesPruned++
			return
		}
		// Weighted extra-hop budget the subtree has left before it would
		// cross the ceiling; feeds the latency-aware piece of the bound.
		slack = max*w.sh.totalWeight - wHops - liveWeight
	}

	// Figure 3 bound: currentCost + minimum remaining cost vs minCost.
	// canBeat also resolves the equal-cost case canonically — the subtree
	// is kept only if a decomposition extending this rank prefix could
	// still order before the incumbent — so pruning never depends on which
	// worker found the incumbent first.
	if !w.sh.p.Options.DisableBound {
		if !w.sh.inc.canBeat(cost+w.coster.lowerBoundMask(mask, live, slack), ranks) {
			w.stats.BranchesPruned++
			return
		}
	}

	// Canonical ordering: no candidate of a primitive before minPrim may
	// expand below a higher-ranked match; the permutation that expands it
	// earlier covers that part of the space. Every list this node needs is
	// built before any child runs, so a child, which needs primitives from
	// its own match's onward, finds its parent's list for each of them.
	// Enumeration does not depend on the incumbent, so the tree is the same
	// as when each primitive was enumerated just before its expansion.
	minRank := ranks[len(ranks)-1]
	minPrim := rankPrim(minRank)
	lists := w.level(len(matches))
	for primIdx := minPrim; primIdx < len(lists); primIdx++ {
		w.enumerate(primIdx, mask, live, &parent[primIdx], &lists[primIdx])
	}
	expanded := false
	for primIdx := minPrim; primIdx < len(lists); primIdx++ {
		l := &lists[primIdx]
		for j := range w.capped(l) {
			if w.stopped() {
				return
			}
			rank := candRank(primIdx, l.src.cover(l.idx[j]))
			if rank <= minRank {
				continue
			}
			expanded = true
			w.stats.MatchingsTried++
			cand := w.candidateOf(primIdx, l, j, rank)
			cand.match.Depth = len(matches)
			next := mask.Without(cand.coveredIDs)
			w.dfs(lists, next, live-len(cand.coveredIDs), append(matches, cand.match), append(ranks, cand.rank), cost+cand.match.Cost, wHops+cand.wHops, liveWeight-cand.weight)
		}
	}

	if expanded {
		return
	}
	w.leaf(mask, matches, ranks, cost, wHops, liveWeight)
}

// leaf handles a node with no expandable matching. In the exhaustive
// search this coincides with the paper's leaf condition (no library graph
// matches the remaining graph, Figure 3: "ndCost = Cost of the Remaining
// Graph"). Under the match cap or the canonical-order filter a node may
// still have matches elsewhere in rank space; recording the leaf keeps the
// search sound — the result remains a legal exact-cover decomposition,
// with the un-expanded structure absorbed by the remainder.
//
// The remaining graph is materialized from the bitmask only here, and only
// after the incumbent check: interior tree nodes never rebuild map graphs.
func (w *worker) leaf(mask graph.EdgeMask, matches []Match, ranks []string, cost float64, wHops, liveWeight float64) {
	w.stats.LeavesReached++
	// Every remainder edge is a dedicated single-hop link, so the live
	// weight is exactly its weighted hop contribution.
	var avgHops float64
	if w.sh.totalWeight > 0 {
		avgHops = (wHops + liveWeight) / w.sh.totalWeight
	}
	if max := w.sh.p.Options.MaxLatency; max > 0 && avgHops > max {
		w.stats.ConstraintFails++
		return
	}
	rc := w.coster.remainderCostMask(mask)
	total := cost + rc
	if !w.sh.inc.canBeat(total, ranks) {
		return
	}
	d := &Decomposition{
		Matches:       append([]Match(nil), matches...),
		Remainder:     w.sh.facg.Materialize(mask),
		RemainderCost: rc,
		Cost:          total,
		AvgHops:       avgHops,
	}
	d.Remainder.SetName("remainder")
	if !w.coster.checkConstraints(d) {
		w.stats.ConstraintFails++
		return
	}
	w.sh.inc.offer(d, append([]string(nil), ranks...))
}

// incumbent is the best feasible decomposition found so far, shared by all
// workers. The cost is mirrored in an atomic word so the hot pruning path
// avoids the mutex; the mutex guards the (cost, sig, best) triple for the
// exact equal-cost comparisons.
//
// Decompositions are ordered by (cost, rank sequence): lower cost wins,
// and among equal costs the lexicographically smaller candRank sequence
// wins (seqLess). This is a strict total order over distinct
// decompositions — disjoint matches always differ in cover key, so two
// distinct decompositions differ in their rank sequences — which is what
// makes the parallel search's result independent of worker count.
type incumbent struct {
	bits atomic.Uint64 // Float64bits of the incumbent cost

	mu   sync.RWMutex
	cost float64
	sig  []string
	best *Decomposition
}

// init resets the incumbent. A positive seed warm-starts it as an
// EXCLUSIVE ceiling: pruning behaves as if a decomposition fractionally
// cheaper than the seed were already known, so the search hunts only
// strict improvements and prunes every subtree that can at best tie the
// seed — including the (often vast) set of equal-cost sig variants a
// cold solve must enumerate to canonicalize ties. When no strict
// improvement exists the solve ends with best == nil, which the frontier
// sweep reads as "this ε-point is dominated by its predecessor".
//
// The margin below the seed absorbs accumulation-order float noise: the
// admissible lower bound sums per-edge minima in mask order while a
// leaf's total accumulates match costs in path order, so an exact tie of
// the seed can land a few ulps on either side of it. The relative margin
// (~1e7 times the accumulated rounding noise, far below any real cost
// gap) keeps such ties out while provably admitting every genuine
// improvement, so a warm solve that does improve returns the
// byte-identical result of a cold solve.
func (in *incumbent) init(seed float64) {
	in.cost = math.Inf(1)
	if seed > 0 {
		in.cost = seed * (1 - 1e-9)
	}
	in.bits.Store(math.Float64bits(in.cost))
}

// canBeat reports whether a decomposition of the given cost whose rank
// sequence starts with (or equals) seq could still order before the
// incumbent. For a leaf, cost and seq are exact; for an internal node,
// cost is the admissible lower bound and seq the rank prefix — every leaf
// below the node has cost >= the bound and a rank sequence >= seq, so a
// false answer soundly prunes the subtree.
func (in *incumbent) canBeat(cost float64, seq []string) bool {
	// Lock-free fast path: the atomic mirror only ever decreases, so a
	// stale read is conservative in both directions.
	c := math.Float64frombits(in.bits.Load())
	if cost < c {
		return true
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	if cost != in.cost {
		return cost < in.cost
	}
	if in.best == nil {
		// The incumbent is a warm-start threshold, not a real
		// decomposition: anything at exactly the threshold can still
		// beat it. (Unreachable in practice — the threshold sits a
		// relative margin below any achievable cost — but kept so the
		// tie rules never depend on that.)
		return true
	}
	return seqLess(seq, in.sig)
}

// offer installs d as the incumbent if it orders before the current one.
// A warm-start threshold (best == nil) loses every equal-cost tie.
func (in *incumbent) offer(d *Decomposition, sig []string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if d.Cost > in.cost || (d.Cost == in.cost && in.best != nil && !seqLess(sig, in.sig)) {
		return false
	}
	in.cost, in.sig, in.best = d.Cost, sig, d
	in.bits.Store(math.Float64bits(d.Cost))
	return true
}

// take returns the final best decomposition (nil if none was feasible).
func (in *incumbent) take() *Decomposition {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.best
}

// seqLess orders rank sequences lexicographically element-wise, with a
// proper prefix ordering before its extensions.
func seqLess(a, b []string) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// candidate pairs a costed match with the ACG edges it covers as
// ascending frozen edge ids (for the bitmask update) and the canonical
// expansion rank built from them. wHops/weight are its latency-objective
// contributions — the weighted hop count of its mapped routes and the
// latency weight of its covered edges.
type candidate struct {
	match      Match
	coveredIDs []int32
	rank       string
	wHops      float64
	weight     float64
}

// latencyWeights computes the per-edge latency weights and their total:
// edge volumes, or 1 per edge when the whole ACG carries no volume (a
// pure-connectivity graph still has a meaningful average hop count).
func latencyWeights(facg *graph.Frozen) ([]float64, float64) {
	n := facg.EdgeCount()
	w := make([]float64, n)
	var totalVol float64
	for i := 0; i < n; i++ {
		totalVol += facg.Volume(i)
	}
	var total float64
	for i := 0; i < n; i++ {
		if totalVol > 0 {
			w[i] = facg.Volume(i)
		} else {
			w[i] = 1
		}
		total += w[i]
	}
	return w, total
}

// graphSig is a 128-bit Zobrist-style signature of a directed edge set:
// the XOR of a pseudorandom hash per edge. enumerate keys the covers of
// one enumeration by it (see coverIndex), confirming each hit by its
// sorted edge ids, so a collision costs a comparison, never a wrong
// merge.
type graphSig struct{ a, b uint64 }

// xor returns the signature with the edges whose combined signature is o
// removed (or, symmetrically, added — XOR toggles).
func (s graphSig) xor(o graphSig) graphSig {
	return graphSig{s.a ^ o.a, s.b ^ o.b}
}

// edgeHashes returns every frozen edge's signature term, indexed by edge
// id.
func edgeHashes(f *graph.Frozen) []graphSig {
	hs := make([]graphSig, f.EdgeCount())
	ids := f.IDs()
	for e := range hs {
		from, to := f.EdgeEndpoints(e)
		hs[e] = edgeSig(ids[from], ids[to])
	}
	return hs
}

func edgeSig(u, v graph.NodeID) graphSig {
	x := uint64(uint32(u))<<32 | uint64(uint32(v))
	return graphSig{splitmix64(x ^ 0x9e3779b97f4a7c15), splitmix64(x ^ 0xc2b2ae3d27d4eb4f)}
}

// splitmix64 is the finalizer of the SplitMix64 generator, a strong
// deterministic 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// MatchCache is kept so existing callers compile. The solver keeps no
// enumeration across solves, so a MatchCache holds nothing.
//
// Deprecated: ignored; the solver no longer has a match cache.
type MatchCache struct{}

// NewMatchCache returns an empty MatchCache; maxEntries is ignored.
//
// Deprecated: the solver no longer has a match cache.
func NewMatchCache(maxEntries int) *MatchCache {
	return &MatchCache{}
}

// Counters always reports zero hits and misses.
//
// Deprecated: the solver no longer has a match cache.
func (c *MatchCache) Counters() (hits, misses uint64) {
	return 0, 0
}

// candRank builds the canonical expansion rank of a candidate: library
// position then the ids of its covered edges, ascending, each a 4-byte
// big-endian word, so byte order is numeric order. Frozen edge ids ascend
// by (From, To) NodeID, so ranks order as the covered edges' endpoint
// pairs do at every NodeID. Disjoint matches always differ in covered
// edges, so ranks are unique within a decomposition.
func candRank(primIdx int, ids []int32) string {
	b := make([]byte, 4*(1+len(ids)))
	binary.BigEndian.PutUint32(b, uint32(primIdx))
	for i, e := range ids {
		binary.BigEndian.PutUint32(b[4*(i+1):], uint32(e))
	}
	return string(b)
}

// rankPrim decodes the library position at the head of a candRank.
func rankPrim(rank string) int {
	return int(rank[0])<<24 | int(rank[1])<<16 | int(rank[2])<<8 | int(rank[3])
}
