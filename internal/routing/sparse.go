package routing

// Demand-driven route sources for architectures too large to
// materialize a next-hop Table: Table and Build are themselves O(n²) in
// memory and time, so the 10k-router batch path routes from
// shortest-path trees computed per demanded root instead. A
// SparseRouter answers any pair from a bounded cache of source trees;
// Precompute resolves a whole PairSet ahead of time with a parallel
// worker pool, choosing between source- and destination-oriented trees
// by whichever needs fewer Dijkstras (a hotspot pattern demands every
// source but only |hubs| destinations — |hubs| reverse trees beat n
// forward ones).
//
// Routes are pure length-weighted shortest paths with the frozen-CSR
// tie-breaks of ShortestPathTree. They are deterministic, but not
// guaranteed hop-for-hop identical to Build's table (which installs
// first hops per source progressively and honors preferred routes);
// architectures carrying preferred schedule routes are rejected and
// must use the table pipeline.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/topology"
)

// sparseTreeCacheBound caps the number of shortest-path trees a
// SparseRouter retains. Each tree is 4 bytes per node (40 KB at 10k
// routers), so the bound keeps the live-routing cache near 10 MB while
// letting workloads with few distinct sources hit every time.
const sparseTreeCacheBound = 256

// SparseRouter is a Router that resolves each (src, dst) pair from the
// source's shortest-path tree, computing trees on demand into a bounded
// FIFO cache. Safe for concurrent use. It exists for the sparse
// compiled-table pipeline: ahead-of-time demand goes through
// Precompute, and the simulator's lazy plan cache falls back to Route
// for pairs outside the demand.
type SparseRouter struct {
	frz *graph.Frozen
	w   []float64
	ids []graph.NodeID

	mu      sync.Mutex
	scratch graph.TreeScratch
	trees   map[int][]int32
	order   []int
}

// NewSparseRouter builds a demand-driven router over the architecture's
// links. Architectures with preferred (schedule-derived) routes are
// rejected — honoring them requires the table pipeline — as are
// disconnected ones (typed ErrNoRoute).
func NewSparseRouter(arch *topology.Architecture) (*SparseRouter, error) {
	if arch == nil {
		return nil, fmt.Errorf("routing: nil architecture")
	}
	if len(arch.PreferredPairs()) > 0 {
		return nil, fmt.Errorf("routing: architecture %q has preferred routes; sparse routing would ignore them (use Build)", arch.Name)
	}
	if !arch.Connected() {
		return nil, fmt.Errorf("routing: architecture %q is disconnected: %w", arch.Name, ErrNoRoute)
	}
	frz := arch.Graph().Freeze()
	return &SparseRouter{
		frz:   frz,
		w:     lengthWeights(arch, frz),
		ids:   frz.IDs(),
		trees: make(map[int][]int32),
	}, nil
}

// Frozen returns the CSR view routes are resolved against.
func (r *SparseRouter) Frozen() *graph.Frozen { return r.frz }

// Route returns the shortest path from src to dst off src's tree.
func (r *SparseRouter) Route(src, dst graph.NodeID) ([]graph.NodeID, error) {
	si, sok := r.frz.IndexOf(src)
	di, dok := r.frz.IndexOf(dst)
	if !sok || !dok {
		return nil, fmt.Errorf("routing: route %d->%d: unknown node: %w", src, dst, &UnreachableError{Src: src, Dst: dst})
	}
	if si == di {
		return []graph.NodeID{src}, nil
	}
	r.mu.Lock()
	prev := r.tree(si)
	// Reconstruct under the lock: eviction may drop the tree once
	// released. Reconstruction is O(path), negligible next to Dijkstra.
	path, ok := graph.PathFromTree(prev, si, di)
	r.mu.Unlock()
	if !ok {
		return nil, &UnreachableError{Src: src, Dst: dst}
	}
	route := make([]graph.NodeID, len(path))
	for i, v := range path {
		route[i] = r.ids[v]
	}
	return route, nil
}

// tree returns the cached prev tree for root, computing and caching it
// on a miss. Caller holds r.mu.
func (r *SparseRouter) tree(root int) []int32 {
	if prev, ok := r.trees[root]; ok {
		return prev
	}
	_, prev := r.frz.ShortestPathTreeInto(root, r.w, &r.scratch)
	for len(r.trees) >= sparseTreeCacheBound && len(r.order) > 0 {
		delete(r.trees, r.order[0])
		r.order = r.order[1:]
	}
	owned := make([]int32, len(prev))
	copy(owned, prev)
	r.trees[root] = owned
	r.order = append(r.order, root)
	return owned
}

// TreeCount returns the number of currently cached trees (for tests).
func (r *SparseRouter) TreeCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.trees)
}

// RouteSet is a Router holding the precomputed routes of one demand
// set, falling back to its SparseRouter for anything outside it. The
// compile pipeline resolves each demanded route exactly once through a
// RouteSet and shares it between VC assignment and table compilation.
type RouteSet struct {
	frz      *graph.Frozen
	routes   map[int64][]graph.NodeID
	fallback Router
}

// Route returns the precomputed path, or delegates to the fallback.
func (rs *RouteSet) Route(src, dst graph.NodeID) ([]graph.NodeID, error) {
	if src == dst {
		return []graph.NodeID{src}, nil
	}
	si, sok := rs.frz.IndexOf(src)
	di, dok := rs.frz.IndexOf(dst)
	if sok && dok {
		if route, ok := rs.routes[pairKey(si, di)]; ok {
			return route, nil
		}
	}
	return rs.fallback.Route(src, dst)
}

// Len returns the number of precomputed routes.
func (rs *RouteSet) Len() int { return len(rs.routes) }

// Precompute resolves every pair of the demand set into a RouteSet
// using at most `parallelism` workers (0 = GOMAXPROCS). Pairs are
// grouped by source or by destination — whichever yields fewer distinct
// tree roots — and each group costs one Dijkstra; a destination-rooted
// tree yields the pair's path reversed, which is an equally shortest
// path on the undirected links. The result is deterministic for a given
// demand set at any parallelism.
func (r *SparseRouter) Precompute(pairs *PairSet, parallelism int) (*RouteSet, error) {
	if pairs == nil {
		return nil, fmt.Errorf("routing: precompute needs a demand set")
	}
	if pairs.All() {
		return nil, fmt.Errorf("routing: all-pairs demand on %d nodes requires the dense table pipeline", pairs.N())
	}
	if pairs.N() != len(r.ids) {
		return nil, fmt.Errorf("routing: demand set over %d nodes does not match router with %d", pairs.N(), len(r.ids))
	}
	sorted := pairs.Sorted()
	rs := &RouteSet{frz: r.frz, routes: make(map[int64][]graph.NodeID, len(sorted)), fallback: r}
	if len(sorted) == 0 {
		return rs, nil
	}

	srcs := make(map[int32]struct{})
	dstsSet := make(map[int32]struct{})
	for _, pr := range sorted {
		srcs[pr[0]] = struct{}{}
		dstsSet[pr[1]] = struct{}{}
	}
	reverse := len(dstsSet) < len(srcs)
	if reverse {
		// Group by destination: one reverse tree per distinct dst.
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i][1] != sorted[j][1] {
				return sorted[i][1] < sorted[j][1]
			}
			return sorted[i][0] < sorted[j][0]
		})
	}
	rootOf := func(pr [2]int32) int32 {
		if reverse {
			return pr[1]
		}
		return pr[0]
	}
	// Contiguous spans of sorted sharing a root; each span is one unit
	// of worker work.
	type span struct{ lo, hi int }
	var spans []span
	for lo := 0; lo < len(sorted); {
		hi := lo + 1
		for hi < len(sorted) && rootOf(sorted[hi]) == rootOf(sorted[lo]) {
			hi++
		}
		spans = append(spans, span{lo, hi})
		lo = hi
	}

	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(spans) {
		parallelism = len(spans)
	}
	routes := make([][]graph.NodeID, len(sorted)) // slot per pair: no locking
	errs := make([]error, len(spans))
	var next sync.Mutex
	cursor := 0
	claim := func() int {
		next.Lock()
		defer next.Unlock()
		if cursor >= len(spans) {
			return -1
		}
		c := cursor
		cursor++
		return c
	}
	var wg sync.WaitGroup
	for wk := 0; wk < parallelism; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch graph.TreeScratch
			for {
				gi := claim()
				if gi < 0 {
					return
				}
				sp := spans[gi]
				root := int(rootOf(sorted[sp.lo]))
				_, prev := r.frz.ShortestPathTreeInto(root, r.w, &scratch)
				for pi := sp.lo; pi < sp.hi; pi++ {
					s, d := int(sorted[pi][0]), int(sorted[pi][1])
					other := d
					if reverse {
						other = s
					}
					path, ok := graph.PathFromTree(prev, root, other)
					if !ok {
						errs[gi] = &UnreachableError{Src: r.ids[s], Dst: r.ids[d]}
						break
					}
					route := make([]graph.NodeID, len(path))
					if reverse {
						for i, v := range path {
							route[len(path)-1-i] = r.ids[v]
						}
					} else {
						for i, v := range path {
							route[i] = r.ids[v]
						}
					}
					routes[pi] = route
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for pi, pr := range sorted {
		rs.routes[pairKey(int(pr[0]), int(pr[1]))] = routes[pi]
	}
	return rs, nil
}
