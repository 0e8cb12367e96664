package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/primitives"
)

// primInfo is one library primitive in the dense index space of its
// frozen representation graph — the space the VF2 visitor reports
// matchings in — built once per solve so that enumerate never consults the
// map-graph primitive for a raw matching.
type primInfo struct {
	prim *primitives.Primitive
	pat  *graph.Frozen
	// from[r] -> to[r] is representation edge r as pattern dense indices,
	// in canonical (From, To) order: the pattern's frozen edge-id order,
	// which is also the Rep.Edges() order Equation 5 sums in.
	from, to []int32
	// routes[r] is edge r's implementation route as pattern dense
	// indices, nil when the primitive routes none; hops[r] is its hop
	// count (1 without a multi-vertex route).
	routes [][]int32
	hops   []float64
	links  int // ImplLinkCount, the link-mode match cost
}

func newPrimInfo(prim *primitives.Primitive) (primInfo, error) {
	pat := prim.Rep.Freeze()
	k := pat.EdgeCount()
	pi := primInfo{
		prim:   prim,
		pat:    pat,
		from:   make([]int32, k),
		to:     make([]int32, k),
		routes: make([][]int32, k),
		hops:   make([]float64, k),
		links:  prim.ImplLinkCount(),
	}
	for r := 0; r < k; r++ {
		pi.from[r], pi.to[r] = pat.EdgeEndpoints(r)
		pi.hops[r] = 1
		route, ok := prim.Routes[[2]graph.NodeID{pat.IDOf(int(pi.from[r])), pat.IDOf(int(pi.to[r]))}]
		if !ok {
			continue
		}
		dense := make([]int32, len(route))
		for i, v := range route {
			idx, ok := pat.IndexOf(v)
			if !ok {
				return primInfo{}, fmt.Errorf("decompose: primitive %s routes through vertex %d outside its representation graph", prim.Name, v)
			}
			dense[i] = int32(idx)
		}
		pi.routes[r] = dense
		if len(route) > 1 {
			pi.hops[r] = float64(len(route) - 1)
		}
	}
	return pi, nil
}

// coverRec is the dedup record of one cover in the running enumeration;
// the cover itself is the same index of the worker's arena.
type coverRec struct {
	sig  graphSig
	next int32 // older rec with the same sig (a 128-bit collision), or -1
}

// coverStore holds the distinct covers one VF2 enumeration found, in
// first-seen order: cover i's sorted edge ids at ids[i*k:(i+1)*k], the
// core of its cheapest raw matching at cores[i*pn:(i+1)*pn] and that
// matching's cost at costs[i], k and pn being the primitive's edge and
// vertex counts.
type coverStore struct {
	ids, cores []int32
	costs      []float64
	k, pn      int
}

// cover returns cover i's sorted edge ids, capped so an append cannot
// overwrite the next cover.
func (s *coverStore) cover(i int32) []int32 {
	return s.ids[int(i)*s.k : int(i+1)*s.k : int(i+1)*s.k]
}

// core returns cover i's best raw matching as a pattern -> ACG dense
// index array.
func (s *coverStore) core(i int32) []int32 { return s.cores[int(i)*s.pn : int(i+1)*s.pn] }

// coverList is one primitive's cover list at one tree node: every
// distinct cover of the node's remaining graph, as indices into src,
// stable-sorted by cost over first-seen order and not yet capped at
// MatchLimit. src is the list's own store when the node ran VF2, or the
// store of the ancestor whose list it inherits; that ancestor is on the
// current search path (or is the root), so its store stays put while the
// list is in use.
//
// complete marks a list whose enumeration ran to its end: VF2 stopped
// below IsoLimit and no deadline cut it. A child's list can then be taken
// from it without a search (see enumerate). A list that is not complete
// keeps only its capped head, the covers its own node expands.
type coverList struct {
	own      coverStore
	src      *coverStore
	idx      []int32
	complete bool
}

// enumerate fills out with the cover list of one primitive in the
// remaining graph (the frozen ACG restricted to mask, live edges): its
// matchings deduplicated by covered edge set, keeping the cheapest mapping
// (two matchings that remove the same edges lead to identical subtrees,
// so only the cheaper embedding can belong to the optimum), ranked by
// cost. The MatchLimit cap applies when candidates are drawn from it.
//
// parent is the primitive's list at the parent node, or nil at the root.
// When it is complete, the list is inherited instead of searched for. The
// child's remaining graph is the parent's minus one match's covered
// edges, and matching is monomorphism, so the child's raw matchings are
// exactly the parent's whose covered edges are all still live, in the
// same VF2 order: each candidate row under the smaller mask is an
// order-preserving subsequence of the row under the larger. A surviving
// cover keeps all its raw matchings, hence its cheapest core and its
// first-seen place, and the stable cost sort of a subsequence is that
// subsequence of the sorted list. So the child's list is the parent's
// filtered by mask, and is complete in turn; the filter runs no VF2, no
// edge lookup and no costing.
//
// Otherwise VF2 runs. Raw matchings never leave dense index space: the
// visitor hands each one over as a core array, and visit derives its
// covered edge ids, their signature and its Equation 5 cost straight from
// it into the worker's arena, which is then copied into the list's own
// store.
func (w *worker) enumerate(primIdx int, mask graph.EdgeMask, live int, parent, out *coverList) {
	pi := &w.sh.prims[primIdx]
	out.idx = out.idx[:0]
	out.src = &out.own
	if live < len(pi.from) || w.sh.facg.NodeCount() < pi.prim.Size {
		// No monomorphism fits: the empty list is complete.
		out.complete = true
		return
	}
	if parent != nil && parent.complete {
		out.src = parent.src
		out.idx = slices.Grow(out.idx, len(parent.idx))
		for _, i := range parent.idx {
			if allLive(mask, parent.src.cover(i)) {
				out.idx = append(out.idx, i)
			}
		}
		out.complete = true
		return
	}

	opts := iso.Options{}
	if w.sh.isoLimit > 0 {
		opts.Limit = w.sh.isoLimit
	}
	if w.sh.p.Options.IsoTimeout > 0 {
		opts.Deadline = time.Now().Add(w.sh.p.Options.IsoTimeout)
	}
	if !w.sh.deadline.IsZero() && (opts.Deadline.IsZero() || w.sh.deadline.Before(opts.Deadline)) {
		opts.Deadline = w.sh.deadline
	}
	ar := &w.arena
	ar.k, ar.pn = len(pi.from), pi.pat.NodeCount()
	w.cur = pi
	defer w.resetArena()
	// A deadline may truncate the enumeration: the matchings found so far
	// are still usable at this node, but not by its children.
	found, err := w.search.FindEach(pi.pat, w.sh.facg, mask, opts, w.visitFn)
	out.complete = err == nil && (opts.Limit == 0 || found < opts.Limit)

	// First-seen cover order, stable-sorted by cost.
	order := w.order[:0]
	for i := range ar.costs {
		order = append(order, int32(i))
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		ca, cb := ar.costs[a], ar.costs[b]
		switch {
		case ca < cb:
			return -1
		case cb < ca:
			return 1
		}
		return 0
	})
	w.order = order
	// The store keeps the sorted list: whole when children may inherit
	// it, else only the head this node draws candidates from.
	if !out.complete && w.sh.matchLimit > 0 && len(order) > w.sh.matchLimit {
		order = order[:w.sh.matchLimit]
	}
	st := &out.own
	st.k, st.pn = ar.k, ar.pn
	st.ids = slices.Grow(st.ids[:0], len(order)*st.k)
	st.cores = slices.Grow(st.cores[:0], len(order)*st.pn)
	st.costs = slices.Grow(st.costs[:0], len(order))
	for n, i := range order {
		st.ids = append(st.ids, ar.cover(i)...)
		st.cores = append(st.cores, ar.core(i)...)
		st.costs = append(st.costs, ar.costs[i])
		out.idx = append(out.idx, int32(n))
	}
}

// allLive reports whether every edge in ids is set in mask.
func allLive(mask graph.EdgeMask, ids []int32) bool {
	for _, e := range ids {
		if !mask.Has(int(e)) {
			return false
		}
	}
	return true
}

// visit records one raw matching of w.cur in the arena: it resolves the
// covered ACG edge ids through the core array, costs the matching, and
// either opens a new cover or replaces a known cover's matching when it
// is strictly cheaper. A cover is identified by its 128-bit signature and
// confirmed by its sorted ids, so a signature collision never merges two
// covers.
func (w *worker) visit(core []int32) {
	pi, st := w.cur, &w.arena
	k, n := len(pi.from), len(st.costs)
	st.ids = slices.Grow(st.ids[:n*k], k)[:(n+1)*k]
	ids := st.ids[n*k:]
	var sig graphSig
	for r := range pi.from {
		e, ok := w.sh.facg.EdgeIndexBetween(int(core[pi.from[r]]), int(core[pi.to[r]]))
		if !ok {
			// A match can only cover edges of the graph it was found in.
			panic(fmt.Sprintf("decompose: %s matching covers a non-edge", pi.prim.Name))
		}
		ids[r] = int32(e)
		sig = sig.xor(w.sh.edgeHash[e])
	}
	cost := w.coster.coreCost(pi, core, ids)
	slices.Sort(ids)

	head := w.byCover.get(w.recs, sig)
	for j := head; j >= 0; j = w.recs[j].next {
		if slices.Equal(st.cover(j), ids) {
			if cost < st.costs[j] {
				st.costs[j] = cost
				copy(st.core(j), core)
			}
			st.ids = st.ids[:n*k]
			return
		}
	}
	w.recs = append(w.recs, coverRec{sig: sig, next: head})
	st.cores = append(st.cores, core...)
	st.costs = append(st.costs, cost)
	w.byCover.put(w.recs, int32(n))
}

// capped returns how many of l's covers become candidates: all of them,
// or the first MatchLimit.
func (w *worker) capped(l *coverList) int {
	if n := len(l.idx); w.sh.matchLimit <= 0 || n <= w.sh.matchLimit {
		return n
	}
	return w.sh.matchLimit
}

// candidates materializes the capped head of primitive primIdx's list l.
func (w *worker) candidates(primIdx int, l *coverList) []candidate {
	cands := make([]candidate, w.capped(l))
	for j := range cands {
		cands[j] = w.candidateOf(primIdx, l, j, candRank(primIdx, l.src.cover(l.idx[j])))
	}
	return cands
}

// candidateOf materializes the j-th cover of primitive primIdx's list l
// as a candidate of the given rank: its Mapping and latency
// contributions. Its covered ids alias the list's store. The latency sums
// run over the covered edges in ascending id order.
func (w *worker) candidateOf(primIdx int, l *coverList, j int, rank string) candidate {
	pi := &w.sh.prims[primIdx]
	facg := w.sh.facg
	i := l.idx[j]
	ids, core := l.src.cover(i), l.src.core(i)

	mapping := make(iso.Mapping, len(core))
	for p, t := range core {
		mapping[pi.pat.IDOf(p)] = facg.IDOf(int(t))
	}
	hops := slices.Grow(w.hops[:0], len(ids))[:len(ids)]
	w.hops = hops
	for r := range pi.from {
		e, _ := facg.EdgeIndexBetween(int(core[pi.from[r]]), int(core[pi.to[r]]))
		pos, _ := slices.BinarySearch(ids, int32(e))
		hops[pos] = pi.hops[r]
	}
	var wh, wt float64
	for i, e := range ids {
		lw := w.sh.latWeight[e]
		wt += lw
		wh += lw * hops[i]
	}
	return candidate{
		match:      Match{Primitive: pi.prim, Mapping: mapping, Cost: l.src.costs[i]},
		coveredIDs: ids,
		rank:       rank,
		wHops:      wh,
		weight:     wt,
	}
}

// resetArena empties the enumeration arena, keeping its capacity.
func (w *worker) resetArena() {
	w.byCover.reset()
	w.recs = w.recs[:0]
	w.arena.ids, w.arena.cores, w.arena.costs = w.arena.ids[:0], w.arena.cores[:0], w.arena.costs[:0]
	w.cur = nil
}

// coverIndex maps a cover signature to the newest arena record carrying
// it. It is an open-addressing table probed from the signature's first
// word, which is already a uniformly mixed hash. Slots are stamped with
// the enumeration generation, so reset is O(1) and a warm index never
// allocates.
type coverIndex struct {
	slots []coverSlot // power-of-two length
	gen   uint32
	n     int // live entries this generation
}

type coverSlot struct {
	gen uint32
	rec int32
}

// get returns the newest record with signature sig, or -1.
func (x *coverIndex) get(recs []coverRec, sig graphSig) int32 {
	if len(x.slots) == 0 {
		return -1
	}
	mask := uint64(len(x.slots) - 1)
	for i := sig.a & mask; ; i = (i + 1) & mask {
		sl := x.slots[i]
		if sl.gen != x.gen {
			return -1
		}
		if recs[sl.rec].sig == sig {
			return sl.rec
		}
	}
}

// put makes recs[r] the newest record for its signature.
func (x *coverIndex) put(recs []coverRec, r int32) {
	if 2*(x.n+1) > len(x.slots) {
		x.grow(recs[:r])
	}
	sig := recs[r].sig
	mask := uint64(len(x.slots) - 1)
	for i := sig.a & mask; ; i = (i + 1) & mask {
		sl := &x.slots[i]
		if sl.gen != x.gen {
			*sl = coverSlot{gen: x.gen, rec: r}
			x.n++
			return
		}
		if recs[sl.rec].sig == sig {
			sl.rec = r
			return
		}
	}
}

// grow doubles the table and re-inserts recs in order, so each signature
// again maps to its newest record.
func (x *coverIndex) grow(recs []coverRec) {
	x.slots = make([]coverSlot, max(16, 2*len(x.slots)))
	x.gen, x.n = 1, 0
	for r := range recs {
		x.put(recs, int32(r))
	}
}

// reset empties the index by advancing the generation.
func (x *coverIndex) reset() {
	x.gen++
	x.n = 0
	if x.gen == 0 { // wrapped: stale stamps could read as live
		clear(x.slots)
		x.gen = 1
	}
}
