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

// coverRec is one distinct covered-edge set seen by the running
// enumeration, with the cheapest raw matching found for it so far. Its
// sorted edge ids and that matching's core live in the worker's flat
// arenas at the record's index.
type coverRec struct {
	sig  graphSig
	cost float64
	next int32 // older rec with the same sig (a 128-bit collision), or -1
}

// enumerate lists the matchings of one primitive in the remaining graph
// (the frozen ACG restricted to mask), deduplicated by covered edge set
// (keeping the cheapest mapping — two matchings that remove the same edges
// lead to identical subtrees, so only the cheaper embedding can belong to
// the optimum), ranked by cost, and capped at the match limit.
//
// Raw matchings never leave dense index space: the VF2 visitor hands each
// one over as a core array, and visit derives its covered edge ids, their
// signature and its Equation 5 cost straight from it into per-worker flat
// arenas. Only the at most MatchLimit survivors become Mappings, rank
// strings and candidate records.
//
// As in the paper's Figure 3, every tree node runs its isomorphism search
// afresh; nothing is memoized across nodes or solves.
func (w *worker) enumerate(primIdx int, mask graph.EdgeMask) []candidate {
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
	pi := &w.sh.prims[primIdx]
	w.cur = pi
	defer w.resetArena()
	// A deadline may truncate the enumeration: the matchings found so far
	// are still usable at this node.
	found, err := w.search.FindEach(pi.pat, w.sh.facg, mask, opts, w.visitFn)
	if err != nil && found == 0 {
		return nil
	}

	// First-seen cover order, stable-sorted by cost, then capped.
	order := w.order[:0]
	for i := range w.recs {
		order = append(order, int32(i))
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		ca, cb := w.recs[a].cost, w.recs[b].cost
		switch {
		case ca < cb:
			return -1
		case cb < ca:
			return 1
		}
		return 0
	})
	w.order = order
	if w.sh.matchLimit > 0 && len(order) > w.sh.matchLimit {
		order = order[:w.sh.matchLimit]
	}
	cands := make([]candidate, len(order))
	for i, j := range order {
		cands[i] = w.candidateOf(primIdx, pi, int(j))
	}
	return cands
}

// visit records one raw matching of w.cur: it resolves the covered ACG
// edge ids through the core array, costs the matching, and either opens a
// record for a new cover or replaces a known cover's matching when it is
// strictly cheaper. A cover is identified by its 128-bit signature and
// confirmed by its sorted ids, so a signature collision never merges two
// covers.
func (w *worker) visit(core []int32) {
	pi := w.cur
	k, n := len(pi.from), len(w.recs)
	w.ids = slices.Grow(w.ids[:n*k], k)[:(n+1)*k]
	ids := w.ids[n*k:]
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
		if slices.Equal(w.ids[int(j)*k:int(j+1)*k], ids) {
			if cost < w.recs[j].cost {
				w.recs[j].cost = cost
				copy(w.cores[int(j)*len(core):], core)
			}
			return
		}
	}
	w.recs = append(w.recs, coverRec{sig: sig, cost: cost, next: head})
	w.cores = append(w.cores, core...)
	w.byCover.put(w.recs, int32(n))
}

// candidateOf materializes arena record j of the running enumeration as a
// candidate: its Mapping, rank and latency contributions. The latency sums
// run over the covered edges in ascending id order.
func (w *worker) candidateOf(primIdx int, pi *primInfo, j int) candidate {
	facg := w.sh.facg
	k, pn := len(pi.from), pi.pat.NodeCount()
	ids := slices.Clone(w.ids[j*k : (j+1)*k])
	core := w.cores[j*pn : (j+1)*pn]

	mapping := make(iso.Mapping, pn)
	for p, t := range core {
		mapping[pi.pat.IDOf(p)] = facg.IDOf(int(t))
	}
	hops := slices.Grow(w.hops[:0], k)[:k]
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
		match:      Match{Primitive: pi.prim, Mapping: mapping, Cost: w.recs[j].cost},
		coveredIDs: ids,
		rank:       candRank(primIdx, facg, ids),
		wHops:      wh,
		weight:     wt,
	}
}

// resetArena empties the enumeration arena, keeping its capacity.
func (w *worker) resetArena() {
	w.byCover.reset()
	w.recs = w.recs[:0]
	w.cores = w.cores[:0]
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
