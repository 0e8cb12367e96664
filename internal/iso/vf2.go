// Package iso implements VF2 subgraph isomorphism search for directed
// graphs, following Cordella, Foggia, Sansone and Vento (IEEE TPAMI 2004),
// the algorithm the paper uses for its matching step (references [12][13]).
//
// The decomposition algorithm needs subgraph *monomorphisms*: an injective
// vertex mapping from a pattern (a library representation graph) into a
// target (the remaining application graph) such that every pattern edge is
// present between the mapped vertices. Extra target edges are allowed and
// remain available for later matchings — this matches the paper's
// Definition 3/4, where the matched subgraph S need not be induced.
//
// The search enumerates matchings in a deterministic order, supports a
// result cap and a deadline (the paper notes run time explodes when no
// isomorphism exists and suggests a time-out, Section 5.1), and prunes with
// VF2's one-look-ahead feasibility rules plus a degree pre-filter.
//
// The search state lives entirely in dense index space over graph.Frozen
// CSR views: adjacency rows are read as zero-copy subslices, target-edge
// membership is a flat bitset, and the solver's edge-subset bitmask
// (graph.EdgeMask) restricts the target without materializing a subtracted
// graph. FindAll remains the map-graph convenience front; FindAllFrozen
// collects Mappings over frozen graphs; FindEachFrozen and the reusable
// Searcher stream each matching as a dense core array without building a
// Mapping — the hot-path entry the decomposition solver uses.
package iso

import (
	"errors"
	"sort"
	"time"

	"repro/internal/graph"
)

// Mapping is an injective assignment of pattern vertices to target
// vertices.
type Mapping map[graph.NodeID]graph.NodeID

// Clone returns a copy of the mapping.
func (m Mapping) Clone() Mapping {
	c := make(Mapping, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// Pairs returns the mapping as (patternVertex, targetVertex) pairs sorted
// by pattern vertex, the order the paper's sample outputs use.
func (m Mapping) Pairs() [][2]graph.NodeID {
	out := make([][2]graph.NodeID, 0, len(m))
	for k, v := range m {
		out = append(out, [2]graph.NodeID{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Options controls the search.
type Options struct {
	// Limit stops the enumeration after this many matchings have been
	// reported. Zero means unlimited.
	Limit int
	// Deadline aborts the search when exceeded. Zero means no deadline.
	Deadline time.Time
}

// ErrDeadline is returned by FindAll when the search was cut short by the
// deadline. Matchings found before the cut-off are still returned.
var ErrDeadline = errors.New("iso: search deadline exceeded")

// FindAll enumerates subgraph monomorphisms from pattern into target, up to
// opts.Limit. The error is ErrDeadline if the deadline cut the enumeration
// short, nil otherwise. It freezes both graphs and delegates to
// FindAllFrozen; callers issuing many queries against the same graphs
// should freeze once themselves.
func FindAll(pattern, target *graph.Graph, opts Options) ([]Mapping, error) {
	return FindAllFrozen(pattern.Freeze(), target.Freeze(), nil, opts)
}

// FindAllFrozen enumerates subgraph monomorphisms from the frozen pattern
// into the frozen target restricted to the edges set in mask (nil means
// every edge). Enumeration order is identical to FindAll on the equivalent
// map graphs: dense indices ascend by NodeID in both representations. It
// is FindEachFrozen collecting every visited core into a Mapping.
func FindAllFrozen(pattern, target *graph.Frozen, mask graph.EdgeMask, opts Options) ([]Mapping, error) {
	var out []Mapping
	pID, tID := pattern.IDs(), target.IDs()
	_, err := FindEachFrozen(pattern, target, mask, opts, func(core []int32) {
		m := make(Mapping, len(core))
		for pi, ti := range core {
			m[pID[pi]] = tID[ti]
		}
		out = append(out, m)
	})
	return out, err
}

// FindEachFrozen is the streaming form of FindAllFrozen: it calls visit
// with each matching, in the same order, as the live pattern->target core
// array (core[pi] is the target dense index of pattern dense index pi),
// and returns how many it visited. The array is the search's own state,
// valid only during the call; a visitor that keeps a matching copies it.
// Limit and Deadline are honoured exactly as FindAllFrozen does.
func FindEachFrozen(pattern, target *graph.Frozen, mask graph.EdgeMask, opts Options, visit func(core []int32)) (int, error) {
	var s Searcher
	return s.FindEach(pattern, target, mask, opts, visit)
}

// Searcher runs FindEachFrozen queries with reusable search state: the
// pattern-side rows and visit order are derived once per pattern, and the
// target-side rows, bitsets, core arrays and per-depth candidate lists
// are buffers grown to the largest query and then reused, so a warm
// Searcher enumerates without allocating. Patterns are remembered by
// pointer and must not change between queries (a graph.Frozen never
// does). A Searcher is not safe for concurrent use; the zero value is
// ready to use.
type Searcher struct {
	st   state
	pats map[*graph.Frozen]*patternSide
}

// patternSide is the query-independent half of the search state.
type patternSide struct {
	out, in [][]int32 // adjacency rows aliasing the Frozen CSR
	order   []int32   // connectivity-first visit order
}

// FindEach is FindEachFrozen on the Searcher's reusable state.
func (sr *Searcher) FindEach(pattern, target *graph.Frozen, mask graph.EdgeMask, opts Options, visit func(core []int32)) (int, error) {
	s := &sr.st
	s.reset(sr.patternSide(pattern), pattern, target, mask, opts, visit)
	if !s.plausible() {
		return 0, nil
	}
	err := s.search(0)
	s.visit = nil
	return s.found, err
}

func (sr *Searcher) patternSide(p *graph.Frozen) *patternSide {
	if ps, ok := sr.pats[p]; ok {
		return ps
	}
	n := p.NodeCount()
	ps := &patternSide{out: make([][]int32, n), in: make([][]int32, n)}
	for i := 0; i < n; i++ {
		ps.out[i] = p.Out(i)
		ps.in[i] = p.In(i)
	}
	ps.order = connectivityOrder(n, ps.out, ps.in)
	if sr.pats == nil {
		sr.pats = make(map[*graph.Frozen]*patternSide)
	}
	sr.pats[p] = ps
	return ps
}

// state carries the VF2 search state in dense index space. Pattern and
// target adjacency rows alias the Frozen CSR storage (or, under a mask,
// filtered copies packed into one flat backing array); core arrays hold the
// partial mapping; terminal-set membership depths (tin/tout) implement the
// VF2 look-ahead sets; tAdjOut/tAdjIn are flat bitsets for O(1) target edge
// membership. Every slice is a buffer reused across queries (see reset).
type state struct {
	opts  Options
	visit func(core []int32)

	pn, tn int // vertex counts

	pOut, pIn [][]int32 // pattern adjacency (dense)
	tOut, tIn [][]int32 // target adjacency (dense, mask-filtered)

	pEdges, tEdges int

	outFlat, inFlat []int32 // backing arrays of the mask-filtered rows

	tw              int      // bitset row width in words
	tAdjOut, tAdjIn []uint64 // target adjacency bitsets, row per vertex

	core1 []int32 // pattern -> target (-1 unmapped)
	core2 []int32 // target -> pattern (-1 unmapped)

	// Terminal depths: nonzero means the vertex entered the respective
	// terminal set at that search depth.
	out1, in1 []int32
	out2, in2 []int32

	order []int32 // pattern vertex visit order (connectivity-first)

	// cands[d] is the candidate list of search depth d; each depth owns
	// its buffer, so a deeper level never clobbers a list being walked.
	cands [][]int32

	found     int
	checkTick int
	deadline  bool
}

// reset prepares the state for one query, reusing every buffer whose
// capacity suffices.
func (s *state) reset(ps *patternSide, p, t *graph.Frozen, mask graph.EdgeMask, opts Options, visit func(core []int32)) {
	s.opts, s.visit = opts, visit
	s.found, s.checkTick, s.deadline = 0, 0, false
	s.pn, s.tn = p.NodeCount(), t.NodeCount()
	s.pEdges = p.EdgeCount()
	s.pOut, s.pIn, s.order = ps.out, ps.in, ps.order

	s.tOut = resize(s.tOut, s.tn)
	s.tIn = resize(s.tIn, s.tn)
	if mask == nil {
		for i := 0; i < s.tn; i++ {
			s.tOut[i] = t.Out(i)
			s.tIn[i] = t.In(i)
		}
		s.tEdges = t.EdgeCount()
	} else {
		// Pack the mask-filtered rows into two flat backing arrays. The
		// capacity covers every edge, so the append never reallocates and
		// the row subslices stay valid.
		outFlat := resize(s.outFlat, t.EdgeCount())[:0]
		inFlat := resize(s.inFlat, t.EdgeCount())[:0]
		for i := 0; i < s.tn; i++ {
			e := t.OutEdgeStart(i)
			lo := len(outFlat)
			for _, v := range t.Out(i) {
				if mask.Has(e) {
					outFlat = append(outFlat, v)
				}
				e++
			}
			s.tOut[i] = outFlat[lo:len(outFlat):len(outFlat)]
		}
		for i := 0; i < s.tn; i++ {
			eids := t.InEdgeIDs(i)
			lo := len(inFlat)
			for k, v := range t.In(i) {
				if mask.Has(int(eids[k])) {
					inFlat = append(inFlat, v)
				}
			}
			s.tIn[i] = inFlat[lo:len(inFlat):len(inFlat)]
		}
		s.outFlat, s.inFlat = outFlat, inFlat
		s.tEdges = len(outFlat)
	}

	s.tw = (s.tn + 63) / 64
	s.tAdjOut = zeroed(s.tAdjOut, s.tn*s.tw)
	s.tAdjIn = zeroed(s.tAdjIn, s.tn*s.tw)
	for i := 0; i < s.tn; i++ {
		row := i * s.tw
		for _, v := range s.tOut[i] {
			s.tAdjOut[row+int(v>>6)] |= 1 << uint(v&63)
		}
		for _, v := range s.tIn[i] {
			s.tAdjIn[row+int(v>>6)] |= 1 << uint(v&63)
		}
	}

	s.core1 = filled(s.core1, s.pn, -1)
	s.core2 = filled(s.core2, s.tn, -1)
	s.out1 = zeroed(s.out1, s.pn)
	s.in1 = zeroed(s.in1, s.pn)
	s.out2 = zeroed(s.out2, s.tn)
	s.in2 = zeroed(s.in2, s.tn)
	s.cands = resize(s.cands, s.pn)
}

// hasOutEdge reports whether the target edge ti->tt survives the mask.
func (s *state) hasOutEdge(ti, tt int32) bool {
	return s.tAdjOut[int(ti)*s.tw+int(tt>>6)]&(1<<uint(tt&63)) != 0
}

// hasInEdge reports whether the target edge tt->ti survives the mask.
func (s *state) hasInEdge(ti, tt int32) bool {
	return s.tAdjIn[int(ti)*s.tw+int(tt>>6)]&(1<<uint(tt&63)) != 0
}

// plausible applies cheap global pre-filters before the search starts.
func (s *state) plausible() bool {
	if s.pn == 0 {
		return false
	}
	if s.pn > s.tn {
		return false
	}
	return s.pEdges <= s.tEdges
}

// search tries to extend the partial mapping at the given depth (number of
// mapped pattern vertices). Returns ErrDeadline on deadline abort.
func (s *state) search(depth int) error {
	if s.deadline {
		return ErrDeadline
	}
	if !s.opts.Deadline.IsZero() {
		// Check the clock on the first node (so an already-expired deadline
		// truncates even trivial searches) and every 1024 nodes after.
		s.checkTick++
		if (s.checkTick == 1 || s.checkTick&0x3ff == 0) && time.Now().After(s.opts.Deadline) {
			s.deadline = true
			return ErrDeadline
		}
	}
	if depth == s.pn {
		s.found++
		s.visit(s.core1)
		return nil
	}

	pi := s.order[depth]
	for _, ti := range s.candidates(depth, pi) {
		if !s.feasible(pi, ti) {
			continue
		}
		s.addPair(pi, ti, int32(depth+1))
		if err := s.search(depth + 1); err != nil {
			s.removePair(pi, ti, int32(depth+1))
			return err
		}
		s.removePair(pi, ti, int32(depth+1))
		if s.opts.Limit > 0 && s.found >= s.opts.Limit {
			return nil
		}
	}
	return nil
}

// candidates returns the target vertices to try for pattern vertex pi at
// the given search depth, in ascending original-id order for determinism,
// collected into that depth's scratch buffer. If pi has a mapped neighbor
// the candidates are restricted to the corresponding target neighborhood.
func (s *state) candidates(depth int, pi int32) []int32 {
	// Prefer anchoring through an already-mapped pattern predecessor or
	// successor: candidates are then the target neighbors of its image.
	for _, pp := range s.pIn[pi] {
		if tt := s.core1[pp]; tt >= 0 {
			return s.unmapped(depth, s.tOut[tt])
		}
	}
	for _, pp := range s.pOut[pi] {
		if tt := s.core1[pp]; tt >= 0 {
			return s.unmapped(depth, s.tIn[tt])
		}
	}
	// No mapped neighbor (first vertex of a component): all unmapped
	// target vertices.
	out := s.cands[depth][:0]
	for ti := int32(0); ti < int32(s.tn); ti++ {
		if s.core2[ti] < 0 {
			out = append(out, ti)
		}
	}
	s.cands[depth] = out
	return out
}

// unmapped filters cands down to the still-unmapped target vertices, into
// the depth's scratch buffer.
func (s *state) unmapped(depth int, cands []int32) []int32 {
	out := s.cands[depth][:0]
	for _, c := range cands {
		if s.core2[c] < 0 {
			out = append(out, c)
		}
	}
	s.cands[depth] = out
	return out
}

// feasible applies the VF2 syntactic feasibility rules for the candidate
// pair (pi, ti).
func (s *state) feasible(pi, ti int32) bool {
	// Degree filter: target vertex must offer at least the pattern degrees.
	if len(s.tOut[ti]) < len(s.pOut[pi]) || len(s.tIn[ti]) < len(s.pIn[pi]) {
		return false
	}

	// R_pred / R_succ: mapped pattern neighbors must correspond to target
	// edges (monomorphism direction).
	for _, pp := range s.pIn[pi] {
		if tt := s.core1[pp]; tt >= 0 {
			if !s.hasInEdge(ti, tt) {
				return false
			}
		}
	}
	for _, pp := range s.pOut[pi] {
		if tt := s.core1[pp]; tt >= 0 {
			if !s.hasOutEdge(ti, tt) {
				return false
			}
		}
	}
	// One-look-ahead: count pattern neighbors in terminal sets and in
	// neither set; the target must offer at least as many. For
	// monomorphism only the >= direction applies.
	var pTermOut, pTermIn, pNew int
	for _, pp := range s.pOut[pi] {
		switch {
		case s.core1[pp] >= 0:
		case s.out1[pp] > 0 || s.in1[pp] > 0:
			pTermOut++
		default:
			pNew++
		}
	}
	for _, pp := range s.pIn[pi] {
		switch {
		case s.core1[pp] >= 0:
		case s.out1[pp] > 0 || s.in1[pp] > 0:
			pTermIn++
		default:
			pNew++
		}
	}
	var tTermOut, tTermIn, tNew int
	for _, tt := range s.tOut[ti] {
		switch {
		case s.core2[tt] >= 0:
		case s.out2[tt] > 0 || s.in2[tt] > 0:
			tTermOut++
		default:
			tNew++
		}
	}
	for _, tt := range s.tIn[ti] {
		switch {
		case s.core2[tt] >= 0:
		case s.out2[tt] > 0 || s.in2[tt] > 0:
			tTermIn++
		default:
			tNew++
		}
	}
	return tTermOut >= pTermOut && tTermIn >= pTermIn && tTermOut+tTermIn+tNew >= pTermOut+pTermIn+pNew
}

func (s *state) addPair(pi, ti, depth int32) {
	s.core1[pi] = ti
	s.core2[ti] = pi
	for _, pp := range s.pOut[pi] {
		if s.out1[pp] == 0 {
			s.out1[pp] = depth
		}
	}
	for _, pp := range s.pIn[pi] {
		if s.in1[pp] == 0 {
			s.in1[pp] = depth
		}
	}
	for _, tt := range s.tOut[ti] {
		if s.out2[tt] == 0 {
			s.out2[tt] = depth
		}
	}
	for _, tt := range s.tIn[ti] {
		if s.in2[tt] == 0 {
			s.in2[tt] = depth
		}
	}
}

func (s *state) removePair(pi, ti, depth int32) {
	for _, pp := range s.pOut[pi] {
		if s.out1[pp] == depth {
			s.out1[pp] = 0
		}
	}
	for _, pp := range s.pIn[pi] {
		if s.in1[pp] == depth {
			s.in1[pp] = 0
		}
	}
	for _, tt := range s.tOut[ti] {
		if s.out2[tt] == depth {
			s.out2[tt] = 0
		}
	}
	for _, tt := range s.tIn[ti] {
		if s.in2[tt] == depth {
			s.in2[tt] = 0
		}
	}
	s.core1[pi] = -1
	s.core2[ti] = -1
}

// connectivityOrder visits pattern vertices so that each vertex after the
// first within a component has at least one previously-visited neighbor,
// maximizing anchoring. Components are entered at their highest-degree
// vertex; ties break toward lower dense index.
func connectivityOrder(n int, out, in [][]int32) []int32 {
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		deg[i] = len(out[i]) + len(in[i])
	}
	visited := make([]bool, n)
	order := make([]int32, 0, n)
	for len(order) < n {
		// Pick the unvisited vertex with a visited neighbor, preferring
		// high degree; otherwise the highest-degree unvisited vertex.
		best, bestScore := int32(-1), -1
		for i := int32(0); i < int32(n); i++ {
			if visited[i] {
				continue
			}
			anchored := 0
			for _, j := range out[i] {
				if visited[j] {
					anchored = 1
					break
				}
			}
			if anchored == 0 {
				for _, j := range in[i] {
					if visited[j] {
						anchored = 1
						break
					}
				}
			}
			score := anchored*1000 + deg[i]
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		visited[best] = true
		order = append(order, best)
	}
	return order
}

// resize returns buf with length n, reallocating only when its capacity
// falls short. Contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// zeroed returns buf with length n and every element zero.
func zeroed[T int32 | uint64](buf []T, n int) []T {
	buf = resize(buf, n)
	clear(buf)
	return buf
}

// filled returns buf with length n and every element v.
func filled(buf []int32, n int, v int32) []int32 {
	buf = resize(buf, n)
	for i := range buf {
		buf[i] = v
	}
	return buf
}
