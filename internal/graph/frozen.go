package graph

import (
	"math"
	"math/bits"
)

// Frozen is an immutable compressed-sparse-row (CSR) view of a Graph. It is
// the traversal substrate of every hot path in the flow: vertices are
// renumbered to dense indices 0..n-1 in ascending NodeID order, and edges to
// dense ids 0..e-1 in ascending (From, To) order, so every iteration over a
// Frozen is canonical by construction — no sorting, no map walks, no
// per-node allocation.
//
// The layout is the classic pair of CSRs:
//
//   - outOff/outDst: outDst[outOff[i]:outOff[i+1]] are the successors of
//     vertex i in ascending order. Because edge ids are assigned in
//     (From, To) order, the out-edges of vertex i are exactly the edge ids
//     outOff[i]..outOff[i+1]-1.
//   - inOff/inSrc/inEID: inSrc[inOff[i]:inOff[i+1]] are the predecessors of
//     vertex i in ascending order, and inEID carries the matching edge ids.
//
// Volume/bandwidth annotations live in dense per-edge slices, so costing
// loops touch contiguous memory.
//
// The mutable Graph remains the builder and algebra type (Definitions 1-2);
// Freeze is the one-way bridge into index space, Thaw the bridge back.
type Frozen struct {
	name string
	ids  []NodeID         // dense index -> NodeID, ascending
	idx  map[NodeID]int32 // NodeID -> dense index

	outOff []int32 // len n+1
	outDst []int32 // len e, successor indices; position == edge id
	inOff  []int32 // len n+1
	inSrc  []int32 // len e, predecessor indices
	inEID  []int32 // len e, edge id of each in-edge

	eFrom []int32   // len e, source index of edge id
	eTo   []int32   // len e, target index of edge id
	vol   []float64 // len e, v(e)
	bw    []float64 // len e, b(e)
}

// Freeze builds the immutable CSR view of the graph. The construction is
// O(V + E) beyond one sort-free pass: it walks the already-sorted Nodes and
// per-node sorted successor sets once.
func (g *Graph) Freeze() *Frozen {
	ids := g.Nodes()
	n := len(ids)
	e := g.EdgeCount()
	f := &Frozen{
		name:   g.name,
		ids:    ids,
		idx:    make(map[NodeID]int32, n),
		outOff: make([]int32, n+1),
		outDst: make([]int32, 0, e),
		inOff:  make([]int32, n+1),
		inSrc:  make([]int32, e),
		inEID:  make([]int32, e),
		eFrom:  make([]int32, 0, e),
		eTo:    make([]int32, 0, e),
		vol:    make([]float64, 0, e),
		bw:     make([]float64, 0, e),
	}
	for i, id := range ids {
		f.idx[id] = int32(i)
	}
	// Out-CSR in canonical (From, To) order; edge ids follow.
	for i, id := range ids {
		f.outOff[i] = int32(len(f.outDst))
		for _, to := range g.OutNeighbors(id) {
			ed := g.out[id][to]
			f.outDst = append(f.outDst, f.idx[to])
			f.eFrom = append(f.eFrom, int32(i))
			f.eTo = append(f.eTo, f.idx[to])
			f.vol = append(f.vol, ed.Volume)
			f.bw = append(f.bw, ed.Bandwidth)
		}
	}
	f.outOff[n] = int32(len(f.outDst))
	// In-CSR by counting sort over the edge list (stable in edge-id order,
	// so predecessors come out ascending because edge ids ascend by From).
	for eid := range f.eTo {
		f.inOff[f.eTo[eid]+1]++
	}
	for i := 0; i < n; i++ {
		f.inOff[i+1] += f.inOff[i]
	}
	fill := make([]int32, n)
	for eid := 0; eid < len(f.eTo); eid++ {
		t := f.eTo[eid]
		pos := f.inOff[t] + fill[t]
		f.inSrc[pos] = f.eFrom[eid]
		f.inEID[pos] = int32(eid)
		fill[t]++
	}
	return f
}

// Name returns the diagnostic name inherited from the source graph.
func (f *Frozen) Name() string { return f.name }

// NodeCount returns the number of vertices.
func (f *Frozen) NodeCount() int { return len(f.ids) }

// EdgeCount returns the number of directed edges.
func (f *Frozen) EdgeCount() int { return len(f.outDst) }

// IDs returns the dense-index -> NodeID table in ascending order. The slice
// is the Frozen's own storage and must be treated as read-only.
func (f *Frozen) IDs() []NodeID { return f.ids }

// IDOf returns the NodeID at dense index i.
func (f *Frozen) IDOf(i int) NodeID { return f.ids[i] }

// IndexOf returns the dense index of id.
func (f *Frozen) IndexOf(id NodeID) (int, bool) {
	i, ok := f.idx[id]
	return int(i), ok
}

// Out returns the successor indices of vertex i in ascending order, as a
// read-only subslice of the CSR storage (zero allocation). The k-th entry
// corresponds to edge id OutEdgeStart(i)+k.
func (f *Frozen) Out(i int) []int32 { return f.outDst[f.outOff[i]:f.outOff[i+1]] }

// OutEdgeStart returns the first edge id of vertex i's out-edges.
func (f *Frozen) OutEdgeStart(i int) int { return int(f.outOff[i]) }

// In returns the predecessor indices of vertex i in ascending order
// (read-only, zero allocation).
func (f *Frozen) In(i int) []int32 { return f.inSrc[f.inOff[i]:f.inOff[i+1]] }

// InEdgeIDs returns the edge ids of vertex i's in-edges, parallel to In
// (read-only, zero allocation).
func (f *Frozen) InEdgeIDs(i int) []int32 { return f.inEID[f.inOff[i]:f.inOff[i+1]] }

// OutDegree returns the out-degree of vertex i.
func (f *Frozen) OutDegree(i int) int { return int(f.outOff[i+1] - f.outOff[i]) }

// InDegree returns the in-degree of vertex i.
func (f *Frozen) InDegree(i int) int { return int(f.inOff[i+1] - f.inOff[i]) }

// Degree returns the total degree of vertex i.
func (f *Frozen) Degree(i int) int { return f.OutDegree(i) + f.InDegree(i) }

// EdgeEndpoints returns the (from, to) dense indices of edge id e.
func (f *Frozen) EdgeEndpoints(e int) (from, to int32) { return f.eFrom[e], f.eTo[e] }

// Volume returns v(e) of edge id e.
func (f *Frozen) Volume(e int) float64 { return f.vol[e] }

// Bandwidth returns b(e) of edge id e.
func (f *Frozen) Bandwidth(e int) float64 { return f.bw[e] }

// EdgeAt reconstructs edge id e in NodeID space.
func (f *Frozen) EdgeAt(e int) Edge {
	return Edge{
		From:      f.ids[f.eFrom[e]],
		To:        f.ids[f.eTo[e]],
		Volume:    f.vol[e],
		Bandwidth: f.bw[e],
	}
}

// EdgeIndexBetween returns the edge id of the directed edge from->to (dense
// indices), via binary search over the sorted successor row.
func (f *Frozen) EdgeIndexBetween(from, to int) (int, bool) {
	row := f.Out(from)
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] < int32(to) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && row[lo] == int32(to) {
		return int(f.outOff[from]) + lo, true
	}
	return 0, false
}

// Materialize rebuilds a mutable Graph holding the full vertex set but only
// the edges whose ids are set in mask (nil means all). This is how the
// solver turns a leaf's live-edge bitmask back into the paper's remaining
// graph R — vertex set preserved per Definition 2.
func (f *Frozen) Materialize(mask EdgeMask) *Graph {
	g := New(f.name)
	for _, id := range f.ids {
		g.AddNode(id)
	}
	for e := 0; e < len(f.outDst); e++ {
		if mask == nil || mask.Has(e) {
			g.SetEdge(f.EdgeAt(e))
		}
	}
	return g
}

// EdgeMask is a bitset over a Frozen's edge ids: the live-edge subset the
// branch-and-bound workers carry instead of mutated graph copies. Bit e set
// means edge id e is still present.
type EdgeMask []uint64

// FullEdgeMask returns a mask with the first n edge bits set.
func FullEdgeMask(n int) EdgeMask {
	m := make(EdgeMask, (n+63)/64)
	for e := 0; e < n; e++ {
		m[e>>6] |= 1 << uint(e&63)
	}
	return m
}

// Has reports whether edge id e is set.
func (m EdgeMask) Has(e int) bool { return m[e>>6]&(1<<uint(e&63)) != 0 }

// Clear unsets edge id e.
func (m EdgeMask) Clear(e int) { m[e>>6] &^= 1 << uint(e&63) }

// Set sets edge id e.
func (m EdgeMask) Set(e int) { m[e>>6] |= 1 << uint(e&63) }

// Clone returns a copy of the mask.
func (m EdgeMask) Clone() EdgeMask {
	c := make(EdgeMask, len(m))
	copy(c, m)
	return c
}

// Without returns a copy of the mask with the given edge ids cleared.
func (m EdgeMask) Without(edges []int32) EdgeMask {
	c := m.Clone()
	for _, e := range edges {
		c.Clear(int(e))
	}
	return c
}

// Count returns the number of set bits.
func (m EdgeMask) Count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// ShortestPathTree runs Dijkstra from the source index over the CSR using
// w[e] as the cost of edge id e, returning per-vertex distances (+Inf when
// unreachable) and predecessor indices (-1 for src and unreachable
// vertices). Tie-breaks match (*Graph).ShortestPath exactly — equal-cost
// relaxations prefer the lower predecessor index, and the heap pops lower
// indices first among equal distances — so paths reconstructed from prev
// are identical to the map-based per-pair searches.
func (f *Frozen) ShortestPathTree(src int, w []float64) (dist []float64, prev []int32) {
	return f.ShortestPathTreeInto(src, w, nil)
}

// TreeScratch holds the reusable working state of ShortestPathTreeInto.
// A worker computing many shortest-path trees (the demand-driven sparse
// route precompute) allocates one scratch and amortizes every buffer
// across calls; the zero value is ready to use.
type TreeScratch struct {
	dist []float64
	prev []int32
	done []bool
	pq   idxPQ
}

// ShortestPathTreeInto is ShortestPathTree with caller-owned working
// memory: all four buffers are taken from s (grown as needed) and the
// returned dist/prev alias s, valid until the next call with the same
// scratch. A nil scratch allocates freshly, exactly like
// ShortestPathTree. Tie-breaks are identical to ShortestPathTree.
func (f *Frozen) ShortestPathTreeInto(src int, w []float64, s *TreeScratch) (dist []float64, prev []int32) {
	if s == nil {
		s = &TreeScratch{}
	}
	n := len(f.ids)
	if cap(s.dist) < n {
		s.dist = make([]float64, n)
		s.prev = make([]int32, n)
		s.done = make([]bool, n)
	}
	dist, prev = s.dist[:n], s.prev[:n]
	done := s.done[:n]
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
		done[i] = false
	}
	dist[src] = 0
	pq := &s.pq
	*pq = append((*pq)[:0], idxItem{id: int32(src), cost: 0})
	for len(*pq) > 0 {
		item := pq.pop()
		u := int(item.id)
		if done[u] {
			continue
		}
		done[u] = true
		e := int(f.outOff[u])
		for _, v := range f.Out(u) {
			nd := dist[u] + w[e]
			if nd < dist[v] || (nd == dist[v] && int32(u) < prev[v]) {
				dist[v] = nd
				prev[v] = int32(u)
				pq.push(idxItem{id: v, cost: nd})
			}
			e++
		}
	}
	return dist, prev
}

// PathFromTree reconstructs the src->dst vertex-index path from a
// ShortestPathTree prev array. ok is false when dst is unreachable.
func PathFromTree(prev []int32, src, dst int) (path []int32, ok bool) {
	if src == dst {
		return []int32{int32(src)}, true
	}
	if prev[dst] < 0 {
		return nil, false
	}
	for v := int32(dst); v != int32(src); v = prev[v] {
		path = append(path, v)
		if len(path) > len(prev) {
			return nil, false
		}
	}
	path = append(path, int32(src))
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, true
}

type idxItem struct {
	id   int32
	cost float64
}

// idxPQ is a binary min-heap of (cost, id) items. push and pop are
// container/heap's sift-up and sift-down specialized to the item type,
// so items are never boxed into interfaces; the pop order is the same.
type idxPQ []idxItem

func (p idxPQ) less(i, j int) bool {
	if p[i].cost != p[j].cost {
		return p[i].cost < p[j].cost
	}
	return p[i].id < p[j].id
}

func (p *idxPQ) push(it idxItem) {
	*p = append(*p, it)
	h := *p
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (p *idxPQ) pop() idxItem {
	h := *p
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.less(j2, j) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	*p = h[:n]
	return it
}
