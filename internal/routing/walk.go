package routing

import (
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/topology"
)

// edgeWalker resolves routes as sequences of frozen edge ids — the one
// representation validation, the dateline order, the channel dependency
// bitset and the compiled output slots (edge id minus the router's first
// out-edge id) all share. A Table is followed in place through its
// next-hop matrix, allocating nothing per route; any other Router is
// asked for the vertex path once per pair. The walker is immutable after construction
// and safe for concurrent use; callers own the edge buffers.
type edgeWalker struct {
	frz    *graph.Frozen
	router Router
	// table is set when router is a Table spanning exactly the frozen
	// node ids, so table and frozen indices coincide. A table over other
	// ids is walked through Route like any other Router.
	table *Table
	// hops, built for walkers over every ordered pair of a Table, holds
	// the edge id of each table entry in frozen index space:
	// hops[d*n+u] is the edge from u toward d, −1 where the entry is
	// missing or leaves the architecture. Each entry is resolved once
	// instead of once per route through it.
	hops []int32
}

// newEdgeWalker prepares a walker over frz. allPairs announces that every
// ordered pair will be walked, which makes resolving each table entry up
// front pay.
func newEdgeWalker(r Router, frz *graph.Frozen, allPairs bool) *edgeWalker {
	w := &edgeWalker{frz: frz, router: r}
	t, ok := r.(Table)
	if !ok || !slices.Equal(t.ids, frz.IDs()) {
		return w
	}
	w.table = &t
	if allPairs {
		n := frz.NodeCount()
		w.hops = make([]int32, n*n)
		for d := 0; d < n; d++ {
			col := w.hops[d*n : (d+1)*n]
			for u := range col {
				col[u] = w.tableEdge(u, d)
			}
		}
	}
	return w
}

// tableEdge resolves the table entry of frozen node u toward d to an edge
// id, or −1.
func (w *edgeWalker) tableEdge(u, d int) int32 {
	v := w.table.next[d*len(w.table.ids)+u]
	if v < 0 || u == d {
		return -1
	}
	e, ok := w.frz.EdgeIndexBetween(u, int(v))
	if !ok {
		return -1
	}
	return int32(e)
}

// walk appends the edge ids of the route between frozen indices s != d
// to buf. A route the router cannot produce returns the router's error;
// a hop through a node or over a link the architecture lacks returns a
// walk error (missing links match ErrNoRoute).
func (w *edgeWalker) walk(s, d int, buf []int32) ([]int32, error) {
	if w.table != nil {
		if out, ok := w.walkTable(s, d, buf); ok {
			return out, nil
		}
		// The table cannot complete the route in place: let Route and
		// the generic check name the failure.
		buf = buf[:0]
	}
	ids := w.frz.IDs()
	return w.walkRoute(ids[s], ids[d], buf)
}

// walkTable follows the table from s to d. ok is false on any failure —
// a missing entry, a loop, a link outside the architecture — and leaves
// the diagnosis to walkRoute.
func (w *edgeWalker) walkTable(s, d int, buf []int32) ([]int32, bool) {
	n := w.frz.NodeCount()
	var col []int32
	if w.hops != nil {
		col = w.hops[d*n : (d+1)*n]
	}
	for u, hops := s, 0; u != d; hops++ {
		var e int32
		if col != nil {
			e = col[u]
		} else {
			e = w.tableEdge(u, d)
		}
		if e < 0 || hops == n {
			return buf, false
		}
		buf = append(buf, e)
		_, v := w.frz.EdgeEndpoints(int(e))
		u = int(v)
	}
	return buf, true
}

// walkAll calls fn with the route of every ordered pair of distinct
// nodes. It walks destination by destination, so a Table's column stays
// cache-resident; on failure it reports the first failing pair in
// source-major order, as a source-major walk would.
func (w *edgeWalker) walkAll(fn func(edges []int32)) error {
	n := w.frz.NodeCount()
	var buf []int32
	var err error
	for d := 0; d < n; d++ {
		for s := 0; s < n; s++ {
			if s == d {
				continue
			}
			if buf, err = w.walk(s, d, buf[:0]); err != nil {
				return w.firstFailure()
			}
			fn(buf)
		}
	}
	return nil
}

// firstFailure returns the error of the first failing pair in
// source-major order, or nil.
func (w *edgeWalker) firstFailure() error {
	n := w.frz.NodeCount()
	var buf []int32
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			var err error
			if buf, err = w.walk(s, d, buf[:0]); err != nil {
				return err
			}
		}
	}
	return nil
}

// walkRoute resolves one pair through Router.Route and converts the
// vertex path to edge ids.
func (w *edgeWalker) walkRoute(src, dst graph.NodeID, buf []int32) ([]int32, error) {
	route, err := w.router.Route(src, dst)
	if err != nil {
		return buf, err
	}
	if len(route) == 0 {
		return buf, fmt.Errorf("routing: %d->%d: empty route", src, dst)
	}
	u, ok := w.frz.IndexOf(route[0])
	if !ok {
		return buf, fmt.Errorf("routing: %d->%d: route visits unknown node %d", src, dst, route[0])
	}
	for _, id := range route[1:] {
		v, ok := w.frz.IndexOf(id)
		if !ok {
			return buf, fmt.Errorf("routing: %d->%d: route visits unknown node %d", src, dst, id)
		}
		e, ok := w.frz.EdgeIndexBetween(u, v)
		if !ok {
			// A stale table over a fault-masked architecture lands
			// here: the route exists but a link it uses does not, so
			// the pair is unroutable on this topology.
			return buf, fmt.Errorf("routing: %d->%d: route uses missing link %d-%d: %w",
				src, dst, w.frz.IDOf(u), id, ErrNoRoute)
		}
		buf = append(buf, int32(e))
		u = v
	}
	return buf, nil
}

// walkPair is walk keyed by node id, for explicit traffic pairs that may
// name a node the architecture lacks or repeat an endpoint.
func (w *edgeWalker) walkPair(src, dst graph.NodeID, buf []int32) ([]int32, error) {
	s, sok := w.frz.IndexOf(src)
	d, dok := w.frz.IndexOf(dst)
	if sok && dok && s != d {
		return w.walk(s, d, buf)
	}
	return w.walkRoute(src, dst, buf)
}

// routeScan is what one pass over a set of routes learns about their
// channel dependencies.
type routeScan struct {
	frz *graph.Frozen
	// cyclic reports a directed cycle in the channel dependency graph.
	cyclic bool
	// maxDescents is the largest number of dateline descents (a channel
	// whose edge id does not exceed its predecessor's) on any route.
	maxDescents int
}

// scanRoutes walks every route of the pairs (nil = all ordered pairs)
// once as an edge-id sequence. Each consecutive channel pair (a, b) of a
// route is a dependency: a is held while b is requested. It is recorded
// in a bitset with one bit per (channel, out-slot at its head), b's slot
// being its edge id minus the head's first out-edge id, and the pass
// counts dateline descents on the way. One iterative cycle check over
// the bitset ends the scan.
func scanRoutes(r Router, arch *topology.Architecture, pairs [][2]graph.NodeID) (routeScan, error) {
	frz := arch.Graph().Freeze()
	m := frz.EdgeCount()
	// off[a] is the first bit of channel a's dependency row: one bit per
	// out-channel of a's head.
	off := make([]int, m+1)
	for a := 0; a < m; a++ {
		_, head := frz.EdgeEndpoints(a)
		off[a+1] = off[a] + frz.OutDegree(int(head))
	}
	deps := make([]uint64, (off[m]+63)/64)
	scan := routeScan{frz: frz}
	record := func(edges []int32) {
		descents := 0
		for i := 1; i < len(edges); i++ {
			a, b := edges[i-1], edges[i]
			_, head := frz.EdgeEndpoints(int(a))
			bit := off[a] + int(b) - frz.OutEdgeStart(int(head))
			deps[bit>>6] |= 1 << uint(bit&63)
			if b <= a {
				descents++
			}
		}
		scan.maxDescents = max(scan.maxDescents, descents)
	}
	w := newEdgeWalker(r, frz, pairs == nil)
	if pairs == nil {
		if err := w.walkAll(record); err != nil {
			return routeScan{}, err
		}
	} else {
		var buf []int32
		var err error
		for _, pr := range pairs {
			if buf, err = w.walkPair(pr[0], pr[1], buf[:0]); err != nil {
				return routeScan{}, err
			}
			record(buf)
		}
	}
	scan.cyclic = dependencyCycle(frz, off, deps)
	return scan, nil
}

// dependencyCycle reports whether the channel dependency bitset of
// scanRoutes has a directed cycle: an iterative three-color depth-first
// search over channels, each frame resuming at the next out-slot of its
// channel's head.
func dependencyCycle(frz *graph.Frozen, off []int, deps []uint64) bool {
	const (
		white = iota
		gray
		black
	)
	m := frz.EdgeCount()
	color := make([]uint8, m)
	type frame struct{ a, slot int }
	var stack []frame
	for root := 0; root < m; root++ {
		if color[root] != white {
			continue
		}
		color[root] = gray
		stack = append(stack[:0], frame{a: root})
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			_, head := frz.EdgeEndpoints(top.a)
			deg := frz.OutDegree(int(head))
			next := -1
			for ; top.slot < deg; top.slot++ {
				bit := off[top.a] + top.slot
				if deps[bit>>6]&(1<<uint(bit&63)) != 0 {
					next = frz.OutEdgeStart(int(head)) + top.slot
					top.slot++
					break
				}
			}
			switch {
			case next < 0:
				color[top.a] = black
				stack = stack[:len(stack)-1]
			case color[next] == gray:
				return true
			case color[next] == white:
				color[next] = gray
				stack = append(stack, frame{a: next})
			}
		}
	}
	return false
}
