package routing

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/graph"
	"repro/internal/wire"
)

// The wire forms below are deterministic by construction: entries are
// emitted as arrays sorted by their numeric keys, so equal values always
// marshal to identical bytes. encoding/json's own map encoding sorts keys
// as strings ("10" < "2"), which is stable but surprising to diff; the
// explicit arrays keep the output both canonical and readable.
// internal/service relies on byte-identical encodes to serve cached
// results that compare equal to fresh ones.

// jsonHop is one routing-table entry: at node, toward dst, go to next.
type jsonHop struct {
	Node, Dst, Next graph.NodeID
}

var (
	hopKeys   = []string{"node", "dst", "next"}
	vcsKeys   = []string{"numVCs", "singleVC", "labels"}
	labelKeys = []string{"from", "to", "label"}
)

// MarshalJSON encodes the table as a flat hop list sorted by (node, dst):
//
//	[{"node":…,"dst":…,"next":…},…]
func (t Table) MarshalJSON() ([]byte, error) { return t.AppendJSON(nil), nil }

// AppendJSON appends the table's hop list to b.
func (t Table) AppendJSON(b []byte) []byte {
	n := len(t.ids)
	count := 0
	for _, v := range t.next {
		if v >= 0 {
			count++
		}
	}
	b = slices.Grow(b, 2+count*len(`{"node":100,"dst":100,"next":100},`))
	b = append(b, '[')
	first := true
	for u, node := range t.ids {
		for d, dst := range t.ids {
			v := t.next[d*n+u]
			if v < 0 {
				continue
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			b = append(b, `{"node":`...)
			b = wire.AppendInt(b, node)
			b = append(b, `,"dst":`...)
			b = wire.AppendInt(b, dst)
			b = append(b, `,"next":`...)
			b = wire.AppendInt(b, t.ids[v])
			b = append(b, '}')
		}
	}
	return append(b, ']')
}

// Decode bounds: the next-hop matrix of n distinct node ids holds n²
// cells, while a complete table lists n(n−1) distinct hops. A hop list
// whose matrix would exceed maxCellsPerHop cells per distinct hop — ids
// scattered over few hops — is rejected before anything of that size is
// allocated, unless the matrix is at most minBoundedCells cells.
const (
	maxCellsPerHop  = 4
	minBoundedCells = 4096
)

// TableBoundError rejects a decoded hop list whose dense next-hop matrix
// would be out of proportion to the hops it lists.
type TableBoundError struct {
	// Nodes is the number of distinct node ids the hops name; Hops is
	// the number of distinct hops listed.
	Nodes, Hops int
}

func (e *TableBoundError) Error() string {
	return fmt.Sprintf("routing: table names %d nodes in only %d hops (at most %d matrix cells per hop)",
		e.Nodes, e.Hops, maxCellsPerHop)
}

// UnmarshalJSON decodes a hop list produced by MarshalJSON. Conflicting
// duplicate entries are rejected, as are hop lists too sparse for their
// node count (TableBoundError).
func (t *Table) UnmarshalJSON(data []byte) error {
	r := wire.NewReader(data)
	t.ReadJSON(r)
	return r.Finish()
}

// ReadJSON reads a hop list from r into t, replacing it; null reads as
// the empty table. Errors are recorded in r.
func (t *Table) ReadJSON(r *wire.Reader) {
	hops := wire.Slice(r, nil, readHop)
	if r.Err() != nil {
		return
	}
	out, err := tableFromHops(hops)
	if err != nil {
		r.Fail(err)
		return
	}
	*t = out
}

func readHop(r *wire.Reader, h *jsonHop) {
	if r.Null() || !r.Object() {
		return
	}
	for r.More() {
		switch r.Key(hopKeys) {
		case "node":
			wire.Int(r, &h.Node)
		case "dst":
			wire.Int(r, &h.Dst)
		case "next":
			wire.Int(r, &h.Next)
		default:
			r.Skip()
		}
	}
}

// tableFromHops builds a table over every node id the hops name. It
// reorders hops.
func tableFromHops(hops []jsonHop) (Table, error) {
	slices.SortFunc(hops, compareHops)
	hops = slices.Compact(hops)
	if len(hops) == 0 {
		return newTable([]graph.NodeID{}), nil
	}
	lo, hi := hops[0].Node, hops[0].Node
	for _, h := range hops {
		lo = min(lo, h.Node, h.Dst, h.Next)
		hi = max(hi, h.Node, h.Dst, h.Next)
	}
	// Ids spanning a range a few times the hop count (a table's usual
	// 1..n) are indexed through a dense position array instead of being
	// sorted and binary-searched.
	var pos []int32
	var ids []graph.NodeID
	if span := uint64(hi) - uint64(lo); span < uint64(4*len(hops)) {
		pos = make([]int32, span+1)
		for _, h := range hops {
			pos[h.Node-lo], pos[h.Dst-lo], pos[h.Next-lo] = 1, 1, 1
		}
		ids = make([]graph.NodeID, 0, len(pos))
		for i, seen := range pos {
			if seen != 0 {
				pos[i] = int32(len(ids))
				ids = append(ids, lo+graph.NodeID(i))
			}
		}
	} else {
		ids = make([]graph.NodeID, 0, 3*len(hops))
		for _, h := range hops {
			ids = append(ids, h.Node, h.Dst, h.Next)
		}
		slices.Sort(ids)
		ids = slices.Compact(ids)
	}
	if cells := len(ids) * len(ids); cells > minBoundedCells && cells > maxCellsPerHop*len(hops) {
		return Table{}, &TableBoundError{Nodes: len(ids), Hops: len(hops)}
	}
	t := newTable(slices.Clip(ids))
	if pos == nil {
		for _, h := range hops {
			if err := t.set(h.Node, h.Dst, h.Next); err != nil {
				return Table{}, err
			}
		}
		return t, nil
	}
	n := len(ids)
	for _, h := range hops {
		u, d, v := pos[h.Node-lo], pos[h.Dst-lo], pos[h.Next-lo]
		cell := &t.next[int(d)*n+int(u)]
		if *cell >= 0 && *cell != v {
			return Table{}, fmt.Errorf("routing: conflicting next hop at node %d for %d: %d vs %d", h.Node, h.Dst, t.ids[*cell], h.Next)
		}
		*cell = v
	}
	return t, nil
}

func compareHops(a, b jsonHop) int {
	return cmp.Or(cmp.Compare(a.Node, b.Node), cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Next, b.Next))
}

// The wire form of a VCAssignment is
//
//	{"numVCs":…,"singleVC":…,"labels":[{"from":…,"to":…,"label":…},…]}
//
// with the dateline label of every directed channel sorted by (from,
// to), and labels omitted when there are none.

// MarshalJSON encodes the assignment deterministically.
func (a VCAssignment) MarshalJSON() ([]byte, error) { return a.AppendJSON(nil), nil }

// AppendJSON appends the assignment's wire form to b.
func (a VCAssignment) AppendJSON(b []byte) []byte {
	b = slices.Grow(b, 64+len(a.labels)*len(`{"from":100,"to":100,"label":10},`))
	b = append(b, `{"numVCs":`...)
	b = wire.AppendInt(b, a.NumVCs)
	b = append(b, `,"singleVC":`...)
	b = strconv.AppendBool(b, a.singleVC)
	for i, l := range a.labels {
		if i == 0 {
			b = append(b, `,"labels":[`...)
		} else {
			b = append(b, ',')
		}
		b = append(b, `{"from":`...)
		b = wire.AppendInt(b, l.From)
		b = append(b, `,"to":`...)
		b = wire.AppendInt(b, l.To)
		b = append(b, `,"label":`...)
		b = wire.AppendInt(b, l.label)
		b = append(b, '}')
	}
	if len(a.labels) > 0 {
		b = append(b, ']')
	}
	return append(b, '}')
}

// UnmarshalJSON decodes an assignment produced by MarshalJSON.
func (a *VCAssignment) UnmarshalJSON(data []byte) error {
	r := wire.NewReader(data)
	a.ReadJSON(r)
	return r.Finish()
}

// ReadJSON reads an assignment's wire form from r into a, replacing it;
// null reads as the zero assignment. A channel labeled twice is an
// error, recorded in r.
func (a *VCAssignment) ReadJSON(r *wire.Reader) {
	var numVCs int
	var singleVC bool
	var labels []channelLabel
	if !r.Null() && r.Object() {
		for r.More() {
			switch r.Key(vcsKeys) {
			case "numVCs":
				wire.Int(r, &numVCs)
			case "singleVC":
				r.Bool(&singleVC)
			case "labels":
				labels = wire.Slice(r, labels, readLabel)
			default:
				r.Skip()
			}
		}
	}
	if r.Err() != nil {
		return
	}
	if labels == nil {
		labels = []channelLabel{}
	}
	sort.Slice(labels, func(i, j int) bool { return channelLess(labels[i].Channel, labels[j].Channel) })
	for i := 1; i < len(labels); i++ {
		if c := labels[i].Channel; c == labels[i-1].Channel {
			r.Fail(fmt.Errorf("routing: duplicate channel label %d->%d", c.From, c.To))
			return
		}
	}
	*a = VCAssignment{NumVCs: numVCs, singleVC: singleVC, labels: labels}
}

func readLabel(r *wire.Reader, l *channelLabel) {
	if r.Null() || !r.Object() {
		return
	}
	for r.More() {
		switch r.Key(labelKeys) {
		case "from":
			wire.Int(r, &l.From)
		case "to":
			wire.Int(r, &l.To)
		case "label":
			wire.Int(r, &l.label)
		default:
			r.Skip()
		}
	}
}
