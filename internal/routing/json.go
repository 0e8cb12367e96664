package routing

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
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
	Node graph.NodeID `json:"node"`
	Dst  graph.NodeID `json:"dst"`
	Next graph.NodeID `json:"next"`
}

// MarshalJSON encodes the table as a flat hop list sorted by (node, dst).
func (t Table) MarshalJSON() ([]byte, error) {
	n := len(t.ids)
	count := 0
	for _, v := range t.next {
		if v >= 0 {
			count++
		}
	}
	hops := make([]jsonHop, 0, count)
	for u, node := range t.ids {
		for d, dst := range t.ids {
			if v := t.next[d*n+u]; v >= 0 {
				hops = append(hops, jsonHop{Node: node, Dst: dst, Next: t.ids[v]})
			}
		}
	}
	return json.Marshal(hops)
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
	var hops []jsonHop
	if err := json.Unmarshal(data, &hops); err != nil {
		return err
	}
	out, err := tableFromHops(hops)
	if err != nil {
		return err
	}
	*t = out
	return nil
}

// tableFromHops builds a table over every node id the hops name. It
// reorders hops.
func tableFromHops(hops []jsonHop) (Table, error) {
	slices.SortFunc(hops, func(a, b jsonHop) int {
		if a.Node != b.Node {
			return cmp.Compare(a.Node, b.Node)
		}
		if a.Dst != b.Dst {
			return cmp.Compare(a.Dst, b.Dst)
		}
		return cmp.Compare(a.Next, b.Next)
	})
	hops = slices.Compact(hops)
	ids := make([]graph.NodeID, 0, 3*len(hops))
	for _, h := range hops {
		ids = append(ids, h.Node, h.Dst, h.Next)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	if cells := len(ids) * len(ids); cells > minBoundedCells && cells > maxCellsPerHop*len(hops) {
		return Table{}, &TableBoundError{Nodes: len(ids), Hops: len(hops)}
	}
	t := newTable(slices.Clip(ids))
	for _, h := range hops {
		if err := t.set(h.Node, h.Dst, h.Next); err != nil {
			return Table{}, err
		}
	}
	return t, nil
}

// jsonVCs is the wire form of a VCAssignment: the dateline label of every
// directed channel, sorted by (from, to).
type jsonVCs struct {
	NumVCs   int         `json:"numVCs"`
	SingleVC bool        `json:"singleVC"`
	Labels   []jsonLabel `json:"labels,omitempty"`
}

type jsonLabel struct {
	From  graph.NodeID `json:"from"`
	To    graph.NodeID `json:"to"`
	Label int          `json:"label"`
}

// MarshalJSON encodes the assignment deterministically.
func (a VCAssignment) MarshalJSON() ([]byte, error) {
	jv := jsonVCs{NumVCs: a.NumVCs, SingleVC: a.singleVC}
	if len(a.labels) > 0 {
		jv.Labels = make([]jsonLabel, len(a.labels))
		for i, l := range a.labels {
			jv.Labels[i] = jsonLabel{From: l.From, To: l.To, Label: l.label}
		}
	}
	return json.Marshal(jv)
}

// UnmarshalJSON decodes an assignment produced by MarshalJSON.
func (a *VCAssignment) UnmarshalJSON(data []byte) error {
	var jv jsonVCs
	if err := json.Unmarshal(data, &jv); err != nil {
		return err
	}
	labels := make([]channelLabel, len(jv.Labels))
	for i, l := range jv.Labels {
		labels[i] = channelLabel{Channel: Channel{From: l.From, To: l.To}, label: l.Label}
	}
	sort.Slice(labels, func(i, j int) bool { return channelLess(labels[i].Channel, labels[j].Channel) })
	for i := 1; i < len(labels); i++ {
		if c := labels[i].Channel; c == labels[i-1].Channel {
			return fmt.Errorf("routing: duplicate channel label %d->%d", c.From, c.To)
		}
	}
	*a = VCAssignment{NumVCs: jv.NumVCs, singleVC: jv.SingleVC, labels: labels}
	return nil
}
