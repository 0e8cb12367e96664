package graph

import (
	"fmt"

	"repro/internal/wire"
)

// The wire form of a Graph, used by the CLI tools, the service's request
// bodies and result remainders, is
//
//	{"name":…,"nodes":[…],"edges":[{"from":…,"to":…,"volume":…,"bandwidth":…},…]}
//
// with nodes ascending, edges in (from, to) order, name omitted when
// empty, volume and bandwidth omitted when zero, and "edges":null for a
// graph without edges. The node list keeps isolated vertices.

var (
	graphKeys = []string{"name", "nodes", "edges"}
	edgeKeys  = []string{"from", "to", "volume", "bandwidth"}
)

// MarshalJSON encodes the graph deterministically.
func (g *Graph) MarshalJSON() ([]byte, error) { return g.AppendJSON(nil) }

// AppendJSON appends the graph's wire form to b.
func (g *Graph) AppendJSON(b []byte) ([]byte, error) {
	nodes := g.Nodes()
	b = append(b, '{')
	if g.name != "" {
		b = append(b, `"name":`...)
		b = wire.AppendString(b, g.name)
		b = append(b, ',')
	}
	b = append(b, `"nodes":[`...)
	for i, n := range nodes {
		if i > 0 {
			b = append(b, ',')
		}
		b = wire.AppendInt(b, n)
	}
	b = append(b, `],"edges":`...)
	if g.edges == 0 {
		return append(b, "null}"...), nil
	}
	var err error
	for i, e := range g.Edges() {
		if i == 0 {
			b = append(b, '[')
		} else {
			b = append(b, ',')
		}
		b = append(b, `{"from":`...)
		b = wire.AppendInt(b, e.From)
		b = append(b, `,"to":`...)
		b = wire.AppendInt(b, e.To)
		if e.Volume != 0 {
			b = append(b, `,"volume":`...)
			b = wire.AppendFloat(b, e.Volume, &err)
		}
		if e.Bandwidth != 0 {
			b = append(b, `,"bandwidth":`...)
			b = wire.AppendFloat(b, e.Bandwidth, &err)
		}
		b = append(b, '}')
	}
	if err != nil {
		return nil, err
	}
	return append(b, "]}"...), nil
}

// UnmarshalJSON decodes a graph previously produced by MarshalJSON (or
// hand-written in the same schema). Edges between duplicate ordered pairs
// are rejected.
func (g *Graph) UnmarshalJSON(data []byte) error {
	r := wire.NewReader(data)
	g.ReadJSON(r)
	return r.Finish()
}

// ReadJSON reads a graph's wire form from r into g, replacing it; null
// reads as the empty graph. Errors are recorded in r.
func (g *Graph) ReadJSON(r *wire.Reader) {
	var name string
	var nodes []NodeID
	var edges []Edge
	if !r.Null() && r.Object() {
		for r.More() {
			switch r.Key(graphKeys) {
			case "name":
				r.String(&name)
			case "nodes":
				nodes = wire.Slice(r, nodes, wire.Int[NodeID])
			case "edges":
				edges = wire.Slice(r, edges, readEdge)
			default:
				r.Skip()
			}
		}
	}
	if r.Err() != nil {
		return
	}
	out := New(name)
	for _, n := range nodes {
		out.AddNode(n)
	}
	for _, e := range edges {
		if e.From == e.To {
			r.Fail(fmt.Errorf("graph %q: self-loop on node %d not allowed", name, e.From))
			return
		}
		if out.HasEdge(e.From, e.To) {
			r.Fail(fmt.Errorf("graph %q: duplicate edge %d->%d", name, e.From, e.To))
			return
		}
		out.SetEdge(e)
	}
	*g = *out
}

func readEdge(r *wire.Reader, e *Edge) {
	if r.Null() || !r.Object() {
		return
	}
	for r.More() {
		switch r.Key(edgeKeys) {
		case "from":
			wire.Int(r, &e.From)
		case "to":
			wire.Int(r, &e.To)
		case "volume":
			r.Float(&e.Volume)
		case "bandwidth":
			r.Float(&e.Bandwidth)
		default:
			r.Skip()
		}
	}
}
