package topology

import (
	"fmt"

	"repro/internal/floorplan"
	"repro/internal/graph"
	"repro/internal/wire"
)

// The wire form of an Architecture is
//
//	{"name":…,"nodes":[…],"links":[{"a":…,"b":…,"lengthMM":…,"demandMbps":…},…],
//	 "preferredRoutes":[[…],…],"placement":{…}}
//
// with links in (a, b) order and preferred routes in (source,
// destination) order, so equal architectures encode to identical bytes.
// An architecture without nodes or links writes null for them; one
// without preferred routes or placement omits the member.

var (
	archKeys = []string{"name", "nodes", "links", "preferredRoutes", "placement"}
	linkKeys = []string{"a", "b", "lengthMM", "demandMbps"}
)

// MarshalJSON encodes the architecture deterministically.
func (a *Architecture) MarshalJSON() ([]byte, error) { return a.AppendJSON(nil) }

// AppendJSON appends the architecture's wire form to b.
func (a *Architecture) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"name":`...)
	b = wire.AppendString(b, a.Name)
	b = append(b, `,"nodes":`...)
	b = appendRoute(b, a.nodes)
	b = append(b, `,"links":`...)
	var err error
	if len(a.links) == 0 {
		b = append(b, "null"...)
	} else {
		for i, l := range a.Links() {
			if i == 0 {
				b = append(b, '[')
			} else {
				b = append(b, ',')
			}
			b = append(b, `{"a":`...)
			b = wire.AppendInt(b, l.A)
			b = append(b, `,"b":`...)
			b = wire.AppendInt(b, l.B)
			b = append(b, `,"lengthMM":`...)
			b = wire.AppendFloat(b, l.LengthMM, &err)
			b = append(b, `,"demandMbps":`...)
			b = wire.AppendFloat(b, l.DemandMbps, &err)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if err != nil {
		return nil, err
	}
	if len(a.preferred) > 0 {
		b = append(b, `,"preferredRoutes":`...)
		for i, pair := range a.PreferredPairs() {
			if i == 0 {
				b = append(b, '[')
			} else {
				b = append(b, ',')
			}
			b = appendRoute(b, a.preferred[pair])
		}
		b = append(b, ']')
	}
	if a.placement != nil {
		b = append(b, `,"placement":`...)
		if b, err = a.placement.AppendJSON(b); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// appendRoute appends a node list, null when it is empty.
func appendRoute(b []byte, ids []graph.NodeID) []byte {
	if len(ids) == 0 {
		return append(b, "null"...)
	}
	for i, id := range ids {
		if i == 0 {
			b = append(b, '[')
		} else {
			b = append(b, ',')
		}
		b = wire.AppendInt(b, id)
	}
	return append(b, ']')
}

// UnmarshalJSON decodes an architecture produced by MarshalJSON. Link
// lengths are restored verbatim rather than re-derived from the placement,
// so a round trip is exact even for hand-built architectures whose lengths
// never came from a floorplan.
func (a *Architecture) UnmarshalJSON(data []byte) error {
	r := wire.NewReader(data)
	a.ReadJSON(r)
	return r.Finish()
}

// ReadJSON reads an architecture's wire form from r into a, replacing
// it; null reads as the empty architecture. Links must be listed once
// each in canonical (A < B) order. Errors are recorded in r.
func (a *Architecture) ReadJSON(r *wire.Reader) {
	var name string
	var nodes []graph.NodeID
	var links []Link
	var preferred [][]graph.NodeID
	var placement *floorplan.Placement
	if !r.Null() && r.Object() {
		for r.More() {
			switch r.Key(archKeys) {
			case "name":
				r.String(&name)
			case "nodes":
				nodes = wire.Slice(r, nodes, wire.Int[graph.NodeID])
			case "links":
				links = wire.Slice(r, links, readLink)
			case "preferredRoutes":
				preferred = wire.Slice(r, preferred, readRoute)
			case "placement":
				if r.Null() {
					placement = nil
				} else {
					placement = new(floorplan.Placement)
					placement.ReadJSON(r)
				}
			default:
				r.Skip()
			}
		}
	}
	if r.Err() != nil {
		return
	}
	out := New(name, nodes, placement)
	for _, l := range links {
		if l.A >= l.B {
			r.Fail(fmt.Errorf("topology: link %d-%d not in canonical (A < B) order", l.A, l.B))
			return
		}
		if _, dup := out.links[l.Key()]; dup {
			r.Fail(fmt.Errorf("topology: duplicate link %d-%d", l.A, l.B))
			return
		}
		out.links[l.Key()] = &l
	}
	for _, route := range preferred {
		if err := out.SetPreferredRoute(route); err != nil {
			r.Fail(err)
			return
		}
	}
	*a = *out
}

func readLink(r *wire.Reader, l *Link) {
	if r.Null() || !r.Object() {
		return
	}
	for r.More() {
		switch r.Key(linkKeys) {
		case "a":
			wire.Int(r, &l.A)
		case "b":
			wire.Int(r, &l.B)
		case "lengthMM":
			r.Float(&l.LengthMM)
		case "demandMbps":
			r.Float(&l.DemandMbps)
		default:
			r.Skip()
		}
	}
}

func readRoute(r *wire.Reader, route *[]graph.NodeID) {
	*route = wire.Slice(r, *route, wire.Int[graph.NodeID])
}
