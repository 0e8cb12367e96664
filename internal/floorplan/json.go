package floorplan

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/wire"
)

// The wire form of a Placement is
//
//	{"chipW":…,"chipH":…,"cores":[{"id":…,"ox":…,"oy":…,"w":…,"h":…},…]}
//
// per-core origin and placed dimensions in ascending core-id order, plus
// the chip bounding box; "cores":null when nothing is placed. The core
// list is sorted so equal placements encode to identical bytes.

var (
	placementKeys = []string{"chipW", "chipH", "cores"}
	coreKeys      = []string{"id", "ox", "oy", "w", "h"}
)

// MarshalJSON encodes the placement deterministically.
func (p *Placement) MarshalJSON() ([]byte, error) { return p.AppendJSON(nil) }

// AppendJSON appends the placement's wire form to b.
func (p *Placement) AppendJSON(b []byte) ([]byte, error) {
	var err error
	b = append(b, `{"chipW":`...)
	b = wire.AppendFloat(b, p.ChipW, &err)
	b = append(b, `,"chipH":`...)
	b = wire.AppendFloat(b, p.ChipH, &err)
	b = append(b, `,"cores":`...)
	if len(p.origins) == 0 {
		b = append(b, "null"...)
	}
	for i, id := range p.Cores() {
		if i == 0 {
			b = append(b, '[')
		} else {
			b = append(b, ',')
		}
		o, d := p.origins[id], p.dims[id]
		b = append(b, `{"id":`...)
		b = wire.AppendInt(b, id)
		b = append(b, `,"ox":`...)
		b = wire.AppendFloat(b, o.X, &err)
		b = append(b, `,"oy":`...)
		b = wire.AppendFloat(b, o.Y, &err)
		b = append(b, `,"w":`...)
		b = wire.AppendFloat(b, d.X, &err)
		b = append(b, `,"h":`...)
		b = wire.AppendFloat(b, d.Y, &err)
		b = append(b, '}')
	}
	if len(p.origins) > 0 {
		b = append(b, ']')
	}
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// UnmarshalJSON decodes a placement produced by MarshalJSON. The chip
// bounding box is taken from the wire form verbatim (it may exceed the
// union of core boxes when the floorplanner reserved slack).
func (p *Placement) UnmarshalJSON(data []byte) error {
	r := wire.NewReader(data)
	p.ReadJSON(r)
	return r.Finish()
}

// wireCore is one entry of the placement's core list.
type wireCore struct {
	id           graph.NodeID
	ox, oy, w, h float64
}

// ReadJSON reads a placement's wire form from r into p, replacing it;
// null reads as the empty placement. Errors are recorded in r.
func (p *Placement) ReadJSON(r *wire.Reader) {
	var chipW, chipH float64
	var cores []wireCore
	if !r.Null() && r.Object() {
		for r.More() {
			switch r.Key(placementKeys) {
			case "chipW":
				r.Float(&chipW)
			case "chipH":
				r.Float(&chipH)
			case "cores":
				cores = wire.Slice(r, cores, readCore)
			default:
				r.Skip()
			}
		}
	}
	if r.Err() != nil {
		return
	}
	origins := make(map[graph.NodeID]Point, len(cores))
	dims := make(map[graph.NodeID]Point, len(cores))
	for _, c := range cores {
		if _, dup := origins[c.id]; dup {
			r.Fail(fmt.Errorf("floorplan: duplicate core %d in placement", c.id))
			return
		}
		origins[c.id] = Point{X: c.ox, Y: c.oy}
		dims[c.id] = Point{X: c.w, Y: c.h}
	}
	*p = *NewPlacement(origins, dims)
	p.ChipW, p.ChipH = chipW, chipH
}

func readCore(r *wire.Reader, c *wireCore) {
	if r.Null() || !r.Object() {
		return
	}
	for r.More() {
		switch r.Key(coreKeys) {
		case "id":
			wire.Int(r, &c.id)
		case "ox":
			r.Float(&c.ox)
		case "oy":
			r.Float(&c.oy)
		case "w":
			r.Float(&c.w)
		case "h":
			r.Float(&c.h)
		default:
			r.Skip()
		}
	}
}
