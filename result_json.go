package repro

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/wire"
)

// resultWireVersion tags the Result wire layout. DecodeResult rejects
// other versions, so external caches (internal/service stores, files on
// disk) miss cleanly instead of mis-decoding after a schema change.
const resultWireVersion = 1

// The wire form of a Result is
//
//	{"version":1,
//	 "decomposition":{"cost":…,"remainderCost":…,
//	   "matches":[{"primitive":…,"depth":…,"cost":…,"mapping":[[from,to],…]},…],
//	   "remainder":{graph}},
//	 "architecture":{architecture} or null,
//	 "routing":[hops],"vcs":{VC assignment},"stats":{solver stats}}
//
// Every map-backed component (routing table, VC labels, architecture
// links, placement, match mappings) is written in sorted order by the
// codec of its own package, so one Result value always encodes to one
// byte string — the property the synthesis service's content-addressed
// cache and its coalescing tests rely on ("N identical submissions,
// byte-identical responses"). A match references its primitive by
// library ID: the library is a shared catalog on both sides of the wire,
// so shipping the full representation/implementation graphs would only
// invite divergence. The remainder is omitted when nil.

var (
	resultKeys = []string{"version", "decomposition", "architecture", "routing", "vcs", "stats"}
	decompKeys = []string{"cost", "remainderCost", "matches", "remainder"}
	matchKeys  = []string{"primitive", "depth", "cost", "mapping"}
)

// encodeBufs holds the scratch buffers EncodeJSON builds results in.
// It returns an exact-size copy instead of the buffer: the synthesis
// service keeps encoded results in its cache, where a buffer's spare
// capacity would be held too.
var encodeBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 16<<10)
	return &b
}}

// maxPooledBuf bounds the buffers kept for reuse, so one huge result
// does not pin its buffer for the life of the process.
const maxPooledBuf = 1 << 20

// EncodeJSON marshals the result into its canonical wire form. The
// encoding is deterministic: equal results produce byte-identical output.
func (r *Result) EncodeJSON() ([]byte, error) {
	if r == nil || r.Decomposition == nil {
		return nil, fmt.Errorf("repro: cannot encode nil result or decomposition")
	}
	buf := encodeBufs.Get().(*[]byte)
	b, err := r.appendJSON((*buf)[:0])
	out := bytes.Clone(b)
	if cap(b) <= maxPooledBuf {
		*buf = b
		encodeBufs.Put(buf)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// appendJSON appends the result's wire form to b.
func (r *Result) appendJSON(b []byte) ([]byte, error) {
	d := r.Decomposition
	var err error
	b = append(b, `{"version":`...)
	b = wire.AppendInt(b, resultWireVersion)
	b = append(b, `,"decomposition":{"cost":`...)
	b = wire.AppendFloat(b, d.Cost, &err)
	b = append(b, `,"remainderCost":`...)
	b = wire.AppendFloat(b, d.RemainderCost, &err)
	b = append(b, `,"matches":[`...)
	most := 0
	for _, m := range d.Matches {
		most = max(most, len(m.Mapping))
	}
	pairs := make([][2]graph.NodeID, 0, most) // one match's mapping, sorted
	for i, m := range d.Matches {
		if m.Primitive == nil {
			return nil, fmt.Errorf("repro: match with nil primitive")
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"primitive":`...)
		b = wire.AppendInt(b, m.Primitive.ID)
		b = append(b, `,"depth":`...)
		b = wire.AppendInt(b, m.Depth)
		b = append(b, `,"cost":`...)
		b = wire.AppendFloat(b, m.Cost, &err)
		b = append(b, `,"mapping":[`...)
		pairs = pairs[:0]
		for k, v := range m.Mapping {
			pairs = append(pairs, [2]graph.NodeID{k, v})
		}
		slices.SortFunc(pairs, func(x, y [2]graph.NodeID) int { return cmp.Compare(x[0], y[0]) })
		for j, p := range pairs {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			b = wire.AppendInt(b, p[0])
			b = append(b, ',')
			b = wire.AppendInt(b, p[1])
			b = append(b, ']')
		}
		b = append(b, "]}"...)
	}
	b = append(b, ']')
	if err != nil {
		return nil, err
	}
	if d.Remainder != nil {
		b = append(b, `,"remainder":`...)
		if b, err = d.Remainder.AppendJSON(b); err != nil {
			return nil, err
		}
	}
	b = append(b, `},"architecture":`...)
	if r.Architecture == nil {
		b = append(b, "null"...)
	} else if b, err = r.Architecture.AppendJSON(b); err != nil {
		return nil, err
	}
	b = append(b, `,"routing":`...)
	b = r.Routing.AppendJSON(b)
	b = append(b, `,"vcs":`...)
	b = r.VCs.AppendJSON(b)
	b = append(b, `,"stats":`...)
	b = r.Stats.AppendJSON(b)
	return append(b, '}'), nil
}

// matchJSON is one decoded entry of the match list, before its primitive
// is resolved against the library.
type matchJSON struct {
	primitive, depth int
	cost             float64
	mapping          [][2]graph.NodeID
}

// DecodeResult unmarshals a Result previously produced by EncodeJSON.
// Primitive references are resolved against lib (nil means the default
// library); decoding fails if a referenced primitive ID is absent, so a
// result can never silently bind to the wrong catalog entry.
func DecodeResult(data []byte, lib *Library) (*Result, error) {
	if lib == nil {
		lib = DefaultLibrary()
	}
	var (
		version int
		cost    float64
		remCost float64
		matches []matchJSON
		rem     *graph.Graph
		res     Result
	)
	r := wire.NewReader(data)
	if !r.Null() && r.Object() {
		for r.More() {
			switch r.Key(resultKeys) {
			case "version":
				wire.Int(r, &version)
			case "decomposition":
				if r.Null() || !r.Object() {
					break
				}
				for r.More() {
					switch r.Key(decompKeys) {
					case "cost":
						r.Float(&cost)
					case "remainderCost":
						r.Float(&remCost)
					case "matches":
						matches = wire.Slice(r, matches, readMatch)
					case "remainder":
						if r.Null() {
							rem = nil
						} else {
							rem = new(graph.Graph)
							rem.ReadJSON(r)
						}
					default:
						r.Skip()
					}
				}
			case "architecture":
				if r.Null() {
					res.Architecture = nil
				} else {
					res.Architecture = new(Architecture)
					res.Architecture.ReadJSON(r)
				}
			case "routing":
				res.Routing.ReadJSON(r)
			case "vcs":
				res.VCs.ReadJSON(r)
			case "stats":
				res.Stats.ReadJSON(r)
			default:
				r.Skip()
			}
		}
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("repro: decoding result: %w", err)
	}
	if version != resultWireVersion {
		return nil, fmt.Errorf("repro: result wire version %d, want %d", version, resultWireVersion)
	}
	d := &Decomposition{Cost: cost, RemainderCost: remCost, Remainder: rem}
	for _, m := range matches {
		p := lib.ByID(m.primitive)
		if p == nil {
			return nil, fmt.Errorf("repro: result references primitive %d not in library", m.primitive)
		}
		mapping := make(iso.Mapping, len(m.mapping))
		for _, pair := range m.mapping {
			mapping[pair[0]] = pair[1]
		}
		d.Matches = append(d.Matches, Match{Primitive: p, Mapping: mapping, Cost: m.cost, Depth: m.depth})
	}
	res.Decomposition = d
	return &res, nil
}

func readMatch(r *wire.Reader, m *matchJSON) {
	if r.Null() || !r.Object() {
		return
	}
	for r.More() {
		switch r.Key(matchKeys) {
		case "primitive":
			wire.Int(r, &m.primitive)
		case "depth":
			wire.Int(r, &m.depth)
		case "cost":
			r.Float(&m.cost)
		case "mapping":
			m.mapping = wire.Slice(r, m.mapping, readPair)
		default:
			r.Skip()
		}
	}
}

// readPair reads a [from, to] pair as encoding/json fills a Go array:
// elements past the second are read and dropped, missing ones are zero.
func readPair(r *wire.Reader, p *[2]graph.NodeID) {
	if r.Null() || !r.Array() {
		return
	}
	n := 0
	for r.More() {
		if n < len(p) {
			wire.Int(r, &p[n])
		} else {
			r.Skip()
		}
		n++
	}
	for ; n < len(p); n++ {
		p[n] = 0
	}
}
