package repro

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/iso"
)

// The reflection codec the Result wire form had before it was written by
// hand, kept verbatim as the oracle EncodeJSON and DecodeResult must
// match byte for byte and value for value. Its nested members go through
// their types' MarshalJSON and UnmarshalJSON, each checked against its
// own reflection reference in its package (json_ref_test.go), so this
// reference composes with those into the complete former codec.

type refResultJSON struct {
	Version       int                  `json:"version"`
	Decomposition refDecompositionJSON `json:"decomposition"`
	Architecture  *Architecture        `json:"architecture"`
	Routing       RoutingTable         `json:"routing"`
	VCs           VCAssignment         `json:"vcs"`
	Stats         core.Stats           `json:"stats"`
}

type refDecompositionJSON struct {
	Cost          float64        `json:"cost"`
	RemainderCost float64        `json:"remainderCost"`
	Matches       []refMatchJSON `json:"matches"`
	Remainder     *graph.Graph   `json:"remainder,omitempty"`
}

type refMatchJSON struct {
	Primitive int               `json:"primitive"`
	Depth     int               `json:"depth"`
	Cost      float64           `json:"cost"`
	Mapping   [][2]graph.NodeID `json:"mapping"`
}

func refEncodeResult(r *Result) ([]byte, error) {
	if r == nil || r.Decomposition == nil {
		return nil, fmt.Errorf("repro: cannot encode nil result or decomposition")
	}
	w := refResultJSON{
		Version: resultWireVersion,
		Decomposition: refDecompositionJSON{
			Cost:          r.Decomposition.Cost,
			RemainderCost: r.Decomposition.RemainderCost,
			Matches:       make([]refMatchJSON, 0, len(r.Decomposition.Matches)),
			Remainder:     r.Decomposition.Remainder,
		},
		Architecture: r.Architecture,
		Routing:      r.Routing,
		VCs:          r.VCs,
		Stats:        r.Stats,
	}
	for _, m := range r.Decomposition.Matches {
		if m.Primitive == nil {
			return nil, fmt.Errorf("repro: match with nil primitive")
		}
		w.Decomposition.Matches = append(w.Decomposition.Matches, refMatchJSON{
			Primitive: m.Primitive.ID,
			Depth:     m.Depth,
			Cost:      m.Cost,
			Mapping:   m.Mapping.Pairs(),
		})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	// Keep "<" and friends literal: the wire form is a machine artifact,
	// and escaping would make the bytes depend on encoder defaults.
	enc.SetEscapeHTML(false)
	if err := enc.Encode(w); err != nil {
		return nil, err
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

func refDecodeResult(data []byte, lib *Library) (*Result, error) {
	if lib == nil {
		lib = DefaultLibrary()
	}
	var w refResultJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("repro: decoding result: %w", err)
	}
	if w.Version != resultWireVersion {
		return nil, fmt.Errorf("repro: result wire version %d, want %d", w.Version, resultWireVersion)
	}
	d := &Decomposition{
		Cost:          w.Decomposition.Cost,
		RemainderCost: w.Decomposition.RemainderCost,
		Remainder:     w.Decomposition.Remainder,
	}
	for _, m := range w.Decomposition.Matches {
		p := lib.ByID(m.Primitive)
		if p == nil {
			return nil, fmt.Errorf("repro: result references primitive %d not in library", m.Primitive)
		}
		mapping := make(iso.Mapping, len(m.Mapping))
		for _, pair := range m.Mapping {
			mapping[pair[0]] = pair[1]
		}
		d.Matches = append(d.Matches, Match{Primitive: p, Mapping: mapping, Cost: m.Cost, Depth: m.Depth})
	}
	return &Result{
		Decomposition: d,
		Architecture:  w.Architecture,
		Routing:       w.Routing,
		VCs:           w.VCs,
		Stats:         w.Stats,
	}, nil
}
