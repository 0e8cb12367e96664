package graph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// The reflection codec this package used before its wire codec was
// written by hand, kept verbatim as the oracle the codec must match byte
// for byte and value for value.

type refJSONGraph struct {
	Name  string        `json:"name,omitempty"`
	Nodes []NodeID      `json:"nodes"`
	Edges []refJSONEdge `json:"edges"`
}

type refJSONEdge struct {
	From      NodeID  `json:"from"`
	To        NodeID  `json:"to"`
	Volume    float64 `json:"volume,omitempty"`
	Bandwidth float64 `json:"bandwidth,omitempty"`
}

func refMarshalGraph(g *Graph) ([]byte, error) {
	jg := refJSONGraph{Name: g.name, Nodes: g.Nodes()}
	for _, e := range g.Edges() {
		jg.Edges = append(jg.Edges, refJSONEdge(e))
	}
	return json.Marshal(jg)
}

func refUnmarshalGraph(g *Graph, data []byte) error {
	var jg refJSONGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return err
	}
	*g = *New(jg.Name)
	for _, n := range jg.Nodes {
		g.AddNode(n)
	}
	for _, e := range jg.Edges {
		if e.From == e.To {
			return fmt.Errorf("graph %q: self-loop on node %d not allowed", jg.Name, e.From)
		}
		if g.HasEdge(e.From, e.To) {
			return fmt.Errorf("graph %q: duplicate edge %d->%d", jg.Name, e.From, e.To)
		}
		g.SetEdge(Edge(e))
	}
	return nil
}

// checkGraphDecode decodes data with both codecs: they must accept the
// same inputs, decode them to equal graphs and re-encode them to equal
// bytes.
func checkGraphDecode(t *testing.T, data []byte) {
	t.Helper()
	var got, want Graph
	gotErr, wantErr := got.UnmarshalJSON(data), refUnmarshalGraph(&want, data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("input %q: codec error %v, reference error %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("input %q: codec and reference decode differently", data)
	}
	gotEnc, gotErr := got.MarshalJSON()
	wantEnc, wantErr := refMarshalGraph(&want)
	if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(gotEnc, wantEnc) {
		t.Fatalf("input %q: re-encodes differ:\n codec %s (%v)\n  ref  %s (%v)", data, gotEnc, gotErr, wantEnc, wantErr)
	}
}

var graphCodecInputs = []string{
	`{"name":"g","nodes":[1,2,3],"edges":[{"from":1,"to":2,"volume":8,"bandwidth":1},{"from":2,"to":3}]}`,
	`{"nodes":[],"edges":null}`,
	` { "edges" : [ { "to" : 2 , "from" : 1 } ] , "nodes" : [ 3 ] , "extra" : {"a":[1,{"b":null}]} } `,
	`{"NAME":"x","Nodes":[1],"eDgEs":[{"FROM":1,"To":2}]}`,
	`{"name":null,"nodes":null,"edges":[null,{"from":1,"to":2,"volume":null}]}`,
	`{"name":"a<b>&c` + "\xe2\x80\xa8\xff" + `","nodes":[1]}`,
	`{"name":"esc \"q\" \\ \/ \b\f\n\r\t é 😀 \ud800","nodes":[]}`,
	`{"edges":[{"from":1,"to":2,"volume":3},{"from":1,"to":3}],"edges":[{"from":4}]}`,
	`{"edges":[{"from":1,"to":2}],"edges":[],"edges":[{"to":5},{"from":6,"to":7}]}`,
	`{"edges":[{"from":1,"to":1}]}`,
	`{"edges":[{"from":1,"to":2},{"from":1,"to":2,"volume":5}]}`,
	`{"nodes":[1.5]}`,
	`{"nodes":[1e2]}`,
	`{"nodes":[99999999999999999999]}`,
	`{"edges":[{"from":1,"to":2,"volume":1e400}]}`,
	`{"edges":[{"from":1,"to":2,"volume":-0,"bandwidth":1e-7}]}`,
	`{"nodes":"1"}`,
	`{"name":5}`,
	`{"nodes":[1,]}`,
	`{"nodes":[01]}`,
	`{"a":1}x`,
	`null`,
	`[]`,
	``,
	`{`,
}

// TestGraphCodecMatchesReference: the hand-written codec agrees with the
// reflection reference on hand-built graphs and on inputs covering
// whitespace, member order, case folding, unknown, null and repeated
// members, escapes, and rejected documents.
func TestGraphCodecMatchesReference(t *testing.T) {
	for _, in := range graphCodecInputs {
		checkGraphDecode(t, []byte(in))
	}
	named := New("a<b>&c\xe2\x80\xa9\xfe")
	named.SetEdge(Edge{From: 2, To: 1, Volume: 1e21, Bandwidth: 1e-6})
	named.SetEdge(Edge{From: 10, To: 2, Volume: -0.5})
	named.AddNode(-7)
	for _, g := range []*Graph{New(""), named, CompleteDigraph("k5", []NodeID{1, 2, 3, 4, 5}, 8, 1)} {
		got, gotErr := g.MarshalJSON()
		want, wantErr := refMarshalGraph(g)
		if gotErr != nil || wantErr != nil || !bytes.Equal(got, want) {
			t.Fatalf("encodes differ:\n codec %s (%v)\n  ref  %s (%v)", got, gotErr, want, wantErr)
		}
		checkGraphDecode(t, got)
	}
}

// FuzzGraphCodec: the codec and the reflection reference accept the same
// inputs and decode them alike.
func FuzzGraphCodec(f *testing.F) {
	for _, in := range graphCodecInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(checkGraphDecode)
}
