package topology

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/graph"
)

// The reflection codec this package used before its wire codec was
// written by hand, kept verbatim as the oracle the codec must match byte
// for byte and value for value. The placement inside goes through the
// floorplan codec, which is checked against its own reference.

type refJSONArch struct {
	Name      string               `json:"name"`
	Nodes     []graph.NodeID       `json:"nodes"`
	Links     []refJSONLink        `json:"links"`
	Preferred [][]graph.NodeID     `json:"preferredRoutes,omitempty"`
	Placement *floorplan.Placement `json:"placement,omitempty"`
}

type refJSONLink struct {
	A        graph.NodeID `json:"a"`
	B        graph.NodeID `json:"b"`
	LengthMM float64      `json:"lengthMM"`
	Demand   float64      `json:"demandMbps"`
}

func refMarshalArch(a *Architecture) ([]byte, error) {
	ja := refJSONArch{Name: a.Name, Nodes: a.Nodes(), Placement: a.placement}
	for _, l := range a.Links() {
		ja.Links = append(ja.Links, refJSONLink{A: l.A, B: l.B, LengthMM: l.LengthMM, Demand: l.DemandMbps})
	}
	for _, pair := range a.PreferredPairs() {
		r, _ := a.PreferredRoute(pair[0], pair[1])
		ja.Preferred = append(ja.Preferred, r)
	}
	return json.Marshal(ja)
}

func refUnmarshalArch(a *Architecture, data []byte) error {
	var ja refJSONArch
	if err := json.Unmarshal(data, &ja); err != nil {
		return err
	}
	out := New(ja.Name, ja.Nodes, ja.Placement)
	for _, l := range ja.Links {
		if l.A >= l.B {
			return fmt.Errorf("topology: link %d-%d not in canonical (A < B) order", l.A, l.B)
		}
		key := [2]graph.NodeID{l.A, l.B}
		if _, dup := out.links[key]; dup {
			return fmt.Errorf("topology: duplicate link %d-%d", l.A, l.B)
		}
		out.links[key] = &Link{A: l.A, B: l.B, LengthMM: l.LengthMM, DemandMbps: l.Demand}
	}
	for _, r := range ja.Preferred {
		if err := out.SetPreferredRoute(r); err != nil {
			return err
		}
	}
	*a = *out
	return nil
}

// checkArchDecode decodes data with both codecs: they must accept the
// same inputs, decode them to equal architectures and re-encode them to
// equal bytes.
func checkArchDecode(t *testing.T, data []byte) {
	t.Helper()
	var got, want Architecture
	gotErr, wantErr := got.UnmarshalJSON(data), refUnmarshalArch(&want, data)
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
	wantEnc, wantErr := refMarshalArch(&want)
	if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(gotEnc, wantEnc) {
		t.Fatalf("input %q: re-encodes differ:\n codec %s (%v)\n  ref  %s (%v)", data, gotEnc, gotErr, wantEnc, wantErr)
	}
}

var archCodecInputs = []string{
	`{"name":"a","nodes":[1,2,3],"links":[{"a":1,"b":2,"lengthMM":1,"demandMbps":4},{"a":2,"b":3,"lengthMM":1.5,"demandMbps":2}],"preferredRoutes":[[1,2,3]]}`,
	`{"name":"","nodes":null,"links":null}`,
	`{"name":"p","nodes":[1,2],"links":[{"a":1,"b":2,"lengthMM":2,"demandMbps":0}],"placement":{"chipW":2,"chipH":1,"cores":[{"id":1,"ox":0,"oy":0,"w":1,"h":1}]}}`,
	` { "preferredRoutes" : [ [ 2 , 1 ] ] , "links" : [ { "b" : 2 , "a" : 1 } ] , "x" : "y" } `,
	`{"NAME":"n","LINKS":[{"A":1,"B":2,"LengthMm":3}],"Placement":null}`,
	`{"links":[null,{"a":1,"b":2}],"nodes":[null,4]}`,
	`{"preferredRoutes":[[1,2]],"preferredRoutes":[[3]],"links":[{"a":1,"b":2}]}`,
	`{"links":[{"a":1,"b":2,"lengthMM":7},{"a":3,"b":4}],"links":[{"demandMbps":9}]}`,
	`{"links":[{"a":2,"b":1}]}`,
	`{"links":[{"a":1,"b":1}]}`,
	`{"links":[{"a":1,"b":2},{"a":1,"b":2}]}`,
	`{"preferredRoutes":[[1,3]],"links":[{"a":1,"b":2}]}`,
	`{"preferredRoutes":[null]}`,
	`{"placement":[]}`,
	`{"placement":{"cores":[{"id":1},{"id":1}]}}`,
	`{"name":"a<b>&` + "\xe2\x80\xa8\xc3" + `"}`,
	`null`,
	`"arch"`,
}

// TestArchitectureCodecMatchesReference: the hand-written codec agrees
// with the reflection reference on meshes, glued and hand-built
// architectures with and without placement, and on inputs covering
// whitespace, member order, case folding, unknown, null and repeated
// members, and rejected documents.
func TestArchitectureCodecMatchesReference(t *testing.T) {
	for _, in := range archCodecInputs {
		checkArchDecode(t, []byte(in))
	}
	mesh, err := Mesh(3, 3, floorplan.Grid(9, 1, 1, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	bare, err := Mesh(2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	named := New("x<y>&z\xe2\x80\xa9\xff", []graph.NodeID{3, 1, 2}, nil)
	for _, l := range [][2]graph.NodeID{{1, 2}, {2, 3}} {
		if err := named.AddLink(l[0], l[1], 1e-7); err != nil {
			t.Fatal(err)
		}
	}
	if err := named.SetPreferredRoute([]graph.NodeID{3, 2, 1}); err != nil {
		t.Fatal(err)
	}
	for _, a := range []*Architecture{New("", nil, nil), mesh, bare, named} {
		got, gotErr := a.MarshalJSON()
		want, wantErr := refMarshalArch(a)
		if gotErr != nil || wantErr != nil || !bytes.Equal(got, want) {
			t.Fatalf("encodes differ:\n codec %s (%v)\n  ref  %s (%v)", got, gotErr, want, wantErr)
		}
		checkArchDecode(t, got)
	}
}

// FuzzArchitectureCodec: the codec and the reflection reference accept
// the same inputs and decode them alike.
func FuzzArchitectureCodec(f *testing.F) {
	for _, in := range archCodecInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(checkArchDecode)
}
