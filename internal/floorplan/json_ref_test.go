package floorplan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// The reflection codec this package used before its wire codec was
// written by hand, kept verbatim as the oracle the codec must match byte
// for byte and value for value.

type refJSONPlacement struct {
	ChipW float64       `json:"chipW"`
	ChipH float64       `json:"chipH"`
	Cores []refJSONCore `json:"cores"`
}

type refJSONCore struct {
	ID graph.NodeID `json:"id"`
	OX float64      `json:"ox"`
	OY float64      `json:"oy"`
	W  float64      `json:"w"`
	H  float64      `json:"h"`
}

func refMarshalPlacement(p *Placement) ([]byte, error) {
	jp := refJSONPlacement{ChipW: p.ChipW, ChipH: p.ChipH}
	for _, id := range p.Cores() {
		o, d := p.Origin(id), p.Dims(id)
		jp.Cores = append(jp.Cores, refJSONCore{ID: id, OX: o.X, OY: o.Y, W: d.X, H: d.Y})
	}
	return json.Marshal(jp)
}

func refUnmarshalPlacement(p *Placement, data []byte) error {
	var jp refJSONPlacement
	if err := json.Unmarshal(data, &jp); err != nil {
		return err
	}
	origins := make(map[graph.NodeID]Point, len(jp.Cores))
	dims := make(map[graph.NodeID]Point, len(jp.Cores))
	for _, c := range jp.Cores {
		if _, dup := origins[c.ID]; dup {
			return fmt.Errorf("floorplan: duplicate core %d in placement", c.ID)
		}
		origins[c.ID] = Point{X: c.OX, Y: c.OY}
		dims[c.ID] = Point{X: c.W, Y: c.H}
	}
	*p = *NewPlacement(origins, dims)
	p.ChipW, p.ChipH = jp.ChipW, jp.ChipH
	return nil
}

// checkPlacementDecode decodes data with both codecs: they must accept
// the same inputs, decode them to equal placements and re-encode them to
// equal bytes.
func checkPlacementDecode(t *testing.T, data []byte) {
	t.Helper()
	var got, want Placement
	gotErr, wantErr := got.UnmarshalJSON(data), refUnmarshalPlacement(&want, data)
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
	wantEnc, wantErr := refMarshalPlacement(&want)
	if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(gotEnc, wantEnc) {
		t.Fatalf("input %q: re-encodes differ:\n codec %s (%v)\n  ref  %s (%v)", data, gotEnc, gotErr, wantEnc, wantErr)
	}
}

var placementCodecInputs = []string{
	`{"chipW":2.2,"chipH":1,"cores":[{"id":1,"ox":0,"oy":0,"w":1,"h":1},{"id":2,"ox":1.2,"oy":0,"w":1,"h":1}]}`,
	`{"chipW":0,"chipH":0,"cores":null}`,
	` {"cores" : [ {"h":2,"id":3} ] ,"junk":[[[]]], "chipH":9 } `,
	`{"CHIPW":1,"Cores":[{"ID":1,"Ox":2}]}`,
	`{"chipW":null,"cores":[null,{"id":null,"ox":1}]}`,
	`{"cores":[{"id":1,"w":3},{"id":2}],"cores":[{"ox":5}]}`,
	`{"cores":[{"id":1},{"id":1}]}`,
	`{"chipW":1e400}`,
	`{"chipW":"1"}`,
	`{"cores":{}}`,
	`{"cores":[{"id":1.0}]}`,
	`null`,
	`{} {}`,
}

// TestPlacementCodecMatchesReference: the hand-written codec agrees
// with the reflection reference on grid and hand-built placements and
// on inputs covering whitespace, member order, case folding, unknown,
// null and repeated members, and rejected documents.
func TestPlacementCodecMatchesReference(t *testing.T) {
	for _, in := range placementCodecInputs {
		checkPlacementDecode(t, []byte(in))
	}
	odd := NewPlacement(
		map[graph.NodeID]Point{-3: {X: 1e-7, Y: 1e21}, 5: {X: math.MaxFloat64, Y: 5e-324}},
		map[graph.NodeID]Point{-3: {X: 0.1, Y: 0.2}, 5: {X: 1, Y: 1}})
	for _, p := range []*Placement{NewPlacement(nil, nil), Grid(16, 1, 1, 0.2), odd} {
		got, gotErr := p.MarshalJSON()
		want, wantErr := refMarshalPlacement(p)
		if gotErr != nil || wantErr != nil || !bytes.Equal(got, want) {
			t.Fatalf("encodes differ:\n codec %s (%v)\n  ref  %s (%v)", got, gotErr, want, wantErr)
		}
		checkPlacementDecode(t, got)
	}
	nan := Grid(2, 1, 1, 0)
	nan.ChipW = math.NaN()
	if _, err := nan.MarshalJSON(); err == nil {
		t.Fatal("NaN chip width encoded")
	}
}

// FuzzPlacementCodec: the codec and the reflection reference accept the
// same inputs and decode them alike.
func FuzzPlacementCodec(f *testing.F) {
	for _, in := range placementCodecInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(checkPlacementDecode)
}
