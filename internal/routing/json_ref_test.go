package routing

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
)

// The reflection codecs this package used before its wire codecs were
// written by hand, kept verbatim as the oracles the codecs must match
// byte for byte and value for value.

type refJSONHop struct {
	Node graph.NodeID `json:"node"`
	Dst  graph.NodeID `json:"dst"`
	Next graph.NodeID `json:"next"`
}

func refMarshalTable(t Table) ([]byte, error) {
	n := len(t.ids)
	count := 0
	for _, v := range t.next {
		if v >= 0 {
			count++
		}
	}
	hops := make([]refJSONHop, 0, count)
	for u, node := range t.ids {
		for d, dst := range t.ids {
			if v := t.next[d*n+u]; v >= 0 {
				hops = append(hops, refJSONHop{Node: node, Dst: dst, Next: t.ids[v]})
			}
		}
	}
	return json.Marshal(hops)
}

func refUnmarshalTable(t *Table, data []byte) error {
	var hops []refJSONHop
	if err := json.Unmarshal(data, &hops); err != nil {
		return err
	}
	wire := make([]jsonHop, len(hops))
	for i, h := range hops {
		wire[i] = jsonHop(h)
	}
	out, err := refTableFromHops(wire)
	if err != nil {
		return err
	}
	*t = out
	return nil
}

type refJSONVCs struct {
	NumVCs   int            `json:"numVCs"`
	SingleVC bool           `json:"singleVC"`
	Labels   []refJSONLabel `json:"labels,omitempty"`
}

type refJSONLabel struct {
	From  graph.NodeID `json:"from"`
	To    graph.NodeID `json:"to"`
	Label int          `json:"label"`
}

func refMarshalVCs(a VCAssignment) ([]byte, error) {
	jv := refJSONVCs{NumVCs: a.NumVCs, SingleVC: a.singleVC}
	if len(a.labels) > 0 {
		jv.Labels = make([]refJSONLabel, len(a.labels))
		for i, l := range a.labels {
			jv.Labels[i] = refJSONLabel{From: l.From, To: l.To, Label: l.label}
		}
	}
	return json.Marshal(jv)
}

func refUnmarshalVCs(a *VCAssignment, data []byte) error {
	var jv refJSONVCs
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

// checkTableDecode decodes data with both table codecs: they must accept
// the same inputs, decode them to equal tables and re-encode them to
// equal bytes. It returns the decoded table and whether it was accepted.
func checkTableDecode(t *testing.T, data []byte) (Table, bool) {
	t.Helper()
	var got, want Table
	gotErr, wantErr := got.UnmarshalJSON(data), refUnmarshalTable(&want, data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("input %q: codec error %v, reference error %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		return Table{}, false
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("input %q: codec and reference decode differently", data)
	}
	gotEnc, _ := got.MarshalJSON()
	wantEnc, err := refMarshalTable(want)
	if err != nil || !bytes.Equal(gotEnc, wantEnc) {
		t.Fatalf("input %q: re-encodes differ:\n codec %s\n  ref  %s (%v)", data, gotEnc, wantEnc, err)
	}
	return got, true
}

// checkVCsDecode is checkTableDecode for VC assignments.
func checkVCsDecode(t *testing.T, data []byte) {
	t.Helper()
	var got, want VCAssignment
	gotErr, wantErr := got.UnmarshalJSON(data), refUnmarshalVCs(&want, data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("input %q: codec error %v, reference error %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("input %q: codec and reference decode differently", data)
	}
	gotEnc, _ := got.MarshalJSON()
	wantEnc, err := refMarshalVCs(want)
	if err != nil || !bytes.Equal(gotEnc, wantEnc) {
		t.Fatalf("input %q: re-encodes differ:\n codec %s\n  ref  %s (%v)", data, gotEnc, wantEnc, err)
	}
}

var tableCodecInputs = []string{
	`[{"node":1,"dst":2,"next":2},{"node":2,"dst":1,"next":1}]`,
	`[]`,
	`null`,
	` [ { "next" : 2 , "dst" : 2 , "node" : 1 , "via" : [ null ] } ] `,
	`[{"NODE":1,"Dst":3,"nExt":2},{"node":2,"dst":3,"next":3}]`,
	`[null,{"node":1,"dst":2,"next":2}]`,
	`[{"node":1,"dst":2,"next":2,"node":3}]`,
	`[{"node":1,"dst":2,"next":null}]`,
	`[{"node":1,"dst":2,"next":2},{"node":1,"dst":2,"next":3}]`,
	`[{"node":-5,"dst":-5,"next":9223372036854775807}]`,
	`[{"node":1,"dst":2,"next":9223372036854775808}]`,
	`[{"node":1.0,"dst":2,"next":2}]`,
	`[{"node":"1","dst":2,"next":2}]`,
	`{"node":1}`,
	`[{"node":1,"dst":2,"next":2}`,
	`[{"node":1,"dst":2,"next":2}] x`,
}

var vcsCodecInputs = []string{
	`{"numVCs":2,"singleVC":false,"labels":[{"from":1,"to":2,"label":0},{"from":2,"to":1,"label":1}]}`,
	`{"numVCs":1,"singleVC":true}`,
	`null`,
	`{}`,
	` { "labels" : [ { "label" : 4 , "to" : 1 , "from" : 3 } , { "from" : 1 , "to" : 3 } ] , "numVCs" : 3 , "z" : true } `,
	`{"NumVCs":2,"SINGLEVC":true,"Labels":[{"FROM":1,"TO":2,"Label":3}]}`,
	`{"numVCs":null,"singleVC":null,"labels":[null]}`,
	`{"labels":[{"from":1,"to":2,"label":5},{"from":3,"to":4}],"labels":[{"label":7}]}`,
	`{"labels":[{"from":1,"to":2},{"from":1,"to":2}]}`,
	`{"singleVC":1}`,
	`{"labels":null,"labels":[]}`,
	`[]`,
}

// TestRoutingCodecsMatchReference: the hand-written table and VC codecs
// agree with the reflection references on built tables and assignments
// and on inputs covering whitespace, member order, case folding,
// unknown, null and repeated members, and rejected documents.
func TestRoutingCodecsMatchReference(t *testing.T) {
	for _, in := range tableCodecInputs {
		checkTableDecode(t, []byte(in))
	}
	for _, in := range vcsCodecInputs {
		checkVCsDecode(t, []byte(in))
	}
	xy, err := XY(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	arch := baArch(t, 30, 7)
	built, err := Build(arch)
	if err != nil {
		t.Fatal(err)
	}
	vcs, err := AssignVirtualChannels(built, arch, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []Table{{}, newTable(nil), xy, built} {
		got, _ := table.MarshalJSON()
		want, err := refMarshalTable(table)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("table encodes differ:\n codec %s\n  ref  %s (%v)", got, want, err)
		}
		checkTableDecode(t, got)
	}
	for _, a := range []VCAssignment{{}, {NumVCs: 1, singleVC: true}, vcs} {
		got, _ := a.MarshalJSON()
		want, err := refMarshalVCs(a)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("VC encodes differ:\n codec %s\n  ref  %s (%v)", got, want, err)
		}
		checkVCsDecode(t, got)
	}
}

// FuzzVCAssignmentCodec: the VC codec and the reflection reference
// accept the same inputs and decode them alike.
func FuzzVCAssignmentCodec(f *testing.F) {
	for _, in := range vcsCodecInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(checkVCsDecode)
}

// refTableFromHops is tableFromHops as it was with the reflection
// codec: it builds a table over every node id the hops name, and
// reorders hops.
func refTableFromHops(hops []jsonHop) (Table, error) {
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
