package routing

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/topology"
)

// TestTableJSONRoundTrip: the canonical hop-list wire form round-trips
// and encodes deterministically.
func TestTableJSONRoundTrip(t *testing.T) {
	arch, err := topology.Mesh(3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	table, err := XY(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	enc1, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	var dec Table
	if err := json.Unmarshal(enc1, &dec); err != nil {
		t.Fatal(err)
	}
	enc2, err := json.Marshal(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatal("table round trip not byte-exact")
	}
	if err := Validate(dec, arch); err != nil {
		t.Fatalf("decoded table invalid: %v", err)
	}
}

func TestTableJSONRejectsConflicts(t *testing.T) {
	var dec Table
	err := json.Unmarshal([]byte(`[{"node":1,"dst":2,"next":2},{"node":1,"dst":2,"next":3}]`), &dec)
	if err == nil {
		t.Fatal("conflicting hops decoded")
	}
}

// TestVCAssignmentJSONRoundTrip: labels, NumVCs and the single-VC
// shortcut all survive, and VCForHop answers identically after the trip.
func TestVCAssignmentJSONRoundTrip(t *testing.T) {
	arch, err := topology.Mesh(2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	table, err := XY(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	vcs, err := AssignVirtualChannels(table, arch, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc1, err := json.Marshal(vcs)
	if err != nil {
		t.Fatal(err)
	}
	var dec VCAssignment
	if err := json.Unmarshal(enc1, &dec); err != nil {
		t.Fatal(err)
	}
	enc2, err := json.Marshal(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatal("VC assignment round trip not byte-exact")
	}
	if dec.NumVCs != vcs.NumVCs {
		t.Fatalf("NumVCs %d -> %d", vcs.NumVCs, dec.NumVCs)
	}
	for _, src := range arch.Nodes() {
		for _, dst := range arch.Nodes() {
			if src == dst {
				continue
			}
			route, err := table.Route(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			for hop := 0; hop+1 < len(route); hop++ {
				if dec.VCForHop(route, hop) != vcs.VCForHop(route, hop) {
					t.Fatalf("VCForHop differs after round trip on %v hop %d", route, hop)
				}
			}
		}
	}
}

// TestTableJSONRejectsSparseIDs: a hop list naming many distinct node ids
// in few hops would need a next-hop matrix quadratic in the ids; the
// decoder rejects it with TableBoundError before allocating it.
func TestTableJSONRejectsSparseIDs(t *testing.T) {
	const hops = 20000
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < hops; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"node":%d,"dst":%d,"next":%d}`, 3*i+1, 3*i+2, 3*i+3)
	}
	b.WriteByte(']')
	var dec Table
	err := json.Unmarshal([]byte(b.String()), &dec)
	var be *TableBoundError
	if !errors.As(err, &be) {
		t.Fatalf("sparse hop list: err = %v, want TableBoundError", err)
	}
	if be.Nodes != 3*hops || be.Hops != hops {
		t.Fatalf("TableBoundError names %d nodes / %d hops, want %d / %d", be.Nodes, be.Hops, 3*hops, hops)
	}
	// Repeating a hop adds no entries, so it cannot buy matrix cells.
	dup := strings.Repeat(`{"node":1,"dst":2,"next":3},`, 5000)
	ids := `{"node":4,"dst":5,"next":6}`
	for i := 7; i < 100; i += 3 {
		ids += fmt.Sprintf(`,{"node":%d,"dst":%d,"next":%d}`, i, i+1, i+2)
	}
	if err := json.Unmarshal([]byte("["+dup+ids+"]"), &dec); !errors.As(err, &be) {
		t.Fatalf("duplicate-padded hop list: err = %v, want TableBoundError", err)
	}
	// Complete tables decode at any size.
	arch := baArch(t, 256, 5)
	table, err := Build(arch)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(enc, &dec); err != nil {
		t.Fatalf("complete 256-node table rejected: %v", err)
	}
	if err := Validate(dec, arch); err != nil {
		t.Fatal(err)
	}
}

// FuzzTableUnmarshal: no input panics the decoder or Route over the
// decoded table; the decoder accepts exactly what the reflection
// reference (json_ref_test.go) accepts, decodes it to the same table and
// re-encodes it to the same bytes; and every accepted input re-marshals
// to a canonical form that decodes and re-marshals to the same bytes.
// Seed corpus lives under testdata/fuzz/; run with
//
//	go test ./internal/routing -fuzz FuzzTableUnmarshal -fuzztime 30s
func FuzzTableUnmarshal(f *testing.F) {
	xy, err := XY(2, 3)
	if err != nil {
		f.Fatal(err)
	}
	enc, err := json.Marshal(xy)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add([]byte(`[]`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[{"node":1,"dst":3,"next":2},{"node":2,"dst":3,"next":1}]`))
	f.Add([]byte(`[{"node":2,"dst":1,"next":1},{"node":1,"dst":2,"next":2},{"node":1,"dst":2,"next":2}]`))
	f.Add([]byte(`[{"node":1,"dst":2,"next":2},{"node":1,"dst":2,"next":3}]`))
	f.Add([]byte(`[{"node":-5,"dst":-5,"next":9223372036854775807}]`))
	for _, in := range tableCodecInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, ok := checkTableDecode(t, data)
		if !ok {
			return
		}
		enc, err := tab.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted table does not marshal: %v", err)
		}
		var again Table
		if err := again.UnmarshalJSON(enc); err != nil {
			t.Fatalf("canonical form %s rejected: %v", enc, err)
		}
		enc2, err := again.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("re-marshal differs:\n%s\n%s", enc, enc2)
		}
		if len(tab.ids) <= 32 {
			for _, a := range tab.ids {
				for _, b := range tab.ids {
					tab.Route(a, b)
				}
			}
		}
	})
}
