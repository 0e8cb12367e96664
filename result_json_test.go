package repro

import (
	"bytes"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// TestResultJSONRoundTrip synthesizes the AES ACG and checks the full
// encode -> decode -> encode cycle is byte-exact, and that the decoded
// result is structurally sound (exact cover, valid routing).
func TestResultJSONRoundTrip(t *testing.T) {
	res := synthesizeAES(t)

	enc1, err := res.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	enc1again, err := res.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc1again) {
		t.Fatal("EncodeJSON is not deterministic on the same value")
	}

	dec, err := DecodeResult(enc1, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := dec.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("round trip not byte-exact:\n first %d bytes\nsecond %d bytes", len(enc1), len(enc2))
	}

	if dec.Decomposition.Cost != res.Decomposition.Cost {
		t.Fatalf("cost changed: %g -> %g", res.Decomposition.Cost, dec.Decomposition.Cost)
	}
	if err := dec.Decomposition.CoverIsExact(AESACG(0.1)); err != nil {
		t.Fatalf("decoded decomposition no longer covers the ACG: %v", err)
	}
	if err := routing.Validate(dec.Routing, dec.Architecture); err != nil {
		t.Fatalf("decoded routing table invalid: %v", err)
	}
	if dec.VCs.NumVCs != res.VCs.NumVCs {
		t.Fatalf("NumVCs changed: %d -> %d", res.VCs.NumVCs, dec.VCs.NumVCs)
	}
	// The VC schedule must survive the trip hop by hop.
	for _, pair := range dec.Architecture.PreferredPairs() {
		route, _ := dec.Architecture.PreferredRoute(pair[0], pair[1])
		for hop := 0; hop+1 < len(route); hop++ {
			if got, want := dec.VCs.VCForHop(route, hop), res.VCs.VCForHop(route, hop); got != want {
				t.Fatalf("VC for hop %d of %v changed: %d -> %d", hop, route, got, want)
			}
		}
	}
	if dec.Stats != res.Stats {
		t.Fatalf("stats changed: %+v -> %+v", res.Stats, dec.Stats)
	}
}

// resultWireGolden is the pinned wire form of the hand-built result of
// TestResultJSONGolden.
const resultWireGolden = `{"version":1,"decomposition":{"cost":5,"remainderCost":1,"matches":[{"primitive":1,"depth":0,"cost":4,"mapping":[[1,3],[2,2],[3,1]]}],"remainder":{"name":"golden-rem","nodes":[1,2],"edges":[{"from":1,"to":2,"volume":8,"bandwidth":1}]}},"architecture":{"name":"golden-arch","nodes":[1,2,3],"links":[{"a":1,"b":2,"lengthMM":1,"demandMbps":4},{"a":2,"b":3,"lengthMM":1,"demandMbps":2}],"preferredRoutes":[[1,2,3]]},"routing":[{"node":1,"dst":2,"next":2},{"node":1,"dst":3,"next":2},{"node":2,"dst":1,"next":1},{"node":2,"dst":3,"next":3},{"node":3,"dst":1,"next":2},{"node":3,"dst":2,"next":2}],"vcs":{"numVCs":1,"singleVC":true,"labels":[{"from":1,"to":2,"label":0},{"from":2,"to":1,"label":1},{"from":2,"to":3,"label":2},{"from":3,"to":2,"label":3}]},"stats":{"NodesExplored":0,"MatchingsTried":0,"BranchesPruned":0,"LeavesReached":0,"ConstraintFails":0,"TimedOut":false,"Canceled":false,"Workers":0,"IsoCacheHits":0,"IsoCacheMisses":0,"Elapsed":0}}`

// TestResultJSONGolden pins the exact wire bytes of a hand-built result.
// The wire form is a persistence format (disk stores of the synthesis
// service outlive processes), so accidental drift must fail loudly; bump
// resultWireVersion on any intentional change.
func TestResultJSONGolden(t *testing.T) {
	lib := DefaultLibrary()
	p := lib.ByID(1)
	if p == nil {
		t.Fatal("default library has no primitive 1")
	}

	remainder := NewACG("golden-rem")
	remainder.AddNode(1)
	remainder.AddNode(2)
	remainder.SetEdge(Edge{From: 1, To: 2, Volume: 8, Bandwidth: 1})

	arch := topology.New("golden-arch", []NodeID{1, 2, 3}, nil)
	if err := arch.AddLink(1, 2, 4); err != nil {
		t.Fatal(err)
	}
	if err := arch.AddLink(2, 3, 2); err != nil {
		t.Fatal(err)
	}
	if err := arch.SetPreferredRoute([]NodeID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}

	table := RoutingTable{}
	if err := table.UnmarshalJSON([]byte(`[
		{"node":1,"dst":2,"next":2},{"node":1,"dst":3,"next":2},
		{"node":2,"dst":1,"next":1},{"node":2,"dst":3,"next":3},
		{"node":3,"dst":1,"next":2},{"node":3,"dst":2,"next":2}]`)); err != nil {
		t.Fatal(err)
	}
	vcs, err := routing.AssignVirtualChannels(table, arch, nil)
	if err != nil {
		t.Fatal(err)
	}

	res := &Result{
		Decomposition: &Decomposition{
			Matches: []Match{{
				Primitive: p,
				Mapping:   map[NodeID]NodeID{1: 3, 2: 2, 3: 1},
				Cost:      4,
				Depth:     0,
			}},
			Remainder:     remainder,
			RemainderCost: 1,
			Cost:          5,
		},
		Architecture: arch,
		Routing:      table,
		VCs:          vcs,
	}

	enc, err := res.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	golden := resultWireGolden
	if string(enc) != golden {
		t.Fatalf("golden encode drifted:\n got: %s\nwant: %s", enc, golden)
	}

	dec, err := DecodeResult(enc, lib)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := dec.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(enc2) != golden {
		t.Fatalf("golden re-encode drifted:\n got: %s", enc2)
	}
}

// TestDecodeResultRejects exercises the failure paths: wrong version and
// unknown primitive references must not decode.
func TestDecodeResultRejects(t *testing.T) {
	if _, err := DecodeResult([]byte(`{"version":999,"decomposition":{"cost":0,"remainderCost":0,"matches":[]}}`), nil); err == nil {
		t.Fatal("version 999 decoded")
	}
	if _, err := DecodeResult([]byte(`{"version":1,"decomposition":{"cost":0,"remainderCost":0,"matches":[{"primitive":12345,"depth":0,"cost":0,"mapping":[]}]}}`), nil); err == nil {
		t.Fatal("unknown primitive decoded")
	}
	if _, err := DecodeResult([]byte(`not json`), nil); err == nil {
		t.Fatal("garbage decoded")
	}
}

// FuzzDecodeResult: decoding arbitrary bytes never panics; DecodeResult
// accepts exactly what the reflection reference accepts, decodes it to
// the same result and re-encodes it to the same bytes; and any accepted
// input re-encodes to bytes that are a fixed point — they decode and
// encode to themselves.
func FuzzDecodeResult(f *testing.F) {
	f.Add([]byte(resultWireGolden))
	f.Add([]byte(`{"version":1,"decomposition":{"cost":0,"remainderCost":0,"matches":[]}}`))
	f.Add([]byte(`{"version":1,"decomposition":{"matches":[{"primitive":1,"mapping":[[1,2],[1,3]]}]},"architecture":null}`))
	f.Add([]byte(`{"version":1,"decomposition":{"matches":[{"primitive":0}]}}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"Version":1,"decomposition":{"matches":[{"primitive":1,"mapping":[[1,2,3]]}]},"decomposition":{"matches":[{"cost":2}]},"stats":{"workers":2}}`))
	f.Add([]byte(`{"version":1,"architecture":{"name":"a<b>","nodes":[1,2],"links":[{"a":1,"b":2}],"placement":{"cores":[{"id":1}]}},"routing":null,"vcs":{"labels":[{"from":1,"to":2}]}}`))
	lib := DefaultLibrary()
	f.Fuzz(func(t *testing.T, data []byte) {
		res := checkResultDecode(t, data, lib)
		if res == nil {
			return
		}
		enc, err := res.EncodeJSON()
		if err != nil {
			t.Fatalf("accepted input does not encode: %v\ninput: %s", err, data)
		}
		dec, err := DecodeResult(enc, lib)
		if err != nil {
			t.Fatalf("re-encoded result does not decode: %v\nbytes: %s", err, enc)
		}
		enc2, err := dec.EncodeJSON()
		if err != nil {
			t.Fatalf("second encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not a fixed point:\n first: %s\nsecond: %s", enc, enc2)
		}
	})
}
