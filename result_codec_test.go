package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/randgraph"
	"repro/internal/tgff"
	"repro/internal/topology"
	"repro/internal/wire"
)

// checkResultDecode decodes data with DecodeResult and with the
// reflection reference (result_ref_test.go): they must accept the same
// inputs, decode them to equal results and re-encode them to equal
// bytes. It returns the decoded result, nil when both rejected data.
func checkResultDecode(t *testing.T, data []byte, lib *Library) *Result {
	t.Helper()
	got, gotErr := DecodeResult(data, lib)
	want, wantErr := refDecodeResult(data, lib)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("input %q:\n codec error %v\n reference error %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("input %q: DecodeResult and the reference decode differently", data)
	}
	gotEnc, gotErr := got.EncodeJSON()
	wantEnc, wantErr := refEncodeResult(want)
	if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(gotEnc, wantEnc) {
		t.Fatalf("input %q: re-encodes differ:\n codec %s (%v)\n  ref  %s (%v)", data, gotEnc, gotErr, wantEnc, wantErr)
	}
	return got
}

// codecCorpus returns the synthesized results the codec is checked on:
// the Figure 6a AES graph in both cost modes, the Figure 5 graph and
// seeded TGFF and scale-free graphs of the benchmark's sizes.
func codecCorpus(t *testing.T) map[string]*Result {
	t.Helper()
	place := GridPlacement(16, 1, 1, 0.2)
	acgs := map[string]*Graph{"aes": AESACG(0.1), "fig5": randgraph.PaperFig5(16)}
	for _, n := range []int{10, 14, 18} {
		g, err := tgff.Generate(tgff.DefaultConfig(n, int64(n)))
		if err != nil {
			t.Fatal(err)
		}
		acgs[fmt.Sprint("tgff", n)] = g
	}
	for _, n := range []int{10, 20, 30} {
		g, err := randgraph.BarabasiAlbert(n, 2, 8, 64, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		acgs[fmt.Sprint("ba", n)] = g
	}
	out := map[string]*Result{}
	for name, acg := range acgs {
		opts := Options{Mode: CostLinks, Timeout: 60 * time.Second}
		if name == "aes" {
			opts.Placement = place
		}
		res, err := Synthesize(acg, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name+"-links"] = res
	}
	res, err := Synthesize(AESACG(0.1), Options{Mode: CostEnergy, Placement: place, Timeout: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	out["aes-energy"] = res
	return out
}

// handBuiltResults returns variants of the golden result that reach the
// codec's optional and escaped parts: no remainder, no architecture, an
// empty routing table, an architecture with and without a placement,
// and names that need escaping.
func handBuiltResults(t *testing.T) map[string]*Result {
	t.Helper()
	decode := func() *Result {
		res, err := DecodeResult([]byte(resultWireGolden), nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	out := map[string]*Result{"golden": decode()}
	noRem := decode()
	noRem.Decomposition.Remainder = nil
	out["nil remainder"] = noRem
	noArch := decode()
	noArch.Architecture = nil
	out["nil architecture"] = noArch
	noTable := decode()
	noTable.Routing = RoutingTable{}
	noTable.VCs = VCAssignment{}
	out["empty table"] = noTable
	placed := decode()
	arch := topology.New("placed", []NodeID{1, 2, 3}, floorplan.Grid(3, 1.5, 1, 0.25))
	for _, l := range [][2]NodeID{{1, 2}, {2, 3}} {
		if err := arch.AddLink(l[0], l[1], 3e-7); err != nil {
			t.Fatal(err)
		}
	}
	placed.Architecture = arch
	out["placement present"] = placed
	names := decode()
	names.Decomposition.Remainder.SetName("rem <b> & \"q\" \xe2\x80\xa8\xe2\x80\xa9 \xff\xfe \x01\t")
	names.Architecture.Name = "arch </script> \xed\xa0\x80 \\ é"
	names.Decomposition.Matches = append(names.Decomposition.Matches, Match{Primitive: names.Decomposition.Matches[0].Primitive, Cost: 1e-7, Depth: 1})
	names.Stats = core.Stats{NodesExplored: math.MaxInt64, TimedOut: true, Elapsed: -1}
	out["escaped names"] = names
	return out
}

// TestResultCodecMatchesReference: EncodeJSON writes the reference's
// bytes for every synthesized and hand-built result, and DecodeResult
// agrees with the reference on those bytes and on rewritings of them
// (indented, members reordered, unknown and case-folded members, null
// members) and on inputs both must reject.
func TestResultCodecMatchesReference(t *testing.T) {
	lib := DefaultLibrary()
	results := codecCorpus(t)
	for name, res := range handBuiltResults(t) {
		results[name] = res
	}
	for name, res := range results {
		got, gotErr := res.EncodeJSON()
		want, wantErr := refEncodeResult(res)
		if gotErr != nil || wantErr != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: encodes differ:\n codec %s (%v)\n  ref  %s (%v)", name, got, gotErr, want, wantErr)
		}
		for _, in := range rewrites(t, got) {
			checkResultDecode(t, in, lib)
		}
	}
	for _, in := range []string{
		`{"version":999,"decomposition":{"cost":0,"remainderCost":0,"matches":[]}}`,
		`{"version":1,"decomposition":{"matches":[{"primitive":12345}]}}`,
		`{"version":1,"decomposition":{"matches":[{"primitive":1,"mapping":[[1,2,3],[4],null,[5,null]]}]}}`,
		`{"version":1,"decomposition":{"matches":[{"primitive":1,"depth":2}]},"decomposition":{"matches":[{"cost":3}]}}`,
		`{"version":1,"routing":[{"node":1,"dst":2,"next":2},{"node":1,"dst":2,"next":3}]}`,
		`{"version":1,"decomposition":{"remainder":{"edges":[{"from":1,"to":1}]}}}`,
		`{"version":1,"architecture":{"links":[{"a":2,"b":1}]}}`,
		`{"version":1,"vcs":{"labels":[{"from":1,"to":2},{"from":1,"to":2}]}}`,
		`{"version":1,"stats":{"Elapsed":1.5}}`,
		`{"version":1}` + " \t\r\n",
		`{"version":1} {}`,
		`{"version":1,"x":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
		`{"version":1,"x":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `}`,
		`null`,
		`not json`,
	} {
		checkResultDecode(t, []byte(in), lib)
	}
}

// rewrites returns enc and equivalent spellings of it: indented, with
// its members in reverse order, with an unknown and a case-folded
// member, and with each optional member null.
func rewrites(t *testing.T, enc []byte) [][]byte {
	t.Helper()
	out := [][]byte{enc}
	var ind bytes.Buffer
	if err := json.Indent(&ind, enc, "", "\t "); err != nil {
		t.Fatal(err)
	}
	out = append(out, ind.Bytes())
	var members []string
	if err := json.Unmarshal(enc, new(map[string]json.RawMessage)); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(enc))
	dec.Token()
	for dec.More() {
		key, _ := dec.Token()
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatal(err)
		}
		k, _ := json.Marshal(key)
		members = append(members, string(k)+":"+string(raw))
	}
	rev := make([]string, len(members))
	for i, m := range members {
		rev[len(members)-1-i] = m
	}
	out = append(out, []byte("{"+strings.Join(rev, ",")+"}"))
	out = append(out, []byte(`{"extra":{"x":[1,2.5e3,null,true,"s"]},"VERSION":1,`+string(enc[1:])))
	for _, member := range []string{"architecture", "routing", "vcs", "stats", "decomposition"} {
		out = append(out, []byte(`{"`+member+`":null,`+string(enc[1:])))
		out = append(out, []byte(string(enc[:len(enc)-1])+`,"`+member+`":null}`))
	}
	out = append(out, bytes.Replace(enc, []byte(`"remainder":{`), []byte(`"remainder":null,"x":{`), 1))
	return out
}

// TestAppendFloatMatchesEncodingJSON: wire.AppendFloat writes what
// json.Marshal writes for a float64 on the format's boundary values and
// on random bit patterns, wire.AppendInt what it writes for the extreme
// ints, and a NaN or infinite cost still fails EncodeJSON.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 1e20, 1e21, 5e-324, math.MaxFloat64,
		-1e-7, -1e-6, -1e20, -1e21, -5e-324, -math.MaxFloat64, 9.999999999999999e-7, 1e21 - 65536, 0.1, 1.5, 123456789}
	rng := rand.New(rand.NewSource(1))
	for range 100000 {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			floats = append(floats, f)
		}
	}
	var buf []byte
	for _, f := range floats {
		var err error
		buf = wire.AppendFloat(buf[:0], f, &err)
		want, jerr := json.Marshal(f)
		if err != nil || jerr != nil || !bytes.Equal(buf, want) {
			t.Fatalf("%v (bits %#x): AppendFloat %s (%v), json.Marshal %s (%v)", f, math.Float64bits(f), buf, err, want, jerr)
		}
	}
	for _, n := range []int64{math.MinInt64, math.MaxInt64, 0, -1} {
		want, _ := json.Marshal(n)
		if got := wire.AppendInt(nil, n); !bytes.Equal(got, want) {
			t.Fatalf("AppendInt(%d) = %s, json.Marshal %s", n, got, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		res, err := DecodeResult([]byte(resultWireGolden), nil)
		if err != nil {
			t.Fatal(err)
		}
		res.Decomposition.Cost = bad
		if _, err := res.EncodeJSON(); err == nil {
			t.Fatalf("decomposition cost %v encoded", bad)
		}
		res.Decomposition.Cost = 5
		res.Decomposition.Matches[0].Cost = bad
		if _, err := res.EncodeJSON(); err == nil {
			t.Fatalf("match cost %v encoded", bad)
		}
	}
}
