package noc

// Fuzz targets for the user-facing parsers — the -pattern spec
// (NewPattern) and the -faults spec (ParseFaultMap) — and for the
// simulate admission check (SimRequest.Check). Seed corpus lives under
// testdata/fuzz/ and in the f.Add calls; run with
//
//	go test ./internal/noc -fuzz FuzzParseFaultMap -fuzztime 30s
//
// The parser properties are parser-shaped: no panic on any input, and
// accepted inputs must survive a canonical-form round trip. The
// admission property is a bound: whatever Check accepts is small enough
// to simulate.

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

func FuzzNewPattern(f *testing.F) {
	for _, name := range PatternNames() {
		f.Add(name, 16)
	}
	seeds := []struct {
		spec string
		n    int
	}{
		{"hotspot:0:0.5", 16},
		{"hotspot:0,5:0.6", 16},
		{"hotspot", 8},
		{"hotspot:", 8},
		{"hotspot:0:x", 8},
		{"hotspot:9999", 8},
		{"hotspot:0:1.5", 8},
		{"hotspot:-1:0.5", 8},
		{"uniform", 0},
		{"uniform", 1},
		{"", 16},
		{"unknown", 16},
		{"transpose", -3},
		{strings.Repeat("hotspot:0:", 50), 16},
	}
	for _, s := range seeds {
		f.Add(s.spec, s.n)
	}
	f.Fuzz(func(t *testing.T, spec string, n int) {
		if n < -1024 || n > 1024 {
			n %= 1024 // keep permutation construction cheap
		}
		pat, err := NewPattern(spec, n)
		if err != nil {
			return
		}
		if pat.Name() == "" {
			t.Fatalf("NewPattern(%q, %d) accepted a nameless pattern", spec, n)
		}
		// Accepted patterns must produce in-range, non-self destinations.
		rng := rand.New(rand.NewSource(1))
		for src := 0; src < n && src < 8; src++ {
			d := pat.DestRank(src, rng)
			if d < 0 || d >= n {
				t.Fatalf("NewPattern(%q, %d): DestRank(%d) = %d out of range", spec, n, src, d)
			}
		}
	})
}

func FuzzParseFaultMap(f *testing.F) {
	for _, spec := range []string{
		"",
		"link:1-2",
		"link:2-1",
		"router:7",
		"link:5-9@2000",
		"link:1-2,router:7@50",
		"router:3,link:9-5@10,link:1-2",
		" link:1-2 , router:4 ",
		"link:1-2@x",
		"link:1-2@0",
		"link:1-2@-5",
		"1-2",
		"link:12",
		"link:a-2",
		"link:3-3",
		"router:x",
		"node:4",
		"link:1-2,,router:3",
		"link:9223372036854775807-1",
		"link:1-2@9223372036854775807",
		strings.Repeat("link:1-2,", 30) + "router:5",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := ParseFaultMap(spec)
		if err != nil {
			return
		}
		// Canonical form must reparse to itself (fixed point).
		canon := m.String()
		again, err := ParseFaultMap(canon)
		if err != nil {
			t.Fatalf("ParseFaultMap(%q) accepted, but its canonical form %q does not reparse: %v",
				spec, canon, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q", canon, got)
		}
		if again.Len() != m.Len() {
			t.Fatalf("round trip changed event count: %d -> %d", m.Len(), again.Len())
		}
	})
}

func FuzzSimRequestCheck(f *testing.F) {
	const point = `"arch":0,"pattern":"uniform","rate":0.1,"seed":1`
	for _, req := range []string{
		`{"archs":[{"mesh":"4x4"}],"points":[{` + point + `,"bits":128,"warmupCycles":10,"measureCycles":50}]}`,
		`{"archs":[{"mesh":"4x4"}],"points":[{` + point + `,"bits":9223372036854775807,"warmupCycles":10,"measureCycles":50}]}`,
		`{"archs":[{"mesh":"4x4"}],"config":{"flitBits":1},"points":[{` + point + `,"bits":100000000,"warmupCycles":10,"measureCycles":50}]}`,
		`{"archs":[{"mesh":"4x4"}],"config":{"flitBits":1},"points":[{` + point + `,"bits":99999999,"warmupCycles":10,"measureCycles":50}]}`,
		`{"archs":[{"mesh":"4x4"}],"points":[{` + point + `,"bits":128,"warmupCycles":-1,"measureCycles":50}]}`,
		`{"archs":[{"mesh":"4x4"}],"points":[{` + point + `,"bits":128,"warmupCycles":10,"measureCycles":-50}]}`,
		`{"archs":[{"mesh":"4x4"}],"points":[{` + point + `,"bits":128,"warmupCycles":9223372036854775807,"measureCycles":9223372036854775807}]}`,
		`{"archs":[{"mesh":"4x4"}],"points":[{` + point + `,"bits":128,"warmupCycles":10,"measureCycles":50,"partitions":2}]}`,
		`{"archs":[{"mesh":"4x4"}],"config":{"numVCs":65536,"bufferFlits":65536},"points":[{` + point + `,"bits":128,"warmupCycles":10,"measureCycles":50}]}`,
		`{"archs":[{"ba":"64:2:3"},{"links":[[1,2],[2,3]]}],"points":[{` + point + `,"bits":-5,"warmupCycles":0,"measureCycles":1}]}`,
		`{"archs":[],"points":[]}`,
		`{`,
	} {
		f.Add([]byte(req))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SimRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		if err := req.Check(); err != nil {
			return
		}
		cfg := req.Config.resolve()
		if cfg.FlitBits <= 0 || cfg.NumVCs > MaxVCs {
			t.Fatalf("Check accepted config %+v", cfg)
		}
		for i, sp := range req.Points {
			if sp.Partitions != 0 && sp.Partitions != 1 {
				t.Fatalf("point %d: Check accepted partitions %d", i, sp.Partitions)
			}
			if sp.WarmupCycles < 0 || sp.MeasureCycles <= 0 || sp.WarmupCycles+sp.MeasureCycles > MaxTraceCycles {
				t.Fatalf("point %d: Check accepted windows warmup=%d measure=%d", i, sp.WarmupCycles, sp.MeasureCycles)
			}
			// The flit count 2 + (bits-1)/FlitBits, compared without
			// overflowing.
			if sp.Bits > 0 && int64((sp.Bits-1)/cfg.FlitBits) > MaxTraceCycles-2 {
				t.Fatalf("point %d: Check accepted %d-bit packets on %d-bit flits", i, sp.Bits, cfg.FlitBits)
			}
		}
	})
}
