package noc

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/randgraph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// The golden fixtures under testdata/ were captured from the seed (pre-
// activity-driven) kernel and pin the simulator's observable behavior
// byte for byte: any refactor of the kernel must reproduce the exact
// same sweep JSON and Stats JSON. Regenerate deliberately with
//
//	go test ./internal/noc -run Golden -update
//
// and treat any diff as a semantic change to the simulator.
var updateGolden = flag.Bool("update", false, "rewrite golden fixtures from the current kernel")

func goldenPath(name string) string { return filepath.Join("testdata", name) }

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from the seed-kernel golden:\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// scaleFreeArch builds a deterministic Barabási–Albert architecture
// (arXiv:0908.0976 regime, far larger hub skew than the 4x4 mesh) with
// schedule-free shortest-path routing and the dateline VC assignment —
// the second scenario of the golden suite.
func scaleFreeArch(t testing.TB, cfg Config) BatchArch {
	t.Helper()
	g, err := randgraph.BarabasiAlbert(24, 2, 8, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	arch := topology.New(g.Name(), g.Nodes(), nil)
	seen := make(map[[2]graph.NodeID]bool)
	for _, e := range g.Edges() {
		a, b := e.From, e.To
		if a > b {
			a, b = b, a
		}
		if a == b || seen[[2]graph.NodeID{a, b}] {
			continue
		}
		seen[[2]graph.NodeID{a, b}] = true
		if err := arch.AddLink(a, b, 0); err != nil {
			t.Fatal(err)
		}
	}
	table, err := routing.Build(arch)
	if err != nil {
		t.Fatal(err)
	}
	vcs, err := routing.AssignVirtualChannels(table, arch, nil)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := routing.CompileTable(table, arch, vcs)
	if err != nil {
		t.Fatal(err)
	}
	return BatchArch{Cfg: cfg, Arch: arch, Table: ct}
}

// TestGoldenSweepJSON pins SweepResult.EncodeJSON byte for byte on the
// AES evaluation mesh and the scale-free scenario, at Parallelism 1 and
// N — the refactored kernel must emit the seed kernel's exact bytes at
// every worker count.
func TestGoldenSweepJSON(t *testing.T) {
	type scenario struct {
		name  string
		arch  BatchArch
		spec  string
		rates []float64
		seed  int64
	}
	scenarios := []scenario{
		{"sweep_mesh4x4_uniform.golden.json", meshArch(t, 4, 4, DefaultConfig()), "uniform", []float64{0.01, 0.05, 0.12, 0.3}, 42},
		{"sweep_scalefree_hotspot.golden.json", scaleFreeArch(t, DefaultConfig()), "hotspot:0:0.5", []float64{0.01, 0.05, 0.15}, 9},
	}
	for _, sc := range scenarios {
		pat, err := NewPattern(sc.spec, len(sc.arch.Arch.Nodes()))
		if err != nil {
			t.Fatal(err)
		}
		cfg := SweepConfig{
			Pattern:       pat,
			Bits:          128,
			Rates:         sc.rates,
			WarmupCycles:  300,
			MeasureCycles: 1500,
			Seed:          sc.seed,
			Parallelism:   1,
		}
		encode := func(par int) []byte {
			cfg.Parallelism = par
			res, err := Sweep(context.Background(), sc.arch, cfg)
			if err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			var buf bytes.Buffer
			if err := res.EncodeJSON(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		serial := encode(1)
		checkGolden(t, sc.name, serial)
		if par4 := encode(4); !bytes.Equal(par4, serial) {
			t.Fatalf("%s: sweep JSON differs between -parallel 1 and 4", sc.name)
		}
	}
}

// TestGoldenStatsJSON pins Stats.MarshalJSON byte for byte after a
// deterministic replay on both golden scenarios: the full activity trace
// (per-router switch traversals, per-link flit counts, latency
// aggregates) must survive the kernel refactor unchanged.
func TestGoldenStatsJSON(t *testing.T) {
	type scenario struct {
		name string
		arch BatchArch
		spec string
		seed int64
		rate float64
	}
	scenarios := []scenario{
		{"stats_mesh4x4_uniform.golden.json", meshArch(t, 4, 4, DefaultConfig()), "uniform", 7, 0.05},
		{"stats_scalefree_uniform.golden.json", scaleFreeArch(t, DefaultConfig()), "uniform", 11, 0.04},
	}
	for _, sc := range scenarios {
		net, err := NewCompiled(sc.arch.Cfg, sc.arch.Arch, sc.arch.Table)
		if err != nil {
			t.Fatal(err)
		}
		pat, err := NewPattern(sc.spec, len(sc.arch.Arch.Nodes()))
		if err != nil {
			t.Fatal(err)
		}
		trace, err := GenerateTrace(pat, TrafficConfig{
			Nodes: net.Nodes(),
			Bits:  96,
			Rate:  sc.rate,
			Seed:  sc.seed,
		}, 600)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.ReplayContext(context.Background(), trace, 1_000_000); err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		st := net.Stats()
		enc, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		enc = append(enc, '\n')
		cycles := fmt.Sprintf("cycles: %d\n", net.Cycle())
		checkGolden(t, sc.name, append([]byte(cycles), enc...))
	}
}
