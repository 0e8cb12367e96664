package noc

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// TestConfigBounds pins the kernel's config limits at NewCompiled:
// nonpositive fields, more VCs than the plan byte range, ring slots
// beyond int32 lane indices and kernel state above MaxNetworkBytes are
// all ErrConfig; configs inside the limits build.
func TestConfigBounds(t *testing.T) {
	arch, err := topology.Mesh(4, 4, nil) // 16 routers, 48 directed links: 64 ports
	if err != nil {
		t.Fatal(err)
	}
	table, err := routing.XY(4, 4)
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
	with := func(f func(*Config)) Config {
		cfg := DefaultConfig()
		f(&cfg)
		return cfg
	}
	bad := map[string]Config{
		"zero flit bits":        with(func(c *Config) { c.FlitBits = 0 }),
		"negative buffer":       with(func(c *Config) { c.BufferFlits = -1 }),
		"257 VCs":               with(func(c *Config) { c.NumVCs = MaxVCs + 1 }),
		"65536 VCs and flits":   with(func(c *Config) { c.NumVCs, c.BufferFlits = 65536, 65536 }),
		"int32 ring overflow":   with(func(c *Config) { c.NumVCs, c.BufferFlits = MaxVCs, 1<<24 }),
		"over memory budget":    with(func(c *Config) { c.NumVCs, c.BufferFlits = 64, 65536 }),
		"huge link latency":     with(func(c *Config) { c.LinkCycles = math.MaxInt }),
		"wheel over the budget": with(func(c *Config) { c.RouterCycles = MaxNetworkBytes / 16 }),
	}
	for name, cfg := range bad {
		if _, err := NewCompiled(cfg, arch, ct); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: err %v, want ErrConfig", name, err)
		}
	}
	good := map[string]Config{
		"default":         DefaultConfig(),
		"max VCs":         with(func(c *Config) { c.NumVCs = MaxVCs }),
		"deep buffers":    with(func(c *Config) { c.NumVCs, c.BufferFlits = 8, 1024 }),
		"long link delay": with(func(c *Config) { c.LinkCycles = 10_000 }),
	}
	for name, cfg := range good {
		if _, err := NewCompiled(cfg, arch, ct); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestSimArchPortBound checks the spec-only port bound CheckConfig
// sizes requests with: exact for a mesh, never below the built
// topology's port count for BA and link-list architectures.
func TestSimArchPortBound(t *testing.T) {
	for _, a := range []SimArch{
		{Mesh: "4x4"}, {Mesh: "1x7"}, {Mesh: "16x32"},
		{BA: "2:1:1"}, {BA: "64:2:3"}, {BA: "1000:3:9"}, {BA: "50:49:2"},
		{Links: [][2]graph.NodeID{{1, 2}, {2, 3}, {3, 1}, {1, 2}}},
	} {
		bound, ok := a.portBound()
		if !ok {
			t.Fatalf("%+v: no bound", a)
		}
		arch, err := a.build(0)
		if err != nil {
			t.Fatal(err)
		}
		ports := int64(2*arch.LinkCount() + len(arch.Nodes()))
		if bound < ports || (a.Mesh != "" && bound != ports) {
			t.Errorf("%+v: bound %d, built topology has %d ports", a, bound, ports)
		}
	}
	for _, a := range []SimArch{{Mesh: "0x4"}, {Mesh: "4294967296x4294967296"}, {BA: "64:64:1"}, {BA: "1:1:1"}} {
		if _, ok := a.portBound(); ok {
			t.Errorf("%+v: malformed spec bounded", a)
		}
		if _, err := a.build(0); err == nil {
			t.Errorf("%+v: malformed spec built", a)
		}
	}
}

// TestSimRequestConfigBound: an oversized config is rejected by
// CheckConfig and by BuildBatch before anything proportional to the
// requested size is allocated.
func TestSimRequestConfigBound(t *testing.T) {
	req := &SimRequest{
		Archs:  []SimArch{{Mesh: "4x4"}},
		Config: &SimConfig{NumVCs: 65536, BufferFlits: 65536},
		Points: []SimPoint{{Pattern: "uniform", Bits: 64, Rate: 0.02, WarmupCycles: 10, MeasureCycles: 20, Seed: 1}},
	}
	for _, c := range []SimConfig{
		{NumVCs: 65536, BufferFlits: 65536},
		{NumVCs: MaxVCs + 1},
		{NumVCs: MaxVCs, BufferFlits: 1 << 20},
		{LinkCycles: math.MaxInt, RouterCycles: math.MaxInt},
	} {
		req.Config = &c
		if err := req.CheckConfig(); !errors.Is(err, ErrConfig) {
			t.Errorf("CheckConfig %+v: err %v, want ErrConfig", c, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := BuildBatch(req)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrConfig) {
			t.Errorf("BuildBatch %+v: err %v, want ErrConfig", c, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("BuildBatch %+v allocated %d bytes before rejecting", c, grew)
		}
	}
	// The budget binds on topology size too: a config that fits a 4x4
	// mesh is refused on the largest mesh a request may name.
	req.Config = &SimConfig{NumVCs: 16, BufferFlits: 64}
	if err := req.CheckConfig(); err != nil {
		t.Fatalf("4x4 at 16 VCs × 64 flits: %v", err)
	}
	req.Archs = []SimArch{{Mesh: "128x128"}}
	if err := req.CheckConfig(); !errors.Is(err, ErrConfig) {
		t.Errorf("128x128 at 16 VCs × 64 flits: err %v, want ErrConfig", err)
	}
}
