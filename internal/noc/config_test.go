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

// TestSimArchPortBound checks the spec-only port bound Check
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
// Check and by BuildBatch before anything proportional to the
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
		if err := req.Check(); !errors.Is(err, ErrConfig) {
			t.Errorf("Check %+v: err %v, want ErrConfig", c, err)
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
	if err := req.Check(); err != nil {
		t.Fatalf("4x4 at 16 VCs × 64 flits: %v", err)
	}
	req.Archs = []SimArch{{Mesh: "128x128"}}
	if err := req.Check(); !errors.Is(err, ErrConfig) {
		t.Errorf("128x128 at 16 VCs × 64 flits: err %v, want ErrConfig", err)
	}
}

// TestPacketBitsBound: a packet whose flit count exceeds MaxTraceCycles
// (MaxInt64 bits used to overflow the count negative, so the packet
// never got a tail and a 4x4 point reported nothing delivered) is
// refused with ErrConfig by the admission check, BuildBatch, RunSim,
// Batch.Run, Sweep, Inject and InjectRouted.
func TestPacketBitsBound(t *testing.T) {
	mk := func(bits int, flitBits int) *SimRequest {
		return &SimRequest{
			Archs:  []SimArch{{Mesh: "4x4"}},
			Config: &SimConfig{FlitBits: flitBits},
			Points: []SimPoint{{
				Arch: 0, Pattern: "uniform", Bits: bits, Rate: 0.1,
				WarmupCycles: 10, MeasureCycles: 50, Seed: 1,
			}},
		}
	}
	// With 1-bit flits a packet of MaxTraceCycles-1 bits is exactly
	// MaxTraceCycles flits; one more bit is over the bound.
	if err := mk(int(MaxTraceCycles)-1, 1).Check(); err != nil {
		t.Fatalf("packet of MaxTraceCycles flits rejected: %v", err)
	}
	for _, c := range []struct{ bits, flitBits int }{
		{math.MaxInt64, 0},
		{math.MaxInt64, 1},
		{math.MaxInt64, 32},
		{int(MaxTraceCycles), 1},
	} {
		req := mk(c.bits, c.flitBits)
		if err := req.Check(); !errors.Is(err, ErrConfig) {
			t.Errorf("Check %d bits on %d-bit flits: err %v, want ErrConfig", c.bits, c.flitBits, err)
		}
		if _, err := BuildBatch(req); !errors.Is(err, ErrConfig) {
			t.Errorf("BuildBatch %d bits: err %v, want ErrConfig", c.bits, err)
		}
		if _, err := RunSim(t.Context(), req, 1); !errors.Is(err, ErrConfig) {
			t.Errorf("RunSim %d bits: err %v, want ErrConfig", c.bits, err)
		}
	}

	b, err := BuildBatch(mk(128, 0))
	if err != nil {
		t.Fatal(err)
	}
	b.Points[0].Bits = math.MaxInt64
	if _, err := b.Run(t.Context()); !errors.Is(err, ErrConfig) {
		t.Errorf("Batch.Run MaxInt64 bits: err %v, want ErrConfig", err)
	}
	scfg := SweepConfig{Pattern: b.Points[0].Pattern, Bits: math.MaxInt64, Rates: []float64{0.1}, MeasureCycles: 50}
	if _, err := Sweep(t.Context(), b.Archs[0], scfg); !errors.Is(err, ErrConfig) {
		t.Errorf("Sweep MaxInt64 bits: err %v, want ErrConfig", err)
	}

	net, err := NewCompiled(b.Archs[0].Cfg, b.Archs[0].Arch, b.Archs[0].Table)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Inject(1, 2, math.MaxInt64, ""); !errors.Is(err, ErrConfig) {
		t.Errorf("Inject MaxInt64 bits: err %v, want ErrConfig", err)
	}
	if _, err := net.InjectRouted(1, 2, math.MaxInt64, "", []graph.NodeID{1, 2}, []int{0, 0}); !errors.Is(err, ErrConfig) {
		t.Errorf("InjectRouted MaxInt64 bits: err %v, want ErrConfig", err)
	}
	if net.Pending() != 0 || net.Stats().Injected != 0 {
		t.Errorf("refused packets were queued: pending %d, injected %d", net.Pending(), net.Stats().Injected)
	}
}
