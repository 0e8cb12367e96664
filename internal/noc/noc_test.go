package noc

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

func meshNet(t *testing.T, rows, cols int, cfg Config) *Network {
	t.Helper()
	arch, err := topology.Mesh(rows, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	table, err := routing.XY(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := routing.AssignVirtualChannels(table, arch, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(cfg, arch, table, vc)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNewRejectsBadConfig(t *testing.T) {
	arch, _ := topology.Mesh(2, 2, nil)
	table, _ := routing.XY(2, 2)
	vc, _ := routing.AssignVirtualChannels(table, arch, nil)
	bad := DefaultConfig()
	bad.FlitBits = 0
	if _, err := New(bad, arch, table, vc); err == nil {
		t.Fatal("bad config accepted")
	}
	if _, err := New(DefaultConfig(), nil, table, vc); err == nil {
		t.Fatal("nil arch accepted")
	}
}

func TestSinglePacketLatency(t *testing.T) {
	n := meshNet(t, 2, 2, DefaultConfig())
	// 1 -> 2: one hop. 32-bit packet = 1 head + 1 payload flit.
	p, err := n.Inject(1, 2, 32, "t")
	if err != nil {
		t.Fatal(err)
	}
	if !n.RunUntilDrained(100) {
		t.Fatal("did not drain")
	}
	// Pipeline: inject flit 1 (cycle 1), SA at source router, link, SA at
	// dest router, eject. Tail follows head by one cycle. Latency must be
	// small and positive.
	if p.Latency() <= 0 || p.Latency() > 10 {
		t.Fatalf("latency = %d", p.Latency())
	}
	st := n.Stats()
	if st.Delivered != 1 || st.DeliveredBits != 32 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLatencyScalesWithHops(t *testing.T) {
	cfg := DefaultConfig()
	n1 := meshNet(t, 4, 4, cfg)
	p1, _ := n1.Inject(1, 2, 64, "") // 1 hop
	n1.RunUntilDrained(1000)

	n2 := meshNet(t, 4, 4, cfg)
	p2, _ := n2.Inject(1, 16, 64, "") // 6 hops
	n2.RunUntilDrained(1000)

	if p2.Latency() <= p1.Latency() {
		t.Fatalf("6-hop latency %d not greater than 1-hop %d", p2.Latency(), p1.Latency())
	}
}

func TestLargerPacketsTakeLonger(t *testing.T) {
	cfg := DefaultConfig()
	nSmall := meshNet(t, 2, 2, cfg)
	ps, _ := nSmall.Inject(1, 4, 32, "")
	nSmall.RunUntilDrained(1000)

	nBig := meshNet(t, 2, 2, cfg)
	pb, _ := nBig.Inject(1, 4, 256, "")
	nBig.RunUntilDrained(1000)

	if pb.Latency() <= ps.Latency() {
		t.Fatalf("256-bit latency %d not greater than 32-bit %d", pb.Latency(), ps.Latency())
	}
}

func TestInjectValidation(t *testing.T) {
	n := meshNet(t, 2, 2, DefaultConfig())
	if _, err := n.Inject(1, 1, 32, ""); err == nil {
		t.Fatal("self-addressed packet accepted")
	}
	if _, err := n.Inject(1, 2, 0, ""); err == nil {
		t.Fatal("empty packet accepted")
	}
	if _, err := n.Inject(1, 99, 32, ""); err == nil {
		t.Fatal("unroutable packet accepted")
	}
}

func TestConservationAllInjectedDelivered(t *testing.T) {
	n := meshNet(t, 4, 4, DefaultConfig())
	nodes := graph.Range(1, 16)
	trace := UniformRandomTrace(nodes, 200, 64, 0.02, 7)
	if err := n.ReplayContext(context.Background(), trace, 100000); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Injected != 200 || st.Delivered != 200 {
		t.Fatalf("injected %d delivered %d", st.Injected, st.Delivered)
	}
	if n.Pending() != 0 {
		t.Fatalf("pending = %d", n.Pending())
	}
}

func TestActivityCountsMatchRouteLengths(t *testing.T) {
	n := meshNet(t, 4, 4, DefaultConfig())
	// One packet 1 -> 16 via XY: route 1-2-3-4-8-12-16 = 7 routers, 6
	// links. 64-bit packet = 3 flits.
	if _, err := n.Inject(1, 16, 64, ""); err != nil {
		t.Fatal(err)
	}
	if !n.RunUntilDrained(1000) {
		t.Fatal("did not drain")
	}
	st := n.Stats()
	if got, want := st.TotalSwitchTraversals(), int64(7*3); got != want {
		t.Fatalf("switch traversals = %d, want %d", got, want)
	}
	if got, want := st.TotalLinkTraversals(), int64(6*3); got != want {
		t.Fatalf("link traversals = %d, want %d", got, want)
	}
}

func TestWormholeBlockingContention(t *testing.T) {
	// Two long packets sharing a middle link must serialize: total time
	// exceeds a single packet's time, and per-packet latencies differ.
	cfg := DefaultConfig()
	n := meshNet(t, 1, 3, cfg) // chain 1-2-3... 1x3 mesh
	p1, err := n.Inject(1, 3, 512, "a")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := n.Inject(1, 3, 512, "b")
	if err != nil {
		t.Fatal(err)
	}
	if !n.RunUntilDrained(10000) {
		t.Fatal("did not drain")
	}
	if p2.EjectCycle <= p1.EjectCycle {
		t.Fatalf("second packet finished first: %d vs %d", p2.EjectCycle, p1.EjectCycle)
	}
	// Serialization: 512-bit = 17 flits; second packet waits for first.
	if p2.Latency() <= p1.Latency() {
		t.Fatalf("no queueing visible: %d vs %d", p2.Latency(), p1.Latency())
	}
}

func TestEnergyAccountingPositiveAndScales(t *testing.T) {
	n1 := meshNet(t, 4, 4, DefaultConfig())
	n1.Inject(1, 16, 128, "")
	n1.RunUntilDrained(1000)
	e1 := n1.EnergyPJ(energy.Tech180)
	if e1 <= 0 {
		t.Fatalf("energy = %g", e1)
	}
	// Shorter route consumes less energy.
	n2 := meshNet(t, 4, 4, DefaultConfig())
	n2.Inject(1, 2, 128, "")
	n2.RunUntilDrained(1000)
	e2 := n2.EnergyPJ(energy.Tech180)
	if e2 >= e1 {
		t.Fatalf("1-hop energy %g >= 6-hop energy %g", e2, e1)
	}
	if n1.AveragePowerMW(energy.Tech180) <= 0 {
		t.Fatal("power should be positive")
	}
}

func TestThroughputReporting(t *testing.T) {
	n := meshNet(t, 2, 2, DefaultConfig())
	n.Inject(1, 4, 128, "")
	n.RunUntilDrained(1000)
	st := n.Stats()
	tp := st.ThroughputMbps(n.Cycle(), n.Config().ClockMHz)
	if tp <= 0 {
		t.Fatalf("throughput = %g", tp)
	}
}

func TestReplayFailsOnBadEvent(t *testing.T) {
	n := meshNet(t, 2, 2, DefaultConfig())
	err := n.ReplayContext(context.Background(), Trace{{Cycle: 0, Src: 1, Dst: 1, Bits: 32}}, 100)
	if err == nil {
		t.Fatal("self-addressed trace event accepted")
	}
}

func TestOnEjectCallback(t *testing.T) {
	n := meshNet(t, 2, 2, DefaultConfig())
	var got []int
	n.OnEject(func(p *Packet) { got = append(got, p.ID) })
	n.Inject(1, 4, 32, "")
	n.Inject(2, 3, 32, "")
	n.RunUntilDrained(1000)
	if len(got) != 2 {
		t.Fatalf("callbacks = %v", got)
	}
}

func TestCustomTopologySimulation(t *testing.T) {
	// Simulate on a non-mesh architecture: a star (hub 1).
	arch := topology.New("star", graph.Range(1, 5), nil)
	for i := graph.NodeID(2); i <= 5; i++ {
		if err := arch.AddLink(1, i, 0); err != nil {
			t.Fatal(err)
		}
	}
	table, err := routing.Build(arch)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := routing.AssignVirtualChannels(table, arch, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(DefaultConfig(), arch, table, vc)
	if err != nil {
		t.Fatal(err)
	}
	// All leaves send to each other through the hub.
	for _, s := range []graph.NodeID{2, 3, 4, 5} {
		for _, d := range []graph.NodeID{2, 3, 4, 5} {
			if s != d {
				if _, err := n.Inject(s, d, 64, ""); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if !n.RunUntilDrained(100000) {
		t.Fatal("star did not drain")
	}
	st := n.Stats()
	if st.Delivered != 12 {
		t.Fatalf("delivered = %d, want 12", st.Delivered)
	}
}

func TestUniformRandomTraceProperties(t *testing.T) {
	nodes := graph.Range(1, 8)
	tr := UniformRandomTrace(nodes, 100, 64, 0.1, 42)
	if len(tr) != 100 {
		t.Fatalf("trace length = %d", len(tr))
	}
	for i, ev := range tr {
		if ev.Src == ev.Dst {
			t.Fatalf("event %d self-addressed", i)
		}
		if i > 0 && ev.Cycle < tr[i-1].Cycle {
			t.Fatalf("trace not time-ordered at %d", i)
		}
	}
	// Determinism.
	tr2 := UniformRandomTrace(nodes, 100, 64, 0.1, 42)
	for i := range tr {
		if tr[i] != tr2[i] {
			t.Fatal("trace not deterministic")
		}
	}
	if UniformRandomTrace(nodes[:1], 10, 64, 0.1, 1) != nil {
		t.Fatal("degenerate node set should yield nil")
	}
}

// TestUniformRandomTraceDegenerateRate pins the fix for the near-infinite
// cycle loop: a vanishingly small rate must return nil promptly instead
// of spinning for ~count/rate iterations.
func TestUniformRandomTraceDegenerateRate(t *testing.T) {
	nodes := graph.Range(1, 8)
	done := make(chan Trace, 1)
	go func() { done <- UniformRandomTrace(nodes, 100, 64, 1e-12, 1) }()
	select {
	case tr := <-done:
		if tr != nil {
			t.Fatalf("degenerate rate produced a %d-event trace", len(tr))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("UniformRandomTrace hung on rate 1e-12")
	}
	// A rate just above the horizon bound still works.
	if tr := UniformRandomTrace(nodes, 10, 64, 0.001, 1); len(tr) != 10 {
		t.Fatalf("small-but-sane rate yielded %d events", len(tr))
	}
}

// TestPermutationTrace checks the one-packet-per-node permutation on 8
// nodes, now built from TransposePattern: every node sends exactly once
// and no node addresses itself.
func TestPermutationTrace(t *testing.T) {
	nodes := graph.Range(1, 8)
	p, err := TransposePattern(len(nodes))
	if err != nil {
		t.Fatal(err)
	}
	perm := p.Permutation()
	if len(perm) != 8 {
		t.Fatalf("trace length = %d", len(perm))
	}
	for i, dst := range perm {
		if nodes[i] == nodes[dst] {
			t.Fatal("self-addressed permutation event")
		}
	}
}

// Property: on random meshes with random traffic, the network always
// drains, conserves packets, and reports latencies >= hop distance.
func TestPropertySimulatorConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 2 + rng.Intn(3)
		cols := 2 + rng.Intn(3)
		arch, err := topology.Mesh(rows, cols, nil)
		if err != nil {
			return false
		}
		table, err := routing.XY(rows, cols)
		if err != nil {
			return false
		}
		vc, err := routing.AssignVirtualChannels(table, arch, nil)
		if err != nil {
			return false
		}
		n, err := New(DefaultConfig(), arch, table, vc)
		if err != nil {
			return false
		}
		nodes := arch.Nodes()
		count := 20 + rng.Intn(50)
		trace := UniformRandomTrace(nodes, count, 32+rng.Intn(128), 0.05, seed)
		if err := n.ReplayContext(context.Background(), trace, 1000000); err != nil {
			return false
		}
		st := n.Stats()
		return st.Injected == int64(count) && st.Delivered == int64(count) && n.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
