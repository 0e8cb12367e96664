package noc

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/graph"
)

// runDeterministic drives net with a fixed uniform schedule and returns
// the Stats JSON plus the final cycle — the full observable outcome.
func runDeterministic(t *testing.T, net *Network, seed int64) ([]byte, int64) {
	t.Helper()
	pat, err := NewPattern("uniform", len(net.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	trace, err := GenerateTrace(pat, TrafficConfig{Nodes: net.Nodes(), Bits: 96, Rate: 0.06, Seed: seed}, 400)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.ReplayContext(context.Background(), trace, 1_000_000); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	enc, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return enc, net.Cycle()
}

// TestResetMatchesFreshNetwork pins the Reset contract: a network that
// already simulated traffic — including one stopped mid-flight with
// packets buffered, locked outputs and spent credits — must, after
// Reset, reproduce a freshly built network's results bit for bit.
func TestResetMatchesFreshNetwork(t *testing.T) {
	dirty := meshNet(t, 4, 4, DefaultConfig())
	// First run: leave real residue (wormhole locks, rr pointers, queued
	// sources) by stopping mid-simulation.
	for _, src := range []graph.NodeID{1, 2, 3, 5, 9} {
		if _, err := dirty.Inject(src, 16, 512, "residue"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 25; i++ {
		dirty.Step()
	}
	if dirty.Pending() == 0 {
		t.Fatal("expected packets still in flight before Reset")
	}
	dirty.OnEject(func(*Packet) {})
	dirty.Reset()
	if dirty.Cycle() != 0 || dirty.Pending() != 0 || dirty.onEject != nil {
		t.Fatalf("Reset left cycle=%d pending=%d onEject set=%v",
			dirty.Cycle(), dirty.Pending(), dirty.onEject != nil)
	}

	gotStats, gotCycle := runDeterministic(t, dirty, 77)
	fresh := meshNet(t, 4, 4, DefaultConfig())
	wantStats, wantCycle := runDeterministic(t, fresh, 77)
	if gotCycle != wantCycle {
		t.Fatalf("reset network finished at cycle %d, fresh at %d", gotCycle, wantCycle)
	}
	if !bytes.Equal(gotStats, wantStats) {
		t.Fatalf("reset network stats differ:\n%s\nvs fresh\n%s", gotStats, wantStats)
	}
}

// TestResetWithRecyclingMatchesFresh re-runs the Reset contract with the
// packet arena active: recycled packets across Reset boundaries must not
// perturb results.
func TestResetWithRecyclingMatchesFresh(t *testing.T) {
	net := meshNet(t, 4, 4, DefaultConfig())
	net.SetPacketRecycling(true)
	first, _ := runDeterministic(t, net, 31)
	net.Reset()
	second, _ := runDeterministic(t, net, 31)
	if !bytes.Equal(first, second) {
		t.Fatalf("recycled re-run differs:\n%s\nvs\n%s", first, second)
	}
	if len(net.freePkts) == 0 {
		t.Fatal("recycling on, but the arena freelist is empty after a drain")
	}
}

// retainedPackets walks every internal flit/packet store and counts live
// *Packet references — the drained-network leak detector.
func retainedPackets(n *Network) int {
	count := 0
	for _, f := range n.ringBuf {
		if f.pktIdx != 0 {
			count++
		}
	}
	for i := range n.srcQueue {
		for _, p := range n.srcQueue[i].buf {
			if p != nil {
				count++
			}
		}
	}
	for _, bucket := range n.wheel {
		for _, a := range bucket[:cap(bucket)] {
			if a.f.pktIdx != 0 {
				count++
			}
		}
	}
	for _, p := range n.pktSlots[1:] {
		if p != nil {
			count++
		}
	}
	return count
}

// TestDrainedNetworkRetainsNoPackets pins the srcQueue head-drop leak
// fix: after a drain, no delivered packet may stay reachable through any
// ring backing array, source queue slot or timing-wheel bucket. The old
// kernel kept every delivered packet alive via `srcQueue[i] = q[1:]`.
func TestDrainedNetworkRetainsNoPackets(t *testing.T) {
	net := meshNet(t, 4, 4, DefaultConfig())
	// Deep per-source queues exercise the queue's ring growth and the
	// historical leak path.
	for round := 0; round < 20; round++ {
		for _, src := range []graph.NodeID{1, 6, 11} {
			if _, err := net.Inject(src, 16, 128, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !net.RunUntilDrained(1_000_000) {
		t.Fatal("did not drain")
	}
	if got := retainedPackets(net); got != 0 {
		t.Fatalf("drained network retains %d packet references", got)
	}
}

// TestRunUntilDrainedOverflowClamp pins the int64-overflow fix: a caller
// passing math.MaxInt64 as the horizon must actually simulate (the old
// kernel computed a negative limit and returned immediately with packets
// pending).
func TestRunUntilDrainedOverflowClamp(t *testing.T) {
	net := meshNet(t, 2, 2, DefaultConfig())
	net.Step() // nonzero cycle so limit arithmetic can overflow
	if _, err := net.Inject(1, 4, 64, ""); err != nil {
		t.Fatal(err)
	}
	if !net.RunUntilDrained(math.MaxInt64) {
		t.Fatalf("RunUntilDrained(MaxInt64) returned with %d pending at cycle %d",
			net.Pending(), net.Cycle())
	}
	// The context variant shares the clamp.
	net2 := meshNet(t, 2, 2, DefaultConfig())
	net2.Step()
	trace := Trace{{Cycle: 0, Src: 1, Dst: 4, Bits: 64}}
	if err := net2.ReplayContext(context.Background(), trace, math.MaxInt64); err != nil {
		t.Fatal(err)
	}
}

// TestLatencyInFlightSentinel pins the Packet.Latency contract: -1 while
// the packet is still in the network, positive once delivered.
func TestLatencyInFlightSentinel(t *testing.T) {
	net := meshNet(t, 4, 4, DefaultConfig())
	p, err := net.Inject(1, 16, 256, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Latency(); got != -1 {
		t.Fatalf("in-flight latency = %d, want -1", got)
	}
	net.Step()
	if got := p.Latency(); got != -1 {
		t.Fatalf("latency mid-flight = %d, want -1", got)
	}
	if !net.RunUntilDrained(10_000) {
		t.Fatal("did not drain")
	}
	if got := p.Latency(); got <= 0 {
		t.Fatalf("delivered latency = %d, want > 0", got)
	}
}

// TestPacketRecyclingReusesArena verifies the freelist actually recycles:
// with recycling on, a delivered packet's storage serves a later
// injection; with it off (default), packets handed to callers stay valid.
func TestPacketRecyclingReusesArena(t *testing.T) {
	net := meshNet(t, 2, 2, DefaultConfig())
	net.SetPacketRecycling(true)
	p1, err := net.Inject(1, 4, 64, "a")
	if err != nil {
		t.Fatal(err)
	}
	if !net.RunUntilDrained(1000) {
		t.Fatal("did not drain")
	}
	if len(net.freePkts) != 1 {
		t.Fatalf("freelist holds %d packets, want 1", len(net.freePkts))
	}
	p2, err := net.Inject(2, 3, 64, "b")
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 {
		t.Fatal("second injection did not reuse the recycled packet")
	}
	if p2.ID != 2 || p2.Src != 2 || p2.Dst != 3 || p2.Tag != "b" || p2.EjectCycle != 0 || p2.Latency() != -1 {
		t.Fatalf("recycled packet not fully reinitialized: %+v", p2)
	}
	if !net.RunUntilDrained(1000) {
		t.Fatal("did not drain")
	}

	// Default: no recycling, caller-held packets keep their results.
	off := meshNet(t, 2, 2, DefaultConfig())
	q1, err := off.Inject(1, 4, 64, "keep")
	if err != nil {
		t.Fatal(err)
	}
	if !off.RunUntilDrained(1000) {
		t.Fatal("did not drain")
	}
	if len(off.freePkts) != 0 {
		t.Fatal("recycling off, but packets entered the freelist")
	}
	if q1.Tag != "keep" || q1.Latency() <= 0 {
		t.Fatalf("caller-held packet corrupted: %+v", q1)
	}
}

// TestIdleStepCostIsBounded sanity-checks the activity worklists: an
// idle network steps with no router work at all (nothing active), and a
// network that went idle after traffic deactivates every router.
func TestIdleStepCostIsBounded(t *testing.T) {
	net := meshNet(t, 4, 4, DefaultConfig())
	for i := 0; i < 100; i++ {
		net.Step()
	}
	if net.nActive != 0 || len(net.srcActive) != 0 {
		t.Fatalf("idle network has %d active routers, %d active sources",
			net.nActive, len(net.srcActive))
	}
	if _, err := net.Inject(1, 16, 256, ""); err != nil {
		t.Fatal(err)
	}
	if !net.RunUntilDrained(10_000) {
		t.Fatal("did not drain")
	}
	net.Step()
	if net.nActive != 0 || len(net.srcActive) != 0 {
		t.Fatalf("drained network still has %d active routers, %d active sources",
			net.nActive, len(net.srcActive))
	}
	st := net.Stats()
	if st.Delivered != 1 {
		t.Fatalf("delivered = %d", st.Delivered)
	}
}
