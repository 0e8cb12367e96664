package noc

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

func TestParseFaultMapRoundTrip(t *testing.T) {
	cases := []struct {
		spec      string
		canonical string
		events    int
	}{
		{"", "", 0},
		{"link:1-2", "link:1-2", 1},
		{"link:2-1", "link:1-2", 1},
		{"router:7", "router:7", 1},
		{"link:5-9@2000", "link:5-9@2000", 1},
		{" link:1-2 , router:7@50 ", "link:1-2,router:7@50", 2},
		// Events sort by (cycle, kind, ids) regardless of spec order.
		{"router:3,link:9-5@10,link:1-2", "link:1-2,router:3,link:5-9@10", 3},
	}
	for _, c := range cases {
		m, err := ParseFaultMap(c.spec)
		if err != nil {
			t.Fatalf("ParseFaultMap(%q): %v", c.spec, err)
		}
		if m.Len() != c.events {
			t.Fatalf("ParseFaultMap(%q): %d events, want %d", c.spec, m.Len(), c.events)
		}
		if got := m.String(); got != c.canonical {
			t.Fatalf("ParseFaultMap(%q).String() = %q, want %q", c.spec, got, c.canonical)
		}
		again, err := ParseFaultMap(m.String())
		if err != nil {
			t.Fatalf("reparse of %q: %v", m.String(), err)
		}
		if again.String() != m.String() {
			t.Fatalf("round trip drifted: %q -> %q", m.String(), again.String())
		}
	}
}

func TestParseFaultMapErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"link:1-2,,router:3", "empty fault item"},
		{"link:1-2@x", "bad fault cycle"},
		{"link:1-2@0", "not positive"},
		{"link:1-2@-5", "not positive"},
		{"1-2", "lacks a kind"},
		{"link:12", "wants endpoints"},
		{"link:a-2", "bad link endpoint"},
		{"link:1-b", "bad link endpoint"},
		{"link:3-3", "self-loop"},
		{"router:x", "bad router id"},
		{"node:4", "unknown fault kind"},
	}
	for _, c := range cases {
		if _, err := ParseFaultMap(c.spec); err == nil {
			t.Fatalf("ParseFaultMap(%q) accepted malformed input", c.spec)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("ParseFaultMap(%q) error %q lacks %q", c.spec, err, c.want)
		}
	}
}

func TestFaultMapValidate(t *testing.T) {
	arch, err := topology.Mesh(4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewFaultMap().AddLink(1, 2, 0).AddRouter(16, 100).Validate(arch); err != nil {
		t.Fatalf("valid map rejected: %v", err)
	}
	// 1 and 6 are diagonal neighbors on the 1-based 4x4 mesh — no link.
	if err := NewFaultMap().AddLink(1, 6, 0).Validate(arch); err == nil {
		t.Fatal("diagonal link fault validated")
	}
	if err := NewFaultMap().AddRouter(99, 0).Validate(arch); err == nil {
		t.Fatal("unknown router fault validated")
	}
}

func TestRandomLinkFaultsDeterministicAndConnected(t *testing.T) {
	for _, fam := range faultFamilies(t) {
		zero, err := RandomLinkFaults(fam.arch, 0, 1)
		if err != nil || zero.Len() != 0 {
			t.Fatalf("%s: rate 0 gave %d faults, err %v", fam.name, zero.Len(), err)
		}
		a, err := RandomLinkFaults(fam.arch, 0.25, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RandomLinkFaults(fam.arch, 0.25, 42)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("%s: same seed, different faults: %q vs %q", fam.name, a, b)
		}
		if !a.Masked(fam.arch).Connected() {
			t.Fatalf("%s: fault set %q disconnects the topology", fam.name, a)
		}
		if target := int(0.25*float64(len(fam.arch.Links())) + 0.5); a.Len() > target {
			t.Fatalf("%s: %d faults exceed the %d target", fam.name, a.Len(), target)
		}
	}
	if _, err := RandomLinkFaults(nil, 0.1, 1); err == nil {
		t.Fatal("nil architecture accepted")
	}
	arch, _ := topology.Mesh(2, 2, nil)
	if _, err := RandomLinkFaults(arch, 1.5, 1); err == nil {
		t.Fatal("rate > 1 accepted")
	}
}

// TestResetRestoresPristineTopology pins the Reset contract the sweep
// harness and the docs promise: after a fault schedule has struck
// mid-run, a plain Reset restores the pristine fault-free topology, and
// the network replays a trace observably identically to a freshly built
// one.
func TestResetRestoresPristineTopology(t *testing.T) {
	cfg := DefaultConfig()
	n := meshNet(t, 4, 4, cfg)
	fresh := meshNet(t, 4, 4, cfg)
	fm, err := ParseFaultMap("link:6-7@25,router:11@40")
	if err != nil {
		t.Fatal(err)
	}
	if err := n.ResetWithFaults(fm); err != nil {
		t.Fatal(err)
	}
	trace := UniformRandomTrace(n.Nodes(), 150, 128, 0.15, 3)
	if err := n.ReplayContext(context.Background(), trace, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if !n.Faulted() {
		t.Fatal("fault schedule never struck — the scenario tests nothing")
	}
	if st := n.Stats(); st.Dropped+st.Blocked == 0 {
		t.Fatal("faults affected no traffic — the scenario tests nothing")
	}

	n.Reset()
	if n.Faulted() {
		t.Fatal("Reset left the network faulted")
	}
	if links, routers := n.FaultsDown(); links != 0 || routers != 0 {
		t.Fatalf("Reset left %d channels, %d routers down", links, routers)
	}
	auditNetwork(t, n, "after Reset")

	if err := n.ReplayContext(context.Background(), trace, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := fresh.ReplayContext(context.Background(), trace, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if n.Cycle() != fresh.Cycle() {
		t.Fatalf("reset network finished at cycle %d, fresh at %d", n.Cycle(), fresh.Cycle())
	}
	got, err := n.Stats().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Stats().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("reset network diverged from fresh:\n--- reset ---\n%s\n--- fresh ---\n%s", got, want)
	}
}

// TestResetWithFaultsEquivalentToFresh: applying the same static faults
// to a used network and to a fresh one must simulate identically.
func TestResetWithFaultsEquivalentToFresh(t *testing.T) {
	cfg := DefaultConfig()
	used := meshNet(t, 4, 4, cfg)
	trace := UniformRandomTrace(used.Nodes(), 80, 64, 0.1, 9)
	if err := used.ReplayContext(context.Background(), trace, 1_000_000); err != nil {
		t.Fatal(err)
	}
	fm := NewFaultMap().AddLink(2, 3, 0)
	if err := used.ResetWithFaults(fm); err != nil {
		t.Fatal(err)
	}
	fresh := meshNet(t, 4, 4, cfg)
	if err := fresh.ResetWithFaults(fm); err != nil {
		t.Fatal(err)
	}
	replay := func(n *Network) []byte {
		t.Helper()
		i := 0
		for i < len(trace) || n.Pending() > 0 {
			for i < len(trace) && trace[i].Cycle <= n.Cycle() {
				ev := trace[i]
				if _, err := n.Inject(ev.Src, ev.Dst, ev.Bits, ev.Tag); err != nil && !errors.Is(err, ErrRouteFaulted) {
					t.Fatal(err)
				}
				i++
			}
			n.Step()
			if n.Cycle() > 100_000 {
				t.Fatal("no drain")
			}
		}
		blob, err := n.Stats().MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	if got, want := replay(used), replay(fresh); !bytes.Equal(got, want) {
		t.Fatalf("ResetWithFaults on a used network diverged:\n%s\nvs fresh:\n%s", got, want)
	}
}

func TestStaticFaultBlocksObliviousInjection(t *testing.T) {
	n := meshNet(t, 4, 4, DefaultConfig())
	if err := n.ResetWithFaults(NewFaultMap().AddLink(1, 2, 0)); err != nil {
		t.Fatal(err)
	}
	// XY routes 1->2 straight across the dead link.
	if _, err := n.Inject(1, 2, 64, ""); !errors.Is(err, ErrRouteFaulted) {
		t.Fatalf("inject over dead link: %v, want ErrRouteFaulted", err)
	}
	// 1->5 heads down the column, away from the fault.
	if _, err := n.Inject(1, 5, 64, ""); err != nil {
		t.Fatalf("inject avoiding the fault: %v", err)
	}
	if !n.RunUntilDrained(10_000) {
		t.Fatal("did not drain")
	}
	st := n.Stats()
	if st.Blocked != 1 || st.Injected != 1 || st.Delivered != 1 {
		t.Fatalf("stats: %d blocked, %d injected, %d delivered; want 1, 1, 1",
			st.Blocked, st.Injected, st.Delivered)
	}
	if !strings.Contains(st.Describe(), "blocked at injection") {
		t.Fatalf("Describe misses the fault line:\n%s", st.Describe())
	}
}

func TestResetWithFaultsRejectsUnknownElements(t *testing.T) {
	n := meshNet(t, 4, 4, DefaultConfig())
	if err := n.ResetWithFaults(NewFaultMap().AddLink(1, 6, 0)); err == nil {
		t.Fatal("unknown link accepted")
	}
	if err := n.ResetWithFaults(NewFaultMap().AddRouter(99, 0)); err == nil {
		t.Fatal("unknown router accepted")
	}
	// A failed validation must leave the network pristine and usable.
	if n.Faulted() {
		t.Fatal("failed ResetWithFaults left faults applied")
	}
	if _, err := n.Inject(1, 2, 64, ""); err != nil {
		t.Fatal(err)
	}
	if !n.RunUntilDrained(10_000) {
		t.Fatal("did not drain")
	}
}

func TestMaskedArchitecture(t *testing.T) {
	arch, err := topology.Mesh(3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := arch.Masked([][2]graph.NodeID{{1, 2}, {2, 1}, {8, 9}}, []graph.NodeID{5})
	if got, want := len(m.Nodes()), len(arch.Nodes()); got != want {
		t.Fatalf("mask changed the node set: %d != %d", got, want)
	}
	// Dup 1-2/2-1 collapse to one removal; router 5 takes its incident
	// links (4, 2, 6, 8 on the 1-based 3x3 mesh).
	if m.HasLink(1, 2) || m.HasLink(8, 9) {
		t.Fatal("masked links survive")
	}
	for _, nbr := range []graph.NodeID{2, 4, 6, 8} {
		if m.HasLink(5, nbr) {
			t.Fatalf("dead router 5 keeps link to %d", nbr)
		}
	}
	if !m.HasLink(1, 4) || !m.HasLink(6, 9) {
		t.Fatal("mask removed unrelated links")
	}
	if arch.HasLink(1, 2) == false {
		t.Fatal("mask mutated the original architecture")
	}
}
