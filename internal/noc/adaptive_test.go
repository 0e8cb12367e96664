package noc

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestParseRoutingMode(t *testing.T) {
	cases := []struct {
		in   string
		want RoutingMode
		ok   bool
	}{
		{"", RoutingOblivious, true},
		{"oblivious", RoutingOblivious, true},
		{"adaptive", RoutingAdaptive, true},
		{"xy", 0, false},
		{"Adaptive", 0, false},
	}
	for _, c := range cases {
		got, err := ParseRoutingMode(c.in)
		if c.ok != (err == nil) || (c.ok && got != c.want) {
			t.Fatalf("ParseRoutingMode(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	if RoutingOblivious.String() != "oblivious" || RoutingAdaptive.String() != "adaptive" {
		t.Fatal("RoutingMode.String drifted from the flag spelling")
	}
}

func TestSetRoutingRequiresTwoVCs(t *testing.T) {
	n := meshNet(t, 4, 4, DefaultConfig()) // NumVCs 1
	if err := n.SetRouting(RoutingAdaptive); err == nil {
		t.Fatal("adaptive accepted with a single VC — no escape lane possible")
	}
	if n.Routing() != RoutingOblivious {
		t.Fatal("failed SetRouting changed the mode")
	}
	cfg := DefaultConfig()
	cfg.NumVCs = 2
	n = meshNet(t, 4, 4, cfg)
	if err := n.SetRouting(RoutingAdaptive); err != nil {
		t.Fatal(err)
	}
	if err := n.SetRouting(RoutingMode(9)); err == nil {
		t.Fatal("unknown mode accepted")
	}
	// The mode survives Reset, like packet recycling.
	n.Reset()
	if n.Routing() != RoutingAdaptive {
		t.Fatal("Reset cleared the routing mode")
	}
}

// TestAdaptiveDeliversWhereObliviousBlocks is the point of the mode: a
// dead link on the XY route blocks oblivious injection but adaptive
// routes around it.
func TestAdaptiveDeliversWhereObliviousBlocks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumVCs = 2
	fm := NewFaultMap().AddLink(1, 2, 0)

	obl := meshNet(t, 4, 4, cfg)
	if err := obl.ResetWithFaults(fm); err != nil {
		t.Fatal(err)
	}
	if _, err := obl.Inject(1, 2, 64, ""); !errors.Is(err, ErrRouteFaulted) {
		t.Fatalf("oblivious inject over dead link: %v, want ErrRouteFaulted", err)
	}

	ada := meshNet(t, 4, 4, cfg)
	if err := ada.SetRouting(RoutingAdaptive); err != nil {
		t.Fatal(err)
	}
	if err := ada.ResetWithFaults(fm); err != nil {
		t.Fatal(err)
	}
	p, err := ada.Inject(1, 2, 64, "")
	if err != nil {
		t.Fatalf("adaptive inject around dead link: %v", err)
	}
	if !ada.RunUntilDrained(10_000) {
		t.Fatal("did not drain")
	}
	if st := ada.Stats(); st.Delivered != 1 || st.Blocked != 0 {
		t.Fatalf("adaptive stats: %+v", st)
	}
	route := p.Route()
	for i := 0; i+1 < len(route); i++ {
		if (route[i] == 1 && route[i+1] == 2) || (route[i] == 2 && route[i+1] == 1) {
			t.Fatalf("adaptive route %v crosses the dead link", route)
		}
	}
}

// TestAdaptiveBlocksUnreachable: with the destination router down there
// is no live route; the injection must be refused with the typed error
// and counted, not panic or deadlock.
func TestAdaptiveBlocksUnreachable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumVCs = 2
	n := meshNet(t, 4, 4, cfg)
	if err := n.SetRouting(RoutingAdaptive); err != nil {
		t.Fatal(err)
	}
	if err := n.ResetWithFaults(NewFaultMap().AddRouter(6, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Inject(1, 6, 64, ""); !errors.Is(err, ErrRouteFaulted) {
		t.Fatalf("inject to dead router: %v, want ErrRouteFaulted", err)
	}
	if _, err := n.Inject(6, 1, 64, ""); !errors.Is(err, ErrRouteFaulted) {
		t.Fatalf("inject from dead router: %v, want ErrRouteFaulted", err)
	}
	if st := n.Stats(); st.Blocked != 2 || st.Injected != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestAdaptiveAllPairsDeliverUnderFaults floods every live ordered pair
// at once on each family under heavy static faults: every packet must
// deliver (RandomLinkFaults preserves connectivity), within a bounded
// drain — the all-pairs deadlock/livelock smoke for the adaptive mode.
func TestAdaptiveAllPairsDeliverUnderFaults(t *testing.T) {
	for _, fam := range faultFamilies(t) {
		t.Run(fam.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.NumVCs = 3 // escape + two adaptive lanes
			n := netOver(t, fam.arch, cfg)
			if err := n.SetRouting(RoutingAdaptive); err != nil {
				t.Fatal(err)
			}
			fm, err := RandomLinkFaults(fam.arch, 0.2, 13)
			if err != nil {
				t.Fatal(err)
			}
			if err := n.ResetWithFaults(fm); err != nil {
				t.Fatal(err)
			}
			want := 0
			for _, s := range n.Nodes() {
				for _, d := range n.Nodes() {
					if s == d {
						continue
					}
					if _, err := n.Inject(s, d, 64, ""); err != nil {
						t.Fatalf("inject %d->%d: %v", s, d, err)
					}
					want++
				}
			}
			if !n.RunUntilDrained(200_000) {
				t.Fatalf("deadlock or livelock: %d of %d packets stuck", n.Pending(), want)
			}
			if st := n.Stats(); st.Delivered != int64(want) || st.Dropped != 0 {
				t.Fatalf("delivered %d of %d, dropped %d", st.Delivered, want, st.Dropped)
			}
			auditNetwork(t, n, "all pairs drained")
		})
	}
}

// TestAdaptiveRoutesAreMinimalLegal: each injected packet's route length
// must equal the phase-automaton distance — the mode promises minimal
// legal routes, not merely legal ones.
func TestAdaptiveRoutesAreMinimalLegal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumVCs = 2
	for _, fam := range faultFamilies(t) {
		n := netOver(t, fam.arch, cfg)
		if err := n.SetRouting(RoutingAdaptive); err != nil {
			t.Fatal(err)
		}
		fm, err := RandomLinkFaults(fam.arch, 0.1, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.ResetWithFaults(fm); err != nil {
			t.Fatal(err)
		}
		n.ensureAdaptive()
		st := n.adapt
		nn := n.frz.NodeCount()
		for si := 0; si < nn; si++ {
			for di := 0; di < nn; di++ {
				if si == di || st.distUp[di*nn+si] < 0 {
					continue
				}
				route := st.adaptiveRoute(n, si, di)
				if got, want := len(route)-1, int(st.distUp[di*nn+si]); got != want {
					t.Fatalf("%s: adaptive %d->%d took %d hops, automaton distance is %d",
						fam.name, si, di, got, want)
				}
			}
		}
	}
}

// TestAdaptiveDeterministic: two identical runs produce identical stats
// (lane rotation and congestion tie-breaks are deterministic), and Reset
// restarts the lane rotation so a reset network equals a fresh one.
func TestAdaptiveDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumVCs = 2
	run := func(n *Network) string {
		t.Helper()
		trace := UniformRandomTrace(n.Nodes(), 100, 96, 0.1, 17)
		if err := n.ReplayContext(context.Background(), trace, 1_000_000); err != nil {
			t.Fatal(err)
		}
		blob, err := n.Stats().MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("cycle=%d %s", n.Cycle(), blob)
	}
	a := meshNet(t, 4, 4, cfg)
	if err := a.SetRouting(RoutingAdaptive); err != nil {
		t.Fatal(err)
	}
	first := run(a)
	a.Reset()
	second := run(a)
	b := meshNet(t, 4, 4, cfg)
	if err := b.SetRouting(RoutingAdaptive); err != nil {
		t.Fatal(err)
	}
	third := run(b)
	if first != second || first != third {
		t.Fatalf("adaptive runs diverged:\nfirst:  %s\nsecond: %s\nthird:  %s", first, second, third)
	}
}
