package noc

// The invariant harness is a first-class test surface for the kernel's
// incrementally maintained state. auditNetwork recomputes every derived
// quantity — buffered-flit totals, head-of-line mirrors, output request
// counters and lane XORs, credits, the active-router bitset, the packet
// arena — from the ground truth (ring contents and timing-wheel buckets)
// and fails on any divergence, so the property tests can audit a live
// network mid-flight, across scheduled fault strikes and purges, in both
// routing modes.

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/graph"
	"repro/internal/randgraph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// auditNetwork recomputes the kernel's incremental state from scratch
// and fails the test on any divergence from the maintained copies.
func auditNetwork(t testing.TB, n *Network, when string) {
	t.Helper()
	V := int32(n.cfg.NumVCs)
	// In-flight flits per (global input port, vc), from the wheel.
	type flight struct{ port, vc int32 }
	inflight := make(map[flight]int)
	for _, bucket := range n.wheel {
		for _, a := range bucket {
			inflight[flight{a.port, int32(a.f.vc)}]++
		}
	}
	for i := int32(0); i < int32(n.frz.NodeCount()); i++ {
		base := n.portOff[i]
		ports := n.portOff[i+1] - base
		var total int32
		for slot := int32(0); slot < ports; slot++ {
			gi := base + slot
			for vc := int32(0); vc < V; vc++ {
				lane := gi*V + vc
				total += n.ringN[lane]
				if n.ringN[lane] == 0 {
					if n.headWant[lane] != -1 {
						t.Fatalf("%s: router %d input %d vc %d: empty ring but headWant %d",
							when, i, slot, vc, n.headWant[lane])
					}
					continue
				}
				h := &n.ringBuf[lane*int32(n.cfg.BufferFlits)+n.ringHead[lane]]
				if n.headWant[lane] != h.want || n.headNextVC[lane] != h.nextVC {
					t.Fatalf("%s: router %d input %d vc %d: head mirror (%d,%d) != ring head (%d,%d)",
						when, i, slot, vc, n.headWant[lane], n.headNextVC[lane], h.want, h.nextVC)
				}
			}
		}
		if n.bufFlits[i] != total {
			t.Fatalf("%s: router %d: bufFlits %d, rings hold %d", when, i, n.bufFlits[i], total)
		}
		// Between steps a router's bit is set exactly while it holds
		// flits: switch allocation retires every router it drains.
		if on := n.activeBits[i>>6]&(1<<(i&63)) != 0; on != (total > 0) {
			t.Fatalf("%s: router %d holds %d flits but its active bit is %v", when, i, total, on)
		}
		for slot := int32(0); slot < ports; slot++ {
			var cnt, xor int32
			for gi := base; gi < base+ports; gi++ {
				for vc := int32(0); vc < V; vc++ {
					lane := gi*V + vc
					if n.ringN[lane] > 0 && n.headWant[lane] == int16(slot) {
						cnt++
						xor ^= lane
					}
				}
			}
			if n.wantCnt[base+slot] != cnt {
				t.Fatalf("%s: router %d output %d: wantCnt %d, %d heads request it",
					when, i, slot, n.wantCnt[base+slot], cnt)
			}
			if n.wantXor[base+slot] != xor {
				t.Fatalf("%s: router %d output %d: wantXor %d, requesting lanes XOR to %d",
					when, i, slot, n.wantXor[base+slot], xor)
			}
		}
		for slot := int32(0); slot < ports; slot++ {
			g := base + slot
			if (n.outLocked[g] >= 0) != (n.outLockedPkt[g] != 0) {
				t.Fatalf("%s: router %d output %d: locked %d but lockedPkt %d",
					when, i, slot, n.outLocked[g], n.outLockedPkt[g])
			}
			if n.outLockedPkt[g] != 0 && n.pktSlots[n.outLockedPkt[g]] == nil {
				t.Fatalf("%s: router %d output %d: locked by freed arena slot %d",
					when, i, slot, n.outLockedPkt[g])
			}
			if n.outLocal[g] {
				continue
			}
			down := n.peer[g] // this output feeds the peer input port downstream
			for vc := int32(0); vc < V; vc++ {
				want := int32(n.cfg.BufferFlits) - n.ringN[down*V+vc] - int32(inflight[flight{down, vc}])
				if n.credits[g*V+vc] != want {
					t.Fatalf("%s: router %d output %d vc %d: credits %d, invariant says %d",
						when, i, slot, vc, n.credits[g*V+vc], want)
				}
			}
		}
	}
	pop := 0
	for _, w := range n.activeBits {
		pop += bits.OnesCount64(w)
	}
	if pop != n.nActive {
		t.Fatalf("%s: nActive %d, active bitset holds %d routers", when, n.nActive, pop)
	}
	live := 0
	for i := 1; i < len(n.pktSlots); i++ {
		if n.pktSlots[i] != nil {
			live++
		}
	}
	if live != n.pending {
		t.Fatalf("%s: %d live arena slots but %d pending packets", when, live, n.pending)
	}
	if got := n.stats.Injected; got != n.stats.Delivered+int64(n.pending)+n.stats.Dropped {
		t.Fatalf("%s: conservation violated: injected %d != delivered %d + pending %d + dropped %d",
			when, got, n.stats.Delivered, n.pending, n.stats.Dropped)
	}
}

// faultFamily is one topology family of the invariant property matrix.
type faultFamily struct {
	name string
	arch *topology.Architecture
}

// archFromGraph lifts an undirected view of a generated graph into an
// architecture (same dedup as the golden scale-free scenario).
func archFromGraph(t testing.TB, g *graph.Graph) *topology.Architecture {
	t.Helper()
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
	return arch
}

// faultFamilies builds the three topology families the property matrix
// runs over: the evaluation mesh, a scale-free hub topology and a
// connected Erdős–Rényi random graph.
func faultFamilies(t testing.TB) []faultFamily {
	t.Helper()
	mesh, err := topology.Mesh(4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := randgraph.BarabasiAlbert(16, 2, 8, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	var er *topology.Architecture
	for seed := int64(1); seed <= 32; seed++ {
		g, err := randgraph.ErdosRenyi(10, 0.35, 8, 64, seed)
		if err != nil {
			t.Fatal(err)
		}
		if a := archFromGraph(t, g); a.Connected() {
			er = a
			break
		}
	}
	if er == nil {
		t.Fatal("no connected Erdős–Rényi graph in 32 seeds")
	}
	return []faultFamily{
		{"mesh4x4", mesh},
		{"scalefree", archFromGraph(t, ba)},
		{"random", er},
	}
}

// netOver builds a simulator over an arbitrary architecture with
// schedule-free routing and the dateline VC assignment.
func netOver(t testing.TB, arch *topology.Architecture, cfg Config) *Network {
	t.Helper()
	table, err := routing.Build(arch)
	if err != nil {
		t.Fatal(err)
	}
	vcs, err := routing.AssignVirtualChannels(table, arch, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := New(cfg, arch, table, vcs)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// driveAudited replays the trace event by event, auditing the full
// kernel state every auditEvery cycles, and drains the network. The
// cycle limit doubles as the no-livelock bounded-progress check: every
// surviving packet must eject within it.
func driveAudited(t *testing.T, n *Network, trace Trace, auditEvery, limit int64) {
	t.Helper()
	i := 0
	for i < len(trace) || n.Pending() > 0 {
		for i < len(trace) && trace[i].Cycle <= n.Cycle() {
			ev := trace[i]
			if _, err := n.Inject(ev.Src, ev.Dst, ev.Bits, ev.Tag); err != nil && !errors.Is(err, ErrRouteFaulted) {
				t.Fatalf("inject event %d: %v", i, err)
			}
			i++
		}
		n.Step()
		if n.Cycle()%auditEvery == 0 {
			auditNetwork(t, n, fmt.Sprintf("cycle %d", n.Cycle()))
		}
		if n.Cycle() > limit {
			t.Fatalf("bounded progress violated: %d packets pending at cycle %d", n.Pending(), n.Cycle())
		}
	}
	auditNetwork(t, n, "drained")
}

// TestInvariantsAcrossFamiliesFaultsAndModes is the property matrix the
// fault subsystem is accepted against: three topology families × three
// fault rates × both routing modes, each with one extra mid-run
// scheduled link failure, audited throughout and checked for flit
// conservation (injected = delivered + pending + dropped, with blocked
// injections accounted separately) and bounded progress.
func TestInvariantsAcrossFamiliesFaultsAndModes(t *testing.T) {
	for _, fam := range faultFamilies(t) {
		for _, rate := range []float64{0, 0.08, 0.2} {
			for _, mode := range []RoutingMode{RoutingOblivious, RoutingAdaptive} {
				t.Run(fmt.Sprintf("%s/rate=%g/%s", fam.name, rate, mode), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.NumVCs = 2
					n := netOver(t, fam.arch, cfg)
					if err := n.SetRouting(mode); err != nil {
						t.Fatal(err)
					}
					fm, err := RandomLinkFaults(fam.arch, rate, 7)
					if err != nil {
						t.Fatal(err)
					}
					// One mid-run failure on top of the static set: the
					// first link the random set left alive.
					static := make(map[[2]graph.NodeID]bool)
					for _, e := range fm.Events() {
						static[[2]graph.NodeID{e.A, e.B}] = true
					}
					for _, l := range fam.arch.Links() {
						if k := l.Key(); !static[k] {
							fm.AddLink(k[0], k[1], 60)
							break
						}
					}
					if err := n.ResetWithFaults(fm); err != nil {
						t.Fatal(err)
					}
					trace := UniformRandomTrace(n.Nodes(), 120, 96, 0.08, 11)
					driveAudited(t, n, trace, 8, 100_000)
					st := n.Stats()
					if st.Injected+st.Blocked != int64(len(trace)) {
						t.Fatalf("accounting: %d injected + %d blocked != %d events",
							st.Injected, st.Blocked, len(trace))
					}
					if st.Injected != st.Delivered+st.Dropped {
						t.Fatalf("conservation after drain: injected %d != delivered %d + dropped %d",
							st.Injected, st.Delivered, st.Dropped)
					}
				})
			}
		}
	}
}

// TestEscapeVCAcyclic machine-checks the deadlock-freedom argument the
// adaptive mode rests on: over the full channel dependency relation of
// up*/down* legality — channel (u,v) may feed channel (v,w) unless that
// turn goes down-then-up — the live channel dependency graph is acyclic,
// on every family at several fault rates. Since every route the mode
// emits (adaptive or escape) is a legal route and each packet rides a
// single VC end to end, acyclicity of this relation covers them all.
// The escape routes themselves are additionally checked for legality.
func TestEscapeVCAcyclic(t *testing.T) {
	for _, fam := range faultFamilies(t) {
		for _, rate := range []float64{0, 0.08, 0.2} {
			t.Run(fmt.Sprintf("%s/rate=%g", fam.name, rate), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.NumVCs = 2
				n := netOver(t, fam.arch, cfg)
				if err := n.SetRouting(RoutingAdaptive); err != nil {
					t.Fatal(err)
				}
				fm, err := RandomLinkFaults(fam.arch, rate, 3)
				if err != nil {
					t.Fatal(err)
				}
				if err := n.ResetWithFaults(fm); err != nil {
					t.Fatal(err)
				}
				n.ensureAdaptive()
				st := n.adapt
				nn := n.frz.NodeCount()

				// Dependency edges between live channels under legality.
				deps := make(map[int][]int)
				for e1 := 0; e1 < n.frz.EdgeCount(); e1++ {
					if n.isLinkDown(e1) {
						continue
					}
					from, mid := n.frz.EdgeEndpoints(e1)
					if st.level[from] < 0 || st.level[mid] < 0 {
						continue
					}
					start := n.frz.OutEdgeStart(int(mid))
					for k, w := range n.frz.Out(int(mid)) {
						e2 := start + k
						if n.isLinkDown(e2) || st.level[w] < 0 || w == from {
							continue
						}
						if !st.up[e1] && st.up[e2] {
							continue // the forbidden down-then-up turn
						}
						deps[e1] = append(deps[e1], e2)
					}
				}
				color := make([]int8, n.frz.EdgeCount()) // 0 white, 1 gray, 2 black
				var visit func(e int) bool
				visit = func(e int) bool {
					color[e] = 1
					for _, d := range deps[e] {
						if color[d] == 1 || (color[d] == 0 && visit(d)) {
							return true
						}
					}
					color[e] = 2
					return false
				}
				for e := range deps {
					if color[e] == 0 && visit(e) {
						t.Fatalf("channel dependency cycle through edge %d", e)
					}
				}

				// Escape routes: up moves strictly before down moves.
				for s := 0; s < nn; s++ {
					for d := 0; d < nn; d++ {
						if s == d || st.level[s] < 0 || st.level[d] < 0 || st.distUp[d*nn+s] < 0 {
							continue
						}
						route := st.escapeRoute(s, d)
						if route[0] != int32(s) || route[len(route)-1] != int32(d) {
							t.Fatalf("escape %d->%d: endpoints %v", s, d, route)
						}
						wentDown := false
						for h := 0; h+1 < len(route); h++ {
							e, ok := n.frz.EdgeIndexBetween(int(route[h]), int(route[h+1]))
							if !ok {
								t.Fatalf("escape %d->%d: hop %v-%v not a channel", s, d, route[h], route[h+1])
							}
							if n.isLinkDown(e) {
								t.Fatalf("escape %d->%d crosses dead channel %d", s, d, e)
							}
							if st.up[e] {
								if wentDown {
									t.Fatalf("escape %d->%d: up move after down move: %v", s, d, route)
								}
							} else {
								wentDown = true
							}
						}
					}
				}
			})
		}
	}
}

// TestInvariantsMidRunRouterFault pins the purge path: a router failure
// striking while long packets stream through it must drop the affected
// packets, repair every piece of kernel state (audited each cycle around
// the strike) and preserve conservation.
func TestInvariantsMidRunRouterFault(t *testing.T) {
	cfg := DefaultConfig()
	n := meshNet(t, 4, 4, cfg)
	fm := NewFaultMap().AddRouter(5, 20).AddLink(9, 10, 35)
	if err := n.ResetWithFaults(fm); err != nil {
		t.Fatal(err)
	}
	trace := UniformRandomTrace(n.Nodes(), 200, 512, 0.2, 21)
	i := 0
	for i < len(trace) || n.Pending() > 0 {
		for i < len(trace) && trace[i].Cycle <= n.Cycle() {
			ev := trace[i]
			if _, err := n.Inject(ev.Src, ev.Dst, ev.Bits, ev.Tag); err != nil && !errors.Is(err, ErrRouteFaulted) {
				t.Fatalf("inject event %d: %v", i, err)
			}
			i++
		}
		n.Step()
		auditNetwork(t, n, fmt.Sprintf("cycle %d", n.Cycle()))
		if n.Cycle() > 100_000 {
			t.Fatalf("no drain: %d pending", n.Pending())
		}
	}
	st := n.Stats()
	if st.Dropped == 0 {
		t.Fatal("router fault at cycle 20 under 0.2 load dropped nothing — purge path untested")
	}
	if st.Injected != st.Delivered+st.Dropped {
		t.Fatalf("conservation: injected %d != delivered %d + dropped %d", st.Injected, st.Delivered, st.Dropped)
	}
	// Node 5 sits on the mesh edge (ids are 1-based) with 3 incident
	// links; its router fault fails all 6 directed channels, plus 2 for
	// the scheduled 9-10 link fault.
	links, routers := n.FaultsDown()
	if links != 8 || routers != 1 {
		t.Fatalf("FaultsDown = (%d directed channels, %d routers), want (8, 1)", links, routers)
	}
}

// TestSweepDeterministicAcrossParallelism: the faulted, adaptive sweep
// must emit byte-identical JSON at every worker count, like the pristine
// oblivious one the goldens pin.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	pat, err := NewPattern("uniform", 16)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := ParseFaultMap("link:1-2,link:9-13@400")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.NumVCs = 2
	arch := meshArch(t, 4, 4, cfg)
	var blobs [][]byte
	for _, par := range []int{1, 4} {
		res, err := Sweep(t.Context(), arch, SweepConfig{
			Pattern:       pat,
			Bits:          128,
			Rates:         []float64{0.02, 0.08, 0.2},
			WarmupCycles:  200,
			MeasureCycles: 1200,
			Seed:          5,
			Parallelism:   par,
			Faults:        fm,
			Routing:       RoutingAdaptive,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, buf.Bytes())
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatalf("sweep JSON differs between Parallelism 1 and 4:\n--- 1 ---\n%s\n--- 4 ---\n%s", blobs[0], blobs[1])
	}
}
