package routing

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// referenceDeadlock is the map-graph oracle for DeadlockFree and
// AssignVirtualChannels: the channel dependency graph of
// ChannelDependencyGraph checked with HasDirectedCycle, and — when it is
// cyclic — 1 + the most descents of any route under the lexicographic
// (From, To) order of the architecture's directed channels.
func referenceDeadlock(t *testing.T, r Router, arch *topology.Architecture, pairs [][2]graph.NodeID) (free bool, numVCs int, order map[Channel]int) {
	t.Helper()
	cdg, _, err := ChannelDependencyGraph(r, arch, pairs)
	if err != nil {
		t.Fatal(err)
	}
	var chans []Channel
	for _, l := range arch.Links() {
		chans = append(chans, Channel{From: l.A, To: l.B}, Channel{From: l.B, To: l.A})
	}
	sort.Slice(chans, func(i, j int) bool { return channelLess(chans[i], chans[j]) })
	order = make(map[Channel]int, len(chans))
	for i, c := range chans {
		order[c] = i
	}
	if !cdg.HasDirectedCycle() {
		return true, 1, order
	}
	if pairs == nil {
		for _, s := range arch.Nodes() {
			for _, d := range arch.Nodes() {
				if s != d {
					pairs = append(pairs, [2]graph.NodeID{s, d})
				}
			}
		}
	}
	numVCs = 1
	for _, pr := range pairs {
		path, err := r.Route(pr[0], pr[1])
		if err != nil {
			t.Fatal(err)
		}
		descents := 0
		for i := 2; i < len(path); i++ {
			prev := Channel{From: path[i-2], To: path[i-1]}
			cur := Channel{From: path[i-1], To: path[i]}
			if order[cur] <= order[prev] {
				descents++
			}
		}
		numVCs = max(numVCs, descents+1)
	}
	return false, numVCs, order
}

// clockwiseRing routes every pair of an n-ring clockwise: the textbook
// cyclic channel dependency graph.
func clockwiseRing(t *testing.T, n int) (*topology.Architecture, Table) {
	t.Helper()
	arch := topology.New("ring", graph.Range(1, graph.NodeID(n)), nil)
	table := newTable(arch.Nodes())
	for i := 1; i <= n; i++ {
		if err := arch.AddLink(graph.NodeID(i), graph.NodeID(i%n+1), 0); err != nil {
			t.Fatal(err)
		}
		for d := 1; d <= n; d++ {
			if d != i {
				if err := table.set(graph.NodeID(i), graph.NodeID(d), graph.NodeID(i%n+1)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return arch, table
}

// TestDeadlockVerdictMatchesReference: for every fixture family plus a
// hand-built cyclic ring, the one-pass edge-id scan gives the same
// deadlock verdict and VC count as the channel dependency graph oracle,
// and the dateline labels are the lexicographic channel ranks.
func TestDeadlockVerdictMatchesReference(t *testing.T) {
	type family struct {
		name  string
		arch  *topology.Architecture
		r     Router
		pairs [][2]graph.NodeID
	}
	var fams []family
	for _, f := range routedFixtures(t) {
		fams = append(fams, family{f.name, f.arch, f.router, f.pairs()})
	}
	ringArch, ring := clockwiseRing(t, 6)
	fams = append(fams, family{"clockwise-ring6", ringArch, ring, nil})
	sawCyclic, sawAcyclic := false, false
	for _, f := range fams {
		t.Run(f.name, func(t *testing.T) {
			wantFree, wantVCs, order := referenceDeadlock(t, f.r, f.arch, f.pairs)
			free, err := DeadlockFree(f.r, f.arch, f.pairs)
			if err != nil {
				t.Fatal(err)
			}
			vc, err := AssignVirtualChannels(f.r, f.arch, f.pairs)
			if err != nil {
				t.Fatal(err)
			}
			if free != wantFree || vc.NumVCs != wantVCs || vc.singleVC != wantFree {
				t.Fatalf("free=%v NumVCs=%d singleVC=%v, oracle free=%v NumVCs=%d",
					free, vc.NumVCs, vc.singleVC, wantFree, wantVCs)
			}
			if len(vc.labels) != len(order) {
				t.Fatalf("%d channel labels, architecture has %d channels", len(vc.labels), len(order))
			}
			for c, rank := range order {
				if got := vc.label(c); got != rank {
					t.Fatalf("channel %v labeled %d, lexicographic rank %d", c, got, rank)
				}
			}
			if free {
				sawAcyclic = true
			} else {
				sawCyclic = true
			}
		})
	}
	if !sawCyclic || !sawAcyclic {
		t.Fatalf("families cover cyclic=%v acyclic=%v; want both", sawCyclic, sawAcyclic)
	}
}

// TestDeadlockScanErrors: the scan keeps the routing sentinels. An
// incomplete table names the first unroutable pair in source-major
// order; a table over a disconnected component reports the isolated
// pair; a hop over a missing link is the ErrNoRoute-wrapped "uses
// missing link" error CompileTable and Validate also give.
func TestDeadlockScanErrors(t *testing.T) {
	arch := meshArch(t, 2, 2)
	xy, err := XY(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkUnreachable := func(t *testing.T, err error, src, dst graph.NodeID) {
		t.Helper()
		var ue *UnreachableError
		if !errors.Is(err, ErrNoRoute) || !errors.As(err, &ue) {
			t.Fatalf("err = %v, want an UnreachableError", err)
		}
		if ue.Src != src || ue.Dst != dst {
			t.Fatalf("UnreachableError names %d->%d, want %d->%d", ue.Src, ue.Dst, src, dst)
		}
	}
	t.Run("incomplete", func(t *testing.T) {
		broken := withoutHop(t, xy, 3, 2)
		_, err := DeadlockFree(broken, arch, nil)
		checkUnreachable(t, err, 3, 2)
		_, err = AssignVirtualChannels(broken, arch, nil)
		checkUnreachable(t, err, 3, 2)
		// An explicit pair list reports the listed pair that fails.
		_, err = AssignVirtualChannels(broken, arch, [][2]graph.NodeID{{1, 2}, {3, 2}})
		checkUnreachable(t, err, 3, 2)
	})
	t.Run("disconnected", func(t *testing.T) {
		for _, f := range disconnectedFamilies(t) {
			table := mustComponentTable(t, f.masked, f.victim)
			_, err := DeadlockFree(table, f.masked, [][2]graph.NodeID{{f.someSrc, f.victim}})
			checkUnreachable(t, err, f.someSrc, f.victim)
			_, err = AssignVirtualChannels(table, f.masked, nil)
			if !errors.Is(err, ErrNoRoute) {
				t.Fatalf("%s: AssignVirtualChannels over a disconnected table: %v", f.name, err)
			}
		}
	})
	t.Run("missing-link", func(t *testing.T) {
		// Node 1 sends traffic for 4 straight across the diagonal.
		diag := withHop(t, xy, 1, 4, 4)
		vc, err := AssignVirtualChannels(xy, arch, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, compileErr := CompileTable(diag, arch, vc)
		_, freeErr := DeadlockFree(diag, arch, nil)
		_, vcErr := AssignVirtualChannels(diag, arch, nil)
		for name, err := range map[string]error{
			"CompileTable":          compileErr,
			"Validate":              Validate(diag, arch),
			"DeadlockFree":          freeErr,
			"AssignVirtualChannels": vcErr,
		} {
			if !errors.Is(err, ErrNoRoute) || err == nil || !strings.Contains(err.Error(), "uses missing link 1-4") {
				t.Errorf("%s: err = %v, want ErrNoRoute naming missing link 1-4", name, err)
			}
		}
	})
}

// withHop returns a copy of table with the (node, dst) entry set to next.
func withHop(t *testing.T, table Table, node, dst, next graph.NodeID) Table {
	t.Helper()
	out := withoutHop(t, table, node, dst)
	if err := out.set(node, dst, next); err != nil {
		t.Fatal(err)
	}
	return out
}
