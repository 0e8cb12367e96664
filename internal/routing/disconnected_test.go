package routing

// Disconnected (fault-masked) topologies must surface as the typed
// ErrNoRoute sentinel from every route-production path — Build,
// BuildShortestPath, Table.Route and CompileTable — never as a panic.
// This is the contract the fault-injection layer leans on when it masks
// failed links out of an architecture and recompiles.

import (
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/randgraph"
	"repro/internal/topology"
)

// disconnectedFamilies returns (architecture, masked) pairs per topology
// family, where masked is the same architecture with every link of one
// victim node removed — a connected topology made disconnected by a
// fault mask, nodes intact.
func disconnectedFamilies(t *testing.T) []struct {
	name    string
	arch    *topology.Architecture
	masked  *topology.Architecture
	victim  graph.NodeID
	someSrc graph.NodeID
} {
	t.Helper()
	fromGraph := func(g *graph.Graph) *topology.Architecture {
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
	mesh := meshArch(t, 4, 4)
	ba, err := randgraph.BarabasiAlbert(16, 2, 8, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	er, err := randgraph.ErdosRenyi(10, 0.5, 8, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	archs := []struct {
		name string
		arch *topology.Architecture
	}{
		{"mesh4x4", mesh},
		{"scalefree", fromGraph(ba)},
		{"random", fromGraph(er)},
	}
	var out []struct {
		name    string
		arch    *topology.Architecture
		masked  *topology.Architecture
		victim  graph.NodeID
		someSrc graph.NodeID
	}
	for _, a := range archs {
		if !a.arch.Connected() {
			t.Fatalf("%s: family not connected before masking", a.name)
		}
		nodes := a.arch.Nodes()
		victim := nodes[len(nodes)/2]
		var cut [][2]graph.NodeID
		for _, l := range a.arch.Links() {
			if k := l.Key(); k[0] == victim || k[1] == victim {
				cut = append(cut, k)
			}
		}
		masked := a.arch.Masked(cut, nil)
		if masked.Connected() {
			t.Fatalf("%s: cutting node %d's %d links left the graph connected", a.name, victim, len(cut))
		}
		someSrc := nodes[0]
		if someSrc == victim {
			someSrc = nodes[1]
		}
		out = append(out, struct {
			name    string
			arch    *topology.Architecture
			masked  *topology.Architecture
			victim  graph.NodeID
			someSrc graph.NodeID
		}{a.name, a.arch, masked, victim, someSrc})
	}
	return out
}

func TestDisconnectedBuildReturnsTypedError(t *testing.T) {
	for _, f := range disconnectedFamilies(t) {
		t.Run(f.name, func(t *testing.T) {
			if _, err := Build(f.masked); !errors.Is(err, ErrNoRoute) {
				t.Fatalf("Build on disconnected %s: %v, want ErrNoRoute", f.name, err)
			}
			if _, err := BuildShortestPath(f.masked); !errors.Is(err, ErrNoRoute) {
				t.Fatalf("BuildShortestPath on disconnected %s: %v, want ErrNoRoute", f.name, err)
			}
		})
	}
}

func TestDisconnectedCompileTableReturnsTypedError(t *testing.T) {
	for _, f := range disconnectedFamilies(t) {
		t.Run(f.name, func(t *testing.T) {
			// A table built over the pristine topology, compiled against
			// the fault-masked one: its routes cross removed links, so
			// the compile must fail typed, not panic.
			table, err := BuildShortestPath(f.arch)
			if err != nil {
				t.Fatal(err)
			}
			vc, err := AssignVirtualChannels(table, f.arch, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, err = CompileTable(table, f.masked, vc)
			if err == nil {
				t.Fatalf("CompileTable over masked %s succeeded — routes cross removed links", f.name)
			}
			if !errors.Is(err, ErrNoRoute) {
				t.Fatalf("CompileTable over masked %s: %v, want ErrNoRoute", f.name, err)
			}
		})
	}
}

func TestDisconnectedRouteReportsUnreachablePair(t *testing.T) {
	for _, f := range disconnectedFamilies(t) {
		t.Run(f.name, func(t *testing.T) {
			// Build a table over the reachable component only, then ask
			// it for the unreachable pair: the typed per-pair error must
			// identify the endpoints.
			table := mustComponentTable(t, f.masked, f.victim)
			_, err := table.Route(f.someSrc, f.victim)
			if !errors.Is(err, ErrNoRoute) {
				t.Fatalf("Route to isolated node: %v, want ErrNoRoute", err)
			}
			var ue *UnreachableError
			if !errors.As(err, &ue) {
				t.Fatalf("Route error %v is not an UnreachableError", err)
			}
			if ue.Src != f.someSrc || ue.Dst != f.victim {
				t.Fatalf("UnreachableError names %d->%d, want %d->%d", ue.Src, ue.Dst, f.someSrc, f.victim)
			}
		})
	}
}

// mustComponentTable builds shortest-path routes among the masked
// topology's still-connected component (every node except the victim),
// leaving the victim out of the table entirely.
func mustComponentTable(t *testing.T, masked *topology.Architecture, victim graph.NodeID) Table {
	t.Helper()
	sub := masked.Masked(nil, []graph.NodeID{victim})
	// Rebuild without the victim node at all: copy the surviving links
	// into a fresh architecture over the remaining nodes.
	var nodes []graph.NodeID
	for _, id := range sub.Nodes() {
		if id != victim {
			nodes = append(nodes, id)
		}
	}
	arch := topology.New("component", nodes, nil)
	for _, l := range sub.Links() {
		k := l.Key()
		if err := arch.AddLink(k[0], k[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	table, err := BuildShortestPath(arch)
	if err != nil {
		t.Fatalf("component table: %v", err)
	}
	return table
}
