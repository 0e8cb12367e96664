package routing

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// TestCompiledTableMatchesTableRoutes proves the compiled plans are the
// same routes and VCs per-packet resolution produces: for every ordered
// pair, Plan == (Table.Route, VCAssignment.VCForHop per hop), and the
// out-slots point at the route's next node in the frozen adjacency.
func TestCompiledTableMatchesTableRoutes(t *testing.T) {
	archs := make(map[string]*topology.Architecture)

	mesh, err := topology.Mesh(4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	archs["mesh4x4"] = mesh

	star := topology.New("star", graph.Range(1, 6), nil)
	for i := graph.NodeID(2); i <= 6; i++ {
		if err := star.AddLink(1, i, 0); err != nil {
			t.Fatal(err)
		}
	}
	archs["star"] = star

	for name, arch := range archs {
		var table Table
		if name == "mesh4x4" {
			table, err = XY(4, 4)
		} else {
			table, err = Build(arch)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		vc, err := AssignVirtualChannels(table, arch, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ct, err := CompileTable(table, arch, vc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ct.NumVCs() != vc.NumVCs {
			t.Fatalf("%s: compiled NumVCs %d != assignment %d", name, ct.NumVCs(), vc.NumVCs)
		}
		frz := ct.Frozen()
		nodes := arch.Nodes()
		if ct.NodeCount() != len(nodes) {
			t.Fatalf("%s: node count %d != %d", name, ct.NodeCount(), len(nodes))
		}
		for _, src := range nodes {
			for _, dst := range nodes {
				route, vcs, slots, ok := ct.Plan(src, dst)
				if src == dst {
					if ok {
						t.Fatalf("%s: self pair %d has a plan", name, src)
					}
					continue
				}
				if !ok {
					t.Fatalf("%s: no plan %d->%d", name, src, dst)
				}
				want, err := table.Route(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				if len(route) != len(want) {
					t.Fatalf("%s: %d->%d plan %v != route %v", name, src, dst, route, want)
				}
				for i := range want {
					if route[i] != want[i] {
						t.Fatalf("%s: %d->%d plan %v != route %v", name, src, dst, route, want)
					}
					wantVC := 0
					if i+1 < len(want) {
						wantVC = vc.VCForHop(want, i)
					}
					if int(vcs[i]) != wantVC {
						t.Fatalf("%s: %d->%d hop %d VC %d != %d", name, src, dst, i, vcs[i], wantVC)
					}
					ri, _ := frz.IndexOf(want[i])
					if i+1 < len(want) {
						next, _ := frz.IndexOf(want[i+1])
						if got := frz.Out(ri)[slots[i]]; got != int32(next) {
							t.Fatalf("%s: %d->%d hop %d slot %d points at %d, want %d",
								name, src, dst, i, slots[i], got, next)
						}
					} else if int(slots[i]) != frz.OutDegree(ri) {
						t.Fatalf("%s: %d->%d final slot %d != local %d",
							name, src, dst, slots[i], frz.OutDegree(ri))
					}
				}
			}
		}
	}
}

// TestCompiledTableRejectsBrokenTables pins compile-time validation: an
// incomplete table fails CompileTable instead of failing per packet.
func TestCompiledTableRejectsBrokenTables(t *testing.T) {
	arch, err := topology.Mesh(2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	table, err := XY(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := AssignVirtualChannels(table, arch, nil)
	if err != nil {
		t.Fatal(err)
	}
	broken := withoutHop(t, table, 1, 4)
	if _, err := CompileTable(broken, arch, vc); err == nil {
		t.Fatal("incomplete table compiled")
	}
	if _, err := CompileTable(Table{}, arch, vc); err == nil {
		t.Fatal("nil table compiled")
	}
	if _, err := CompileTable(table, nil, vc); err == nil {
		t.Fatal("nil arch compiled")
	}
}

// TestCompiledPlanViewsOutOfRange exercises the invalid-lookup paths.
func TestCompiledPlanViewsOutOfRange(t *testing.T) {
	arch, err := topology.Mesh(2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	table, err := XY(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	vc, err := AssignVirtualChannels(table, arch, nil)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := CompileTable(table, arch, vc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := ct.Plan(1, 99); ok {
		t.Fatal("unknown destination planned")
	}
	if _, _, _, ok := ct.Plan(99, 1); ok {
		t.Fatal("unknown source planned")
	}
	if _, _, _, ok := ct.PlanByIndex(-1, 0); ok {
		t.Fatal("negative index planned")
	}
	if _, _, _, ok := ct.PlanByIndex(0, 4); ok {
		t.Fatal("out-of-range index planned")
	}
}
