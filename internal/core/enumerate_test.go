package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/energy"
	"repro/internal/floorplan"
	"repro/internal/graph"
	"repro/internal/iso"
	"repro/internal/primitives"
	"repro/internal/randgraph"
	"repro/internal/tgff"
)

// refCand is one candidate of the reference enumeration.
type refCand struct {
	match   Match
	covered [][2]graph.NodeID
	ids     []int32
	wHops   float64
	weight  float64
}

// refMatchCost is the map-based match cost: Equation 5 over the
// primitive's representation edges, each route translated through the
// Mapping and priced at the placement's link lengths.
func refMatchCost(c *coster, m Match) float64 {
	if c.p.Options.Mode == CostLinks {
		return float64(m.Primitive.ImplLinkCount())
	}
	var total float64
	for _, e := range m.Primitive.Rep.Edges() {
		u, v := m.Mapping[e.From], m.Mapping[e.To]
		acgEdge, ok := c.p.ACG.EdgeBetween(u, v)
		if !ok {
			continue
		}
		route, ok := m.MappedRoute(u, v)
		if !ok {
			continue
		}
		lengths := make([]float64, 0, len(route)-1)
		for i := 0; i+1 < len(route); i++ {
			lengths = append(lengths, c.linkLength(route[i], route[i+1]))
		}
		total += c.p.Energy.TransferEnergy(acgEdge.Volume, lengths)
	}
	return total
}

func refCoverKey(covered [][2]graph.NodeID) string {
	b := make([]byte, 0, len(covered)*4)
	for _, k := range covered {
		b = append(b, byte(k[0]>>8), byte(k[0]), byte(k[1]>>8), byte(k[1]))
	}
	return string(b)
}

// referenceEnumerate is the map-graph candidate pipeline the dense
// enumerate must reproduce: iso.FindAll on the materialized remaining
// graph, CoveredEdges and refMatchCost per raw Mapping, dedup by cover key
// keeping the first strictly cheapest Mapping, a stable cost sort, the
// match cap, and the latency sums over the sorted covered edges.
func referenceEnumerate(sh *shared, c *coster, primIdx int, mask graph.EdgeMask) []refCand {
	prim := sh.p.Library.Primitives()[primIdx]
	opts := iso.Options{}
	if sh.isoLimit > 0 {
		opts.Limit = sh.isoLimit
	}
	mappings, err := iso.FindAll(prim.Rep, sh.facg.Materialize(mask), opts)
	if err != nil && len(mappings) == 0 {
		return nil
	}
	best := map[string]refCand{}
	var order []string
	for _, mp := range mappings {
		m := Match{Primitive: prim, Mapping: mp}
		covered := m.CoveredEdges()
		m.Cost = refMatchCost(c, m)
		key := refCoverKey(covered)
		old, ok := best[key]
		if !ok {
			order = append(order, key)
			best[key] = refCand{match: m, covered: covered}
		} else if m.Cost < old.match.Cost {
			best[key] = refCand{match: m, covered: covered}
		}
	}
	cands := make([]refCand, 0, len(order))
	for _, key := range order {
		cands = append(cands, best[key])
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].match.Cost < cands[j].match.Cost })
	if sh.matchLimit > 0 && len(cands) > sh.matchLimit {
		cands = cands[:sh.matchLimit]
	}
	for i := range cands {
		for _, k := range cands[i].covered {
			u, _ := sh.facg.IndexOf(k[0])
			v, _ := sh.facg.IndexOf(k[1])
			e, _ := sh.facg.EdgeIndexBetween(u, v)
			cands[i].ids = append(cands[i].ids, int32(e))
			hops := 1.0
			if route, ok := cands[i].match.MappedRoute(k[0], k[1]); ok && len(route) > 1 {
				hops = float64(len(route) - 1)
			}
			lw := sh.latWeight[e]
			cands[i].weight += lw
			cands[i].wHops += lw * hops
		}
	}
	return cands
}

// diffGraphs is the differential test's instance set: the AES and
// Figure 5 graphs plus seeded TGFF and scale-free graphs.
func diffGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{"aes": aesACG(8, 1), "fig5": randgraph.PaperFig5(16)}
	for _, seed := range []int64{1, 2, 3} {
		for _, n := range []int{10, 14, 18} {
			g, err := tgff.Generate(tgff.DefaultConfig(n, seed))
			if err != nil {
				t.Fatal(err)
			}
			gs[fmt.Sprintf("tgff-%d-%d", n, seed)] = g
		}
		for _, n := range []int{10, 20, 30} {
			g, err := randgraph.BarabasiAlbert(n, 2, 8, 64, seed)
			if err != nil {
				t.Fatal(err)
			}
			gs[fmt.Sprintf("ba-%d-%d", n, seed)] = g
		}
	}
	return gs
}

// The dense enumerate must return exactly the candidate list of the
// map-graph reference pipeline — covered edges, ids, rank,
// cost bits, latency sums and Mapping — for every primitive, over full and
// random live masks, in both cost modes and at every match cap.
func TestEnumerateMatchesReference(t *testing.T) {
	lib := primitives.MustDefault()
	for name, g := range diffGraphs(t) {
		for _, mode := range []CostMode{CostLinks, CostEnergy} {
			for _, limit := range []int{1, 4, -1} {
				p := Problem{
					ACG:       g,
					Library:   lib,
					Placement: floorplan.Grid(g.NodeCount(), 1, 1, 0.2),
					Energy:    energy.Tech180,
					Options:   Options{Mode: mode, MatchLimit: limit},
				}
				sh, err := newShared(context.Background(), &p)
				if err != nil {
					t.Fatal(err)
				}
				w := sh.newWorker()
				rng := rand.New(rand.NewSource(int64(len(name))*31 + int64(limit)))
				masks := []graph.EdgeMask{sh.fullMask}
				for k := 0; k < 2; k++ {
					m := sh.fullMask.Clone()
					for e := 0; e < sh.facg.EdgeCount(); e++ {
						if rng.Float64() < 0.3 {
							m.Clear(e)
						}
					}
					masks = append(masks, m)
				}
				for mi, mask := range masks {
					for primIdx := range lib.Primitives() {
						where := fmt.Sprintf("%s mode %d limit %d mask %d prim %s", name, mode, limit, mi, lib.Primitives()[primIdx].Name)
						want := referenceEnumerate(sh, &w.coster, primIdx, mask)
						got := w.enumerate(primIdx, mask)
						compareCandidates(t, where, sh, primIdx, got, want)
					}
				}
			}
		}
	}
}

// compareCandidates asserts got equals the reference list.
func compareCandidates(t *testing.T, where string, sh *shared, primIdx int, got []candidate, want []refCand) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, reference %d", where, len(got), len(want))
	}
	for i := range got {
		g, r := got[i], want[i]
		covered := make([][2]graph.NodeID, len(g.coveredIDs))
		for j, e := range g.coveredIDs {
			ed := sh.facg.EdgeAt(int(e))
			covered[j] = [2]graph.NodeID{ed.From, ed.To}
		}
		switch {
		case !slices.Equal(covered, r.covered):
			t.Fatalf("%s cand %d: covered %v, reference %v", where, i, covered, r.covered)
		case !slices.Equal(g.coveredIDs, r.ids):
			t.Fatalf("%s cand %d: ids %v, reference %v", where, i, g.coveredIDs, r.ids)
		case g.rank != string([]byte{byte(primIdx >> 8), byte(primIdx)})+refCoverKey(r.covered):
			t.Fatalf("%s cand %d: rank differs from the reference cover key", where, i)
		case math.Float64bits(g.match.Cost) != math.Float64bits(r.match.Cost):
			t.Fatalf("%s cand %d: cost %v, reference %v", where, i, g.match.Cost, r.match.Cost)
		case math.Float64bits(g.wHops) != math.Float64bits(r.wHops),
			math.Float64bits(g.weight) != math.Float64bits(r.weight):
			t.Fatalf("%s cand %d: wHops/weight %v/%v, reference %v/%v", where, i, g.wHops, g.weight, r.wHops, r.weight)
		case g.match.Primitive != r.match.Primitive:
			t.Fatalf("%s cand %d: primitive differs", where, i)
		case !slices.Equal(g.match.Mapping.Pairs(), r.match.Mapping.Pairs()):
			t.Fatalf("%s cand %d: mapping %v, reference %v", where, i, g.match.Mapping.Pairs(), r.match.Mapping.Pairs())
		}
	}
}

// Covers whose signatures collide must still be told apart by their edge
// ids: with every edge hash zeroed, all covers share one signature, and
// enumerate must still return the reference list.
func TestEnumerateSignatureCollisionsNeverMerge(t *testing.T) {
	lib := primitives.MustDefault()
	for name, g := range map[string]*graph.Graph{"aes": aesACG(8, 1), "fig5": randgraph.PaperFig5(16)} {
		for _, mode := range []CostMode{CostLinks, CostEnergy} {
			p := Problem{
				ACG:       g,
				Library:   lib,
				Placement: floorplan.Grid(g.NodeCount(), 1, 1, 0.2),
				Energy:    energy.Tech180,
				Options:   Options{Mode: mode, MatchLimit: -1},
			}
			sh, err := newShared(context.Background(), &p)
			if err != nil {
				t.Fatal(err)
			}
			sh.edgeHash = make([]graphSig, len(sh.edgeHash))
			w := sh.newWorker()
			for primIdx, prim := range lib.Primitives() {
				want := referenceEnumerate(sh, &w.coster, primIdx, sh.fullMask)
				got := w.enumerate(primIdx, sh.fullMask)
				compareCandidates(t, fmt.Sprintf("%s mode %d prim %s", name, mode, prim.Name), sh, primIdx, got, want)
			}
		}
	}
}

// An enumerate allocates only its surviving candidates: a
// regression that builds a Mapping, covered slice or key per raw VF2
// matching (MGG4 has hundreds on the AES graph) fails this bound.
func TestEnumerateAllocs(t *testing.T) {
	lib := primitives.MustDefault()
	primIdx := slices.Index(lib.Primitives(), lib.ByName("MGG4"))
	p := Problem{
		ACG:     aesACG(8, 1),
		Library: lib,
		Energy:  energy.Tech180,
		Options: Options{Mode: CostLinks, Parallelism: 1},
	}
	sh, err := newShared(context.Background(), &p)
	if err != nil {
		t.Fatal(err)
	}
	w := sh.newWorker()
	var n int
	allocs := testing.AllocsPerRun(20, func() {
		n = len(w.enumerate(primIdx, sh.fullMask))
	})
	if n != 1 {
		t.Fatalf("MGG4 on AES: %d candidates, want 1 (the default match cap)", n)
	}
	const bound = 16
	if allocs > bound {
		t.Fatalf("MGG4 enumerate allocates %v times per call, bound %d", allocs, bound)
	}
}

// refMappedRoute is MappedRoute through an inverted Mapping, the form the
// scan replaced.
func refMappedRoute(m Match, u, v graph.NodeID) ([]graph.NodeID, bool) {
	inv := make(map[graph.NodeID]graph.NodeID, len(m.Mapping))
	for p, a := range m.Mapping {
		inv[a] = p
	}
	pu, ok1 := inv[u]
	pv, ok2 := inv[v]
	if !ok1 || !ok2 {
		return nil, false
	}
	route, ok := m.Primitive.Routes[[2]graph.NodeID{pu, pv}]
	if !ok {
		return nil, false
	}
	mapped := make([]graph.NodeID, len(route))
	for i, p := range route {
		mapped[i] = m.Mapping[p]
	}
	return mapped, true
}

// MappedRoute must answer every vertex pair — covered edges, uncovered
// pairs of mapped vertices, unmapped and repeated vertices — exactly as
// the inverted-map form, for every library primitive on the AES match set.
func TestMappedRouteMatchesInverseMap(t *testing.T) {
	acg := aesACG(8, 1)
	lib := primitives.MustDefault()
	checked := 0
	for _, prim := range lib.Primitives() {
		ms, _ := iso.FindAll(prim.Rep, acg, iso.Options{Limit: 16})
		for _, mp := range ms {
			m := Match{Primitive: prim, Mapping: mp}
			for _, u := range append(acg.Nodes(), 99) {
				for _, v := range append(acg.Nodes(), 99) {
					got, gok := m.MappedRoute(u, v)
					want, wok := refMappedRoute(m, u, v)
					if gok != wok || !slices.Equal(got, want) {
						t.Fatalf("%s %v: MappedRoute(%d,%d) = %v,%v; inverse map gives %v,%v",
							prim.Name, mp.Pairs(), u, v, got, gok, want, wok)
					}
					if gok {
						checked++
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no primitive matched the AES graph; the check is vacuous")
	}
}
