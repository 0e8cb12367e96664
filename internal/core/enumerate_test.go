package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
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

// refRank is the reference candidate rank: the library position, then
// each covered edge id, as 4-byte big-endian words.
func refRank(primIdx int, ids []int32) string {
	b := binary.BigEndian.AppendUint32(nil, uint32(primIdx))
	for _, e := range ids {
		b = binary.BigEndian.AppendUint32(b, uint32(e))
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

// freshCandidates enumerates a primitive by VF2, as at the root, and
// materializes its capped candidates.
func (w *worker) freshCandidates(primIdx int, mask graph.EdgeMask) []candidate {
	var l coverList
	w.enumerate(primIdx, mask, mask.Count(), nil, &l)
	return w.candidates(primIdx, &l)
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
						got := w.freshCandidates(primIdx, mask)
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
		case g.rank != refRank(primIdx, r.ids):
			t.Fatalf("%s cand %d: rank differs from the reference key", where, i)
		case i > 0 && strings.Compare(got[i-1].rank, g.rank) != strings.Compare(refCoverKey(want[i-1].covered), refCoverKey(r.covered)):
			t.Fatalf("%s cand %d: ranks order unlike the covered (From, To) pairs", where, i)
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

// Along chains of masks that only lose edges, as down a search path, a
// list inherited from its parent must equal a fresh VF2 enumeration of
// the same mask, candidate by candidate, and carry the same completeness.
// At IsoLimit 4 most parents are truncated and must not be inherited: a
// child then finds matchings its parent never reached.
func TestInheritedListMatchesFresh(t *testing.T) {
	lib := primitives.MustDefault()
	for name, g := range diffGraphs(t) {
		for _, mode := range []CostMode{CostLinks, CostEnergy} {
			for _, isoLimit := range []int{0, 4, -1} {
				p := Problem{
					ACG:       g,
					Library:   lib,
					Placement: floorplan.Grid(g.NodeCount(), 1, 1, 0.2),
					Energy:    energy.Tech180,
					Options:   Options{Mode: mode, MatchLimit: -1, IsoLimit: isoLimit},
				}
				sh, err := newShared(context.Background(), &p)
				if err != nil {
					t.Fatal(err)
				}
				w := sh.newWorker()
				rng := rand.New(rand.NewSource(int64(len(name))*131 + int64(mode)*7 + int64(isoLimit)))
				mask, live := sh.fullMask.Clone(), sh.facg.EdgeCount()
				parent := make([]coverList, len(sh.prims))
				for primIdx := range parent {
					w.enumerate(primIdx, mask, live, nil, &parent[primIdx])
				}
				inherited := 0
				for step := 0; step < 5 && live > 0; step++ {
					mask = loseEdges(rng, mask, parent)
					live = mask.Count()
					child := make([]coverList, len(sh.prims))
					for primIdx := range child {
						where := fmt.Sprintf("%s mode %d iso %d step %d prim %s", name, mode, isoLimit, step, sh.prims[primIdx].prim.Name)
						if parent[primIdx].complete {
							inherited++
						}
						w.enumerate(primIdx, mask, live, &parent[primIdx], &child[primIdx])
						var fresh coverList
						w.enumerate(primIdx, mask, live, nil, &fresh)
						if child[primIdx].complete != fresh.complete {
							t.Fatalf("%s: complete %v, fresh %v", where, child[primIdx].complete, fresh.complete)
						}
						compareLists(t, where, w.candidates(primIdx, &child[primIdx]), w.candidates(primIdx, &fresh))
					}
					parent = child
				}
				if inherited == 0 && isoLimit != 4 {
					t.Fatalf("%s mode %d iso %d: no list was inherited; the check is vacuous", name, mode, isoLimit)
				}
			}
		}
	}
}

// loseEdges returns a copy of mask with edges cleared: alternately the
// cover of a random listed match, as a tree step removes, or a random
// fifth of the live edges.
func loseEdges(rng *rand.Rand, mask graph.EdgeMask, lists []coverList) graph.EdgeMask {
	next := mask.Clone()
	if rng.Intn(2) == 0 {
		var nonEmpty []*coverList
		for i := range lists {
			if len(lists[i].idx) > 0 {
				nonEmpty = append(nonEmpty, &lists[i])
			}
		}
		if len(nonEmpty) > 0 {
			l := nonEmpty[rng.Intn(len(nonEmpty))]
			for _, e := range l.src.cover(l.idx[rng.Intn(len(l.idx))]) {
				next.Clear(int(e))
			}
			return next
		}
	}
	for e := 0; e < 64*len(mask); e++ {
		if mask.Has(e) && rng.Intn(5) == 0 {
			next.Clear(e)
		}
	}
	return next
}

// compareLists asserts two candidate lists are equal field by field.
func compareLists(t *testing.T, where string, got, want []candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, fresh %d", where, len(got), len(want))
	}
	for i := range got {
		g, f := got[i], want[i]
		switch {
		case g.rank != f.rank:
			t.Fatalf("%s cand %d: rank differs", where, i)
		case !slices.Equal(g.coveredIDs, f.coveredIDs):
			t.Fatalf("%s cand %d: ids %v, fresh %v", where, i, g.coveredIDs, f.coveredIDs)
		case math.Float64bits(g.match.Cost) != math.Float64bits(f.match.Cost):
			t.Fatalf("%s cand %d: cost %v, fresh %v", where, i, g.match.Cost, f.match.Cost)
		case math.Float64bits(g.wHops) != math.Float64bits(f.wHops),
			math.Float64bits(g.weight) != math.Float64bits(f.weight):
			t.Fatalf("%s cand %d: wHops/weight %v/%v, fresh %v/%v", where, i, g.wHops, g.weight, f.wHops, f.weight)
		case g.match.Primitive != f.match.Primitive:
			t.Fatalf("%s cand %d: primitive differs", where, i)
		case !slices.Equal(g.match.Mapping.Pairs(), f.match.Mapping.Pairs()):
			t.Fatalf("%s cand %d: mapping %v, fresh %v", where, i, g.match.Mapping.Pairs(), f.match.Mapping.Pairs())
		}
	}
}

// A search that stops at exactly IsoLimit matchings may have been cut
// short, so its list is never complete; one limit higher, the same search
// is.
func TestIsoLimitHitIsIncomplete(t *testing.T) {
	lib := primitives.MustDefault()
	primIdx := slices.Index(lib.Primitives(), lib.ByName("MGG4"))
	acg := aesACG(8, 1)
	n, err := iso.FindEachFrozen(lib.Primitives()[primIdx].Rep.Freeze(), acg.Freeze(), nil, iso.Options{}, func([]int32) {})
	if err != nil || n == 0 {
		t.Fatalf("MGG4 on AES: %d matchings, err %v", n, err)
	}
	for _, c := range []struct {
		limit    int
		complete bool
	}{{n, false}, {n + 1, true}} {
		p := Problem{ACG: acg, Library: lib, Energy: energy.Tech180, Options: Options{Mode: CostLinks, IsoLimit: c.limit}}
		sh, err := newShared(context.Background(), &p)
		if err != nil {
			t.Fatal(err)
		}
		var l coverList
		sh.newWorker().enumerate(primIdx, sh.fullMask, sh.facg.EdgeCount(), nil, &l)
		if l.complete != c.complete {
			t.Fatalf("IsoLimit %d with %d matchings: complete %v, want %v", c.limit, n, l.complete, c.complete)
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
				got := w.freshCandidates(primIdx, sh.fullMask)
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
	var l coverList
	var n int
	allocs := testing.AllocsPerRun(20, func() {
		w.enumerate(primIdx, sh.fullMask, sh.facg.EdgeCount(), nil, &l)
		n = len(w.candidates(primIdx, &l))
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
