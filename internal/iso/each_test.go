package iso

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/primitives"
)

// collectEach runs one visitor query and converts every visited core into
// a Mapping, the way FindAllFrozen does.
func collectEach(t *testing.T, sr *Searcher, p, tg *graph.Frozen, mask graph.EdgeMask, opts Options) ([]Mapping, error) {
	t.Helper()
	var out []Mapping
	n, err := sr.FindEach(p, tg, mask, opts, func(core []int32) {
		m := make(Mapping, len(core))
		for pi, ti := range core {
			m[p.IDOf(pi)] = tg.IDOf(int(ti))
		}
		out = append(out, m)
	})
	if n != len(out) {
		t.Fatalf("FindEach reported %d matchings, visited %d", n, len(out))
	}
	return out, err
}

// The visitor must see exactly the matchings FindAllFrozen returns, in the
// same order, under a result limit and under an already-expired deadline —
// both through the one-shot FindEachFrozen and through a single Searcher
// reused across patterns, differently sized targets and masks, so no
// buffer carries state from one query into the next.
func TestFindEachFrozenMatchesFindAllFrozen(t *testing.T) {
	lib := primitives.MustDefault()
	var sr Searcher
	optsList := []Options{
		{},
		{Limit: 1},
		{Limit: 5},
		{Deadline: time.Now().Add(-time.Second)},
		{Limit: 3, Deadline: time.Now().Add(-time.Second)},
	}
	for seed := int64(0); seed < 8; seed++ {
		target := randomTarget(7+int(seed)%5, 0.35, 500+seed)
		ft := target.Freeze()
		rng := rand.New(rand.NewSource(900 + seed))
		mask := graph.FullEdgeMask(ft.EdgeCount())
		for e := 0; e < ft.EdgeCount(); e++ {
			if rng.Float64() < 0.25 {
				mask.Clear(e)
			}
		}
		for _, m := range []graph.EdgeMask{nil, mask} {
			for _, prim := range lib.Primitives() {
				fp := prim.Rep.Freeze()
				for _, opts := range optsList {
					want, werr := FindAllFrozen(fp, ft, m, opts)
					var oneShot []Mapping
					n, oerr := FindEachFrozen(fp, ft, m, opts, func(core []int32) {
						mp := make(Mapping, len(core))
						for pi, ti := range core {
							mp[fp.IDOf(pi)] = ft.IDOf(int(ti))
						}
						oneShot = append(oneShot, mp)
					})
					reused, rerr := collectEach(t, &sr, fp, ft, m, opts)
					if werr != oerr || werr != rerr {
						t.Fatalf("seed %d %s %+v: err %v / %v / %v", seed, prim.Name, opts, werr, oerr, rerr)
					}
					if n != len(want) || !mappingsEqual(want, oneShot) || !mappingsEqual(want, reused) {
						t.Fatalf("seed %d %s %+v: FindAllFrozen %d matchings, FindEachFrozen %d, Searcher %d, or order differs",
							seed, prim.Name, opts, len(want), len(oneShot), len(reused))
					}
					if opts.Limit > 0 && len(want) > opts.Limit {
						t.Fatalf("seed %d %s: limit %d exceeded (%d)", seed, prim.Name, opts.Limit, len(want))
					}
					// An expired deadline cuts the search at its first node;
					// only the cheap pre-filter may answer before that.
					if !opts.Deadline.IsZero() && len(want) != 0 {
						t.Fatalf("seed %d %s: expired deadline gave %d matchings, err %v", seed, prim.Name, len(want), werr)
					}
				}
			}
		}
	}
}

// A warm Searcher must enumerate without allocating: the pattern side is
// cached and every target-side buffer is reused.
func TestSearcherWarmQueryAllocs(t *testing.T) {
	lib := primitives.MustDefault()
	fp := lib.ByName("MGG4").Rep.Freeze()
	ft := randomTarget(16, 0.5, 3).Freeze()
	mask := graph.FullEdgeMask(ft.EdgeCount())
	mask.Clear(0)
	var sr Searcher
	visited := 0
	visit := func([]int32) { visited++ }
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sr.FindEach(fp, ft, mask, Options{Limit: 256}, visit); err != nil {
			t.Fatal(err)
		}
	})
	if visited == 0 {
		t.Fatal("query found no matchings; the check would be vacuous")
	}
	if allocs != 0 {
		t.Fatalf("warm Searcher query allocates %v times, want 0", allocs)
	}
}
