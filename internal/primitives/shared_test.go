package primitives_test

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/primitives"
)

// assertSameLibrary fails unless got and want hold the same primitives in
// the same order: names, IDs, kinds, sizes, schedules and routes (all
// rendered by Describe) plus the representation and implementation edges.
func assertSameLibrary(t *testing.T, got, want *primitives.Library) {
	t.Helper()
	if got.Describe() != want.Describe() {
		t.Fatalf("library differs from a fresh build:\n got %s\nwant %s", got.Describe(), want.Describe())
	}
	for i, p := range got.Primitives() {
		q := want.Primitives()[i]
		if !reflect.DeepEqual(p.Rep.Edges(), q.Rep.Edges()) {
			t.Fatalf("%s: representation edges differ from a fresh build", p.Name)
		}
		if !reflect.DeepEqual(p.Impl.Edges(), q.Impl.Edges()) {
			t.Fatalf("%s: implementation edges differ from a fresh build", p.Name)
		}
	}
}

func TestDefaultLibraryIsShared(t *testing.T) {
	lib := repro.DefaultLibrary()
	if lib != primitives.MustDefault() || lib != repro.DefaultLibrary() {
		t.Fatal("DefaultLibrary returned different libraries on two calls")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = repro.DefaultLibrary() }); allocs != 0 {
		t.Fatalf("DefaultLibrary allocates %v times per call after the first", allocs)
	}
	assertSameLibrary(t, lib, primitives.BuildDefault())
}

// A sub-library built from the shared default's primitives renumbers its
// own copies, never the default's.
func TestFromPrimitivesLeavesDefaultUntouched(t *testing.T) {
	def := primitives.MustDefault()
	prims := def.Primitives()
	// The last three and the first one, so every position moves.
	sub, err := primitives.FromPrimitives(prims[len(prims)-3], prims[len(prims)-2], prims[len(prims)-1], prims[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range sub.Primitives() {
		if p.ID != i+1 {
			t.Fatalf("sub-library %s ID = %d, want %d", p.Name, p.ID, i+1)
		}
	}
	if sub.Primitives()[3].Name != prims[0].Name {
		t.Fatalf("sub-library order: last is %s, want %s", sub.Primitives()[3].Name, prims[0].Name)
	}
	assertSameLibrary(t, def, primitives.BuildDefault())
}

// Primitives hands out a copy of the library's order: a caller that
// reorders or truncates it leaves the shared default as built.
func TestPrimitivesReturnsACopy(t *testing.T) {
	prims := primitives.MustDefault().Primitives()
	slices.Reverse(prims)
	_ = append(prims[:2], prims[5])
	assertSameLibrary(t, primitives.MustDefault(), primitives.BuildDefault())
}

// Solves and decodes that fall back on the shared default run at the same
// time (under -race in scripts/verify.sh) and leave it as built.
func TestDefaultLibraryConcurrentUse(t *testing.T) {
	acg := repro.NewACG("k4-plus-tail")
	for a := repro.NodeID(1); a <= 4; a++ {
		for b := repro.NodeID(1); b <= 4; b++ {
			if a != b {
				acg.AddEdge(repro.Edge{From: a, To: b, Volume: 8, Bandwidth: 1})
			}
		}
	}
	acg.AddEdge(repro.Edge{From: 4, To: 5, Volume: 8, Bandwidth: 1})
	acg.AddEdge(repro.Edge{From: 5, To: 6, Volume: 8, Bandwidth: 1})
	opts := repro.Options{Mode: repro.CostLinks, Timeout: 30 * time.Second}
	res, err := repro.SynthesizeContext(context.Background(), acg, opts)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := res.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			r, err := repro.SynthesizeContext(context.Background(), acg, opts)
			if err != nil {
				t.Error(err)
			} else if r.Decomposition.Cost != res.Decomposition.Cost {
				t.Errorf("concurrent solve cost %g, want %g", r.Decomposition.Cost, res.Decomposition.Cost)
			}
		}()
		go func() {
			defer wg.Done()
			dec, err := repro.DecodeResult(enc, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if again, err := dec.EncodeJSON(); err != nil {
				t.Error(err)
			} else if !bytes.Equal(again, enc) {
				t.Error("concurrent decode did not round-trip byte-exact")
			}
		}()
	}
	wg.Wait()
	assertSameLibrary(t, repro.DefaultLibrary(), primitives.BuildDefault())
}
