package primitives

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Library is the ordered communication library L = {P1, P2, ..., Pn} of the
// paper's Definition 4. The order is the order in which the decomposition
// algorithm tries primitives; IDs printed in decomposition listings are the
// 1-based positions in this order.
type Library struct {
	prims []*Primitive
}

// MustDefault returns the library used throughout the paper's
// experiments: "minimum gossip and broadcast graphs that have efficient
// 2-D implementations and paths and loops of various sizes" (Section 3).
// It holds the gossips MGG4 and MGG8, the broadcasts G122, G123 and G124,
// the loops L4 and L5, and the path P3. Larger primitives are
// deliberately excluded: they need more wiring resources and become less
// likely to be detected (Section 3, "Design of the Communication
// Library"). The single-edge path P2 is also excluded — it would match
// any nonempty graph, so no decomposition would ever report a remainder
// (the paper's AES output does report one) and the branching factor would
// degenerate to one branch per leftover edge.
//
// Primitives are ordered by decreasing representation-edge count
// (richest patterns first) with ties broken by the order above. This
// ordering lets the branch-and-bound peel the densest structure first,
// which is also the ablation baseline.
//
// The library is built once per process, on first use, and every call
// returns the same *Library. It is shared read-only: the solver and the
// decoder only read it, and callers must not modify it or its
// primitives (FromPrimitives and Reversed copy the primitives they
// renumber). Construction errors panic: they would be a programming
// bug, not an input condition.
func MustDefault() *Library { return defaultLibrary() }

var defaultLibrary = sync.OnceValue(buildDefault)

// buildDefault constructs the default library; MustDefault runs it once.
func buildDefault() *Library {
	must := func(p *Primitive, err error) *Primitive {
		if err != nil {
			panic(err)
		}
		return p
	}
	lib, err := FromPrimitives(
		must(NewGossip(4)), must(NewGossip(8)),
		must(NewBroadcast(5)), must(NewBroadcast(4)), must(NewBroadcast(3)),
		must(NewLoop(4)), must(NewLoop(5)),
		must(NewPath(3)),
	)
	if err != nil {
		panic(err)
	}
	lib.sortByRichness()
	lib.renumber()
	return lib
}

// FromPrimitives builds a library from explicit primitives in the given
// order, validating each. The library holds copies of the primitive
// structs, so assigning library IDs never renumbers the caller's
// primitives (which may belong to another library, such as the shared
// default). The copies share their graphs, schedules and routes with the
// originals, which are read-only once built.
func FromPrimitives(prims ...*Primitive) (*Library, error) {
	lib := &Library{}
	for _, p := range prims {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		cp := *p
		lib.prims = append(lib.prims, &cp)
	}
	lib.renumber()
	return lib, nil
}

// Primitives returns the primitives in library order, as a new slice:
// reordering or truncating it leaves the library unchanged. The
// primitives themselves are shared and must not be modified.
func (l *Library) Primitives() []*Primitive { return slices.Clone(l.prims) }

// Len returns the number of primitives.
func (l *Library) Len() int { return len(l.prims) }

// ByName returns the primitive with the given name, or nil.
func (l *Library) ByName(name string) *Primitive {
	for _, p := range l.prims {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// ByID returns the primitive with the given 1-based library ID, or nil.
func (l *Library) ByID(id int) *Primitive {
	if id < 1 || id > len(l.prims) {
		return nil
	}
	return l.prims[id-1]
}

// Reversed returns a new library with the primitive order reversed
// (smallest-first). Used by the library-order ablation.
func (l *Library) Reversed() *Library {
	r := &Library{prims: make([]*Primitive, len(l.prims))}
	for i, p := range l.prims {
		cp := *p
		r.prims[len(l.prims)-1-i] = &cp
	}
	r.renumber()
	return r
}

// MaxDiameter returns the largest implementation-graph diameter across the
// library. Section 4.3 observes that the maximum hop count between any two
// nodes of the synthesized architecture is bounded by this value.
func (l *Library) MaxDiameter() int {
	d := 0
	for _, p := range l.prims {
		if pd := p.Impl.Diameter(); pd > d {
			d = pd
		}
	}
	return d
}

// Describe renders the whole library, Figure-1 style.
func (l *Library) Describe() string {
	var b strings.Builder
	for _, p := range l.prims {
		fmt.Fprintf(&b, "%d: %s", p.ID, p.Describe())
	}
	return b.String()
}

func (l *Library) sortByRichness() {
	// Stable insertion by decreasing rep edge count keeps construction
	// order among equals.
	prims := l.prims
	for i := 1; i < len(prims); i++ {
		for j := i; j > 0 && prims[j].Rep.EdgeCount() > prims[j-1].Rep.EdgeCount(); j-- {
			prims[j], prims[j-1] = prims[j-1], prims[j]
		}
	}
}

func (l *Library) renumber() {
	for i, p := range l.prims {
		p.ID = i + 1
	}
}
